"""Scaled exponential integral, rate lower bound, interference load, outage."""
import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from ehcr import rate
from ehcr.analysis import analyze_su
from ehcr.battery import dot_last
from ehcr.model import (NetworkModel, PolicyParams, SuProfile, SystemConfig,
                        harvest_pmf)
from ehcr.policy import transmit_row
from ehcr.probing import GainDistribution, estimator_variances
from ehcr.rate import (BLOCK_ENTRIES, antiderivative_m, level_gains,
                       level_weights, rate_sum, transmission_outage)
from ehcr.sensing import joint_sensing_stats, sensing_stats
from ehcr.workspace import Workspace


FIT_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "fit_scaled_e1.py"


def _rate_bound(config, profile, sensing, est, pmf, zeta):
    """The rate bound as the evaluator composes it: the row's level
    integrals weighted by its gather of the steady state."""
    return rate_sum(config, sensing, pmf,
                    level_gains(config, profile, sensing, est, pmf),
                    level_weights(zeta, pmf))


def _m_quad(a, b, snr, mean):
    """Numeric integral of log2(1 + snr*g) under Exp(mean) over [a, b)."""
    val, _ = quad(lambda g: math.log2(1.0 + snr * g)
                  * math.exp(-g / mean) / mean, a, b, limit=200)
    return val


# ------------------------------------------------ scaled E1 fit ----

def _scaled_e1_scipy(t, out=None, work=None):
    """exp(t)*E1(t) through scipy.special.exp1, as the rate bound once was.

    Takes ``_scaled_e1``'s arguments but returns a new array, which is
    what the rate bound reads."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = t < 600.0
    out[small] = np.exp(t[small]) * exp1(t[small])
    tb = t[~small]
    acc = np.zeros_like(tb)
    for k in range(40, 0, -1):
        acc = (k * k) / (tb + 2.0 * k + 1.0 - acc)
    out[~small] = 1.0 / (tb + 1.0 - acc)
    return out


def test_scaled_e1_matches_mpmath():
    edges = [rate._NEAR_END, rate._MID_END]
    sides = [np.nextafter(edge, side) for edge in edges
             for side in (0.0, np.inf)]
    t = np.concatenate([np.geomspace(1e-8, 745.0, 6000), edges, sides,
                        np.geomspace(745.0, 1e15, 300)])
    got = rate._scaled_e1(t)
    with mpmath.workdps(30):
        want = np.array([float(mpmath.exp(v) * mpmath.e1(v))
                         for v in map(mpmath.mpf, t)])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13
    # the far piece runs to +inf, and a NaN falls to it
    got = rate._scaled_e1(np.array([np.inf, 1e300, np.nan]))
    assert got[0] == 0.0
    assert got[1] == pytest.approx(1e-300, rel=2e-15, abs=0.0)
    assert np.isnan(got[2])


def _scaled_e1_gathered(t):
    """``_scaled_e1`` with t >= 2 in one Horner pass on the committed
    table's coefficients gathered by piece, as it was first written."""
    t = np.asarray(t, dtype=float).reshape(-1)
    out = np.empty_like(t)
    near = t < rate._NEAR_END
    inverse = ~near
    tn = t[near]
    acc = tn * rate._E1_NEAR[0]
    acc += rate._E1_NEAR[1]
    for c in rate._E1_NEAR[2:]:
        acc *= tn
        acc += c
    factor = np.log(tn)
    acc -= factor
    acc *= np.exp(tn, out=factor)
    out[near] = acc
    ti = t[inverse]
    v = np.reciprocal(ti)
    coeffs = rate._E1_INV[:, np.searchsorted([rate._MID_END], ti,
                                             side="right")]
    acc = v * coeffs[0]
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= v
        acc += c
    acc *= v
    out[inverse] = acc
    return out


def test_scaled_e1_pieces_equal_the_gathered_table_bit_for_bit():
    edges = [rate._NEAR_END, rate._MID_END]
    sides = [np.nextafter(edge, side) for edge in edges
             for side in (0.0, np.inf)]
    t = np.concatenate([np.geomspace(1e-8, 745.0, 6000), edges, sides,
                        np.random.default_rng(8).permutation(
                            np.geomspace(0.5, 900.0, 999))])
    got = rate._scaled_e1(t)
    assert got.tobytes() == _scaled_e1_gathered(t).tobytes()
    # each piece alone, and a stacked shape, give the same bits
    for lo, hi in zip([0.0] + edges, edges + [np.inf]):
        piece = t[(t >= lo) & (t < hi)]
        assert piece.size
        assert rate._scaled_e1(piece).tobytes() == got[(t >= lo) & (t < hi)
                                                        ].tobytes()
    assert (rate._scaled_e1(t[:6000].reshape(3, 2000)).tobytes()
            == got[:6000].tobytes())


def _scaled_e1_two_pass(t):
    """``_scaled_e1`` with one Horner pass per piece from 2 on, as it was
    before the tail ran as one pass: the formula below 2 over every
    argument, then [2, 8) and [8, inf) each gathered, evaluated on scalar
    coefficients and scattered back."""
    t = np.asarray(t, dtype=float).reshape(-1)
    near = t < rate._NEAR_END
    mid = t < rate._MID_END
    far = ~mid
    mid ^= near
    with np.errstate(over="ignore", invalid="ignore"):
        out = rate._horner(rate._E1_NEAR, t) - np.log(t)
        out *= np.exp(t)
    for piece, coeffs in ((mid, rate._E1_MID), (far, rate._E1_FAR)):
        v = np.reciprocal(t[piece])
        acc = rate._horner(coeffs, v)
        acc *= v
        out[piece] = acc
    return out


def test_scaled_e1_one_tail_pass_equals_two_passes_bit_for_bit():
    """One call with arguments in all three pieces, both piece edges and
    their neighbours, +inf and NaN gives the two-pass form's bits."""
    edges = [rate._NEAR_END, rate._MID_END]
    sides = [np.nextafter(edge, side) for edge in edges
             for side in (0.0, np.inf)]
    t = np.concatenate([np.geomspace(1e-300, 1e300, 4001), edges, sides,
                        [np.inf, np.nan, 0.5, 3.0, 20.0, 745.0]])
    t = np.random.default_rng(26).permutation(t)
    assert (t < 2.0).any() and ((t >= 2.0) & (t < 8.0)).any()
    assert (t >= 8.0).any()
    got = rate._scaled_e1(t)
    assert got.tobytes() == _scaled_e1_two_pass(t).tobytes()
    assert np.isnan(got[np.isnan(t)]).all() and (got[t == np.inf] == 0.0).all()


@pytest.mark.parametrize("block", ["below 2", "2 to 8", "from 8", "mixed"])
def test_scaled_e1_in_place_equals_a_fresh_output_bit_for_bit(block):
    """The formula below 2 runs in place over every argument; the arguments
    from 2 on, gathered before it, are written back over it."""
    rng = np.random.default_rng(31)
    edges = [rate._NEAR_END, rate._MID_END]
    t = {"below 2": np.geomspace(1e-9, np.nextafter(2.0, 0.0), 3000),
         "2 to 8": np.linspace(2.0, np.nextafter(8.0, 0.0), 3000),
         "from 8": np.geomspace(8.0, 1e300, 3000),
         "mixed": np.concatenate([np.geomspace(1e-9, 1e6, 2995), edges,
                                  [np.inf, np.nan, 745.0]])}[block]
    t = rng.permutation(t).reshape(2, 3, 500)
    fresh = rate._scaled_e1(t)
    with np.errstate(all="raise"):
        # no warning escapes, though the formula below 2 overflows above it
        inplace = t.copy()
        got = rate._scaled_e1(inplace, out=inplace, work=Workspace())
    assert np.shares_memory(got, inplace) and got.shape == t.shape
    assert got.tobytes() == fresh.tobytes()
    assert got.tobytes() == _scaled_e1_gathered(t).reshape(t.shape).tobytes()


def test_fit_generator_reproduces_the_committed_coefficients():
    done = subprocess.run([sys.executable, str(FIT_SCRIPT), "--check"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _cross_check_settings():
    rng = np.random.default_rng(6)
    settings = []
    for _ in range(23):
        cells = int(rng.integers(12, 401))
        config = SystemConfig(battery_cells=cells,
                              probe_cells=int(rng.integers(1, 4)))
        profile = SuProfile(harvest_rate=float(10.0 ** rng.uniform(-0.3, 1.5)),
                            su_ap_var=float(10.0 ** rng.uniform(-1, 1)),
                            ap_noise=float(10.0 ** rng.uniform(-1, 1)))
        params = PolicyParams(float(rng.uniform(0.05, 1.0)),
                              float(10.0 ** rng.uniform(-3, 0.5)))
        settings.append((config, profile, params, bool(rng.integers(2))))
    # the low-harvest point and ideal sensing at the defaults
    settings.append((SystemConfig(battery_cells=20, probe_cells=3),
                     SuProfile(harvest_rate=0.8), PolicyParams(0.5, 0.1),
                     False))
    settings.append((SystemConfig(), SuProfile(), PolicyParams(0.45, 0.2),
                     True))
    return settings


@pytest.mark.parametrize("config, profile, params, ideal",
                         _cross_check_settings())
def test_rate_terms_match_the_scipy_formula(monkeypatch, config, profile,
                                            params, ideal):
    config = dataclasses.replace(config, ideal_sensing=ideal)
    su = analyze_su(NetworkModel(config=config, profiles=(profile,)), 0,
                    params)
    zeta = su.chain.steady_state

    # interference_load and transmission_outage read only the spend pmf and
    # the steady state, never _scaled_e1, so only the rate bound is compared
    def terms():
        r = _rate_bound(config, profile, su.sensing, su.estimation, su.pmf,
                        zeta)
        return r.total[0], r.idle_part[0], r.busy_part[0]

    got = terms()
    monkeypatch.setattr(rate, "_scaled_e1", _scaled_e1_scipy)
    want = terms()
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    assert got[0] > 0.0


# ------------------------------------------------- antiderivative M ----

def test_m_single_segment_against_quadrature():
    got = antiderivative_m(5.0, 1.0, 2.0) - antiderivative_m(1.0, 1.0, 2.0)
    assert got == pytest.approx(_m_quad(1.0, 5.0, 1.0, 2.0), abs=1e-8)


def test_m_limits():
    assert antiderivative_m(np.inf, 1.0, 1.0) == 0.0
    assert antiderivative_m(3.0, 0.0, 1.0) == 0.0
    # exp(-x/mean) underflows: the whole tail contributes nothing
    assert antiderivative_m(800.0, 1.0, 1.0) == 0.0


def test_m_random_segments_against_quadrature():
    rng = np.random.default_rng(77)
    for _ in range(150):
        lo = float(rng.uniform(0.0, 5.0))
        hi = lo + float(rng.uniform(0.01, 10.0))
        snr = float(10.0 ** rng.uniform(-3, 3))
        mean = float(10.0 ** rng.uniform(-2, 2))
        got = (antiderivative_m(hi, snr, mean)
               - antiderivative_m(lo, snr, mean))
        assert got == pytest.approx(_m_quad(lo, hi, snr, mean), abs=1e-8)


def test_m_large_exponent_branch():
    # 1/(snr*mean) = 1000 puts exp(t)*E1(t) deep in the far piece; the
    # direct product exp(t) * E1(t) would overflow long before that
    snr, mean = 1e-3, 1.0
    want = _m_quad(2.0, 40.0, snr, mean)
    got = antiderivative_m(40.0, snr, mean) - antiderivative_m(2.0, snr, mean)
    assert got == pytest.approx(want, rel=1e-9)


def test_m_segment_straddling_the_branch_switch():
    # exponent crosses 600 inside the segment; the far piece prices both
    # edges
    snr, mean = 0.01, 1.0   # offset 100, t = 600 at x = 500
    got = (antiderivative_m(502.0, snr, mean)
           - antiderivative_m(498.0, snr, mean))
    assert got == pytest.approx(_m_quad(498.0, 502.0, snr, mean), rel=1e-9)


def test_m_rejects_bad_mean():
    with pytest.raises(ValueError):
        antiderivative_m(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        antiderivative_m(1.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        antiderivative_m(1.0, 1.0, np.array([[1.0], [0.0]]))


def test_m_broadcast_means_equal_one_call_per_mean():
    x = np.array([0.0, 0.3, 2.0, 44.0, 600.0, 760.0, np.inf])
    snr = np.array([1.0, 0.0, 1e-3, 2.0, 0.01, 5.0, 1.0])
    means = np.array([0.05, 1.0, 30.0])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        stacked = antiderivative_m(x, snr, means[:, None])
    for row, mean in zip(stacked, means):
        assert (row == antiderivative_m(x, snr, float(mean))).all()
        assert (row == _m_reference(x, snr, float(mean))).all()


# ------------------------------------------------- rate lower bound ----

def _m_reference(x, snr, mean):
    """``antiderivative_m`` for one scalar mean, written as one expression."""
    t = x / mean
    active = (snr > 0.0) & (t <= rate._EXP_UNDERFLOW)
    x = np.where(active, x, 0.0)
    t = np.where(active, t, 0.0)
    snr = np.where(active, snr, 1.0)
    big_t = t + 1.0 / (snr * mean)
    out = (-np.exp(-t) * (rate._scaled_e1(big_t) + np.log1p(snr * x))
           / rate._LN2)
    return np.where(active, out, 0.0)


def _four_call_rate(config, profile, sensing, est, pmf, stationary):
    """The rate bound with one antiderivative call per law and edge."""
    scale = config.data_fraction * config.bandwidth
    weights = np.asarray(stationary)[..., pmf.level_state]
    parts = []
    for joint, err, mean, extra in (
            (sensing.beta0, est.var_err_h0, est.var_hat_h0, 0.0),
            (sensing.beta1, est.var_err_h1, est.var_hat_h1,
             est.pu_interference_var)):
        if joint <= 0.0 or mean <= 0.0:
            parts.append(np.zeros(pmf.theta.shape))
            continue
        power = pmf.level_units * config.unit_power
        snr = power / (err * power + (profile.ap_noise + extra))
        chunk = (_m_reference(pmf.level_hi, snr, mean)
                 - _m_reference(pmf.level_lo, snr, mean))
        chunk = np.where(pmf.level_lo >= pmf.level_hi, 0.0,
                         np.maximum(chunk, 0.0))
        parts.append(scale * joint * dot_last(weights, chunk))
    return parts[0] + parts[1], parts[0], parts[1]


def _bitwise_settings():
    nine = (0.02, 0.04, 0.07, 0.1, 0.15, 0.2, 0.3, 0.5, 0.8)
    settings = [
        # rows of many blocks at K = 80 and K = 400; at K = 80 a block
        # holds several rows and at K = 400 a block of 8,192 entries
        # crosses from one row into the next
        (SystemConfig(), SuProfile(), 1.0, nine, False),
        (SystemConfig(), SuProfile(), 0.45, nine, False),
        (SystemConfig(battery_cells=400), SuProfile(), 0.7, (0.2,), False),
        (SystemConfig(battery_cells=400), SuProfile(), 0.3, (0.05, 0.8),
         False),
        # theta = 0 beside cutoffs whose edges pass t = 745 or are +inf
        (SystemConfig(), SuProfile(), 0.6, (0.0, 0.2, 50.0, 1e4), False),
        # ideal sensing skips the busy law; omega = 0 has no level
        (SystemConfig(), SuProfile(), 0.45, (0.2,), True),
        (SystemConfig(), SuProfile(), 0.0, (0.0, 0.2), False),
        # no pilot energy: both gain means are 0 and both laws are skipped
        (SystemConfig(probe_cells=0), SuProfile(), 0.5, (0.1,), False),
    ]
    rng = np.random.default_rng(12)
    for _ in range(10):
        config = SystemConfig(battery_cells=int(rng.integers(12, 401)),
                              probe_cells=int(rng.integers(1, 4)))
        profile = SuProfile(su_ap_var=float(10.0 ** rng.uniform(-1, 1)),
                            ap_noise=float(10.0 ** rng.uniform(-2, 1)))
        thetas = tuple(np.sort(10.0 ** rng.uniform(-3, 1, rng.integers(1, 4))))
        settings.append((config, profile, float(rng.uniform(0, 1)), thetas,
                         bool(rng.integers(4) == 0)))
    return settings


def test_rate_bound_equals_four_antiderivative_calls(monkeypatch):
    """One pass per block of (law, edge, cutoff, level) entries changes no
    bit.  The blocks run over the row's entries in order, each of the
    size the call derives from K and the number of laws, the last one
    shorter."""
    rng = np.random.default_rng(4)
    seen = set()
    passes = []
    antiderivative = rate._antiderivative
    monkeypatch.setattr(rate, "_antiderivative", lambda *a: passes.append(
        a[5].shape[-1]) or antiderivative(*a))
    for config, profile, omega, thetas, ideal in _bitwise_settings():
        config = dataclasses.replace(config, ideal_sensing=ideal)
        sensing = sensing_stats(config, profile)
        est = estimator_variances(config, profile, sensing)
        pmf = transmit_row(omega, thetas, config.probe_cells,
                           config.battery_cells,
                           GainDistribution.from_stats(est, sensing))
        zeta = rng.dirichlet(np.ones(config.battery_cells + 1), len(thetas))
        passes.clear()
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = _rate_bound(config, profile, sensing, est, pmf, zeta)
        want = _four_call_rate(config, profile, sensing, est, pmf, zeta)
        laws = sum(joint > 0.0 and mean > 0.0 for joint, mean in (
            (sensing.beta0, est.var_hat_h0), (sensing.beta1, est.var_hat_h1)))
        entries, levels = pmf.level_lo.size, pmf.level_state.size
        if laws and entries:
            size = rate._block_entries(config.battery_cells, laws)
            assert passes == [size] * (entries // size) + (
                [entries % size] if entries % size else [])
        else:
            assert passes == []
        for field, ref in zip((got.total, got.idle_part, got.busy_part), want):
            assert field.shape == pmf.theta.shape
            assert (field == ref).all()
        t = pmf.level_hi / max(est.var_hat_h0, est.var_hat_h1, 1e-300)
        starts = range(0, entries, max(passes, default=1))
        crossing = any(e0 % levels + n > levels
                       for e0, n in zip(starts, passes))
        seen.update({
            "blocks": len(passes) > 2,
            "K = 80 blocks cross rows": config.battery_cells == 80 and crossing,
            "derived blocks cross rows": crossing and len(passes) > 2
            and passes[0] > BLOCK_ENTRIES,
            "skipped law": sensing.beta1 == 0.0 or est.var_hat_h0 == 0.0,
            "no levels": pmf.level_state.size == 0,
            "theta 0": 0.0 in thetas,
            "inf edge": bool(np.isinf(pmf.level_hi).any()),
            "t > 745": bool(((t > 745.0) & np.isfinite(t)).any()),
        }.items())
    assert {name for name, hit in seen if hit} == {
        "blocks", "K = 80 blocks cross rows", "derived blocks cross rows",
        "skipped law", "no levels", "theta 0", "inf edge", "t > 745"}


def test_rate_matches_per_tier_quadrature():
    model = NetworkModel(config=SystemConfig(battery_cells=7, probe_cells=1),
                         profiles=(SuProfile(harvest_rate=2.0),))
    su = analyze_su(model, 0, PolicyParams(0.75, 0.2))
    cfg, prof = model.config, model.profiles[0]
    est, sen, pmf = su.estimation, su.sensing, su.pmf
    z = su.chain.steady_state
    total = 0.0
    for joint, err, mean, extra in (
            (sen.beta0, est.var_err_h0, est.var_hat_h0, 0.0),
            (sen.beta1, est.var_err_h1, est.var_hat_h1,
             est.pu_interference_var)):
        acc = 0.0
        for k, i, lo, hi in zip(pmf.level_state, pmf.level_units,
                                pmf.level_lo[0], pmf.level_hi[0]):
            if lo >= hi:
                continue
            power = i * cfg.unit_power
            snr = power / (err * power + prof.ap_noise + extra)
            acc += z[k] * _m_quad(lo, hi, snr, mean)
        total += cfg.data_fraction * cfg.bandwidth * joint * acc
    assert su.rate.total == pytest.approx(total, rel=1e-8)
    assert su.rate.idle_part > su.rate.busy_part > 0.0
    assert su.rate.total == pytest.approx(su.rate.idle_part
                                          + su.rate.busy_part)


def test_rate_zero_when_policy_never_transmits():
    model = NetworkModel(config=SystemConfig(battery_cells=10),
                         profiles=(SuProfile(harvest_rate=3.0),))
    su = analyze_su(model, 0, PolicyParams(0.0, 0.2))
    assert su.rate.total == 0.0
    assert su.rate.idle_part == 0.0 and su.rate.busy_part == 0.0


def test_rate_zero_when_band_never_sensed_idle():
    cfg = SystemConfig(battery_cells=10)
    prof = SuProfile(harvest_rate=3.0)
    sen = joint_sensing_stats(0.5, 1.0, 1.0)   # false alarm always fires
    est = estimator_variances(cfg, prof, sen)
    dist = GainDistribution.from_stats(est, sen)
    pmf = transmit_row(0.6, [0.1], cfg.probe_cells, cfg.battery_cells, dist)
    z = np.full(cfg.battery_cells + 1, 1.0 / (cfg.battery_cells + 1))
    r = _rate_bound(cfg, prof, sen, est, pmf, z)
    assert r.total == 0.0 and r.idle_part == 0.0 and r.busy_part == 0.0


def test_rate_non_decreasing_in_battery_size():
    rates = []
    for cells in (5, 10, 20, 40):
        model = NetworkModel(config=SystemConfig(battery_cells=cells),
                             profiles=(SuProfile(harvest_rate=5.0),))
        rates.append(analyze_su(model, 0, PolicyParams(0.5, 0.1)).rate.total)
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


# ---------------------------------------------- interference load ----

def test_interference_reduces_to_pilot_duty_cycle_when_silent():
    model = NetworkModel(config=SystemConfig(battery_cells=20),
                         profiles=(SuProfile(harvest_rate=5.0),))
    su = analyze_su(model, 0, PolicyParams(0.0, 0.2))
    cfg, prof = model.config, model.profiles[0]
    want = (su.sensing.beta1 * prof.su_pu_var
            * cfg.probe_fraction * cfg.probe_power)
    assert su.interference == pytest.approx(want, rel=1e-14)


def test_interference_zero_under_perfect_detection():
    model = NetworkModel(config=SystemConfig(battery_cells=20,
                                             ideal_sensing=True),
                         profiles=(SuProfile(harvest_rate=5.0),))
    su = analyze_su(model, 0, PolicyParams(0.5, 0.1))
    assert su.interference == 0.0


def test_interference_monotone_in_policy_knobs():
    model = NetworkModel(config=SystemConfig(battery_cells=20),
                         profiles=(SuProfile(harvest_rate=5.0),))
    by_omega = [analyze_su(model, 0, PolicyParams(float(w), 0.1)).interference
                for w in np.linspace(0.05, 0.95, 10)]
    assert all(b >= a - 1e-15 for a, b in zip(by_omega, by_omega[1:]))
    by_theta = [analyze_su(model, 0, PolicyParams(0.6, float(t))).interference
                for t in np.geomspace(1e-3, 5.0, 10)]
    assert all(b <= a + 1e-15 for a, b in zip(by_theta, by_theta[1:]))


# ------------------------------------------------------ outage ----

def test_transmission_outage_extremes():
    model = NetworkModel(config=SystemConfig(battery_cells=12),
                         profiles=(SuProfile(harvest_rate=4.0),))
    hopeless = analyze_su(model, 0, PolicyParams(0.9, 1e9))
    assert hopeless.transmission_outage > 0.999
    # reserve swallowing the whole battery: silent with certainty
    su = analyze_su(model, 0, PolicyParams(0.9, 0.1))
    full_reserve = transmission_outage(su.chain.steady_state, su.pmf,
                                       su.sensing, model.config.battery_cells)
    assert full_reserve == 1.0
    assert full_reserve.shape == (1,)   # one entry per cutoff of su.pmf


def test_transmission_outage_within_unit_interval():
    model = NetworkModel(config=SystemConfig(battery_cells=12),
                         profiles=(SuProfile(harvest_rate=4.0),))
    for omega, theta in ((0.2, 0.05), (0.5, 0.5), (0.9, 2.0)):
        su = analyze_su(model, 0, PolicyParams(omega, theta))
        assert 0.0 <= su.transmission_outage <= 1.0
