"""Threshold policy: spend levels, gain intervals and the spend pmf."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehcr.model import PolicyParams
from ehcr.policy import level_skeleton, transmit_row, transmit_units
from ehcr.probing import GainDistribution, gain_cdf

MIX = GainDistribution(weights=(0.9, 0.1), means=(2.0, 1.0))


def _levels(pmf, k):
    """Spend, lower and upper gain edge of every level at battery level k."""
    at_k = pmf.level_state == k
    return pmf.level_units[at_k], pmf.level_lo[0, at_k], pmf.level_hi[0, at_k]


def _top_levels(k, params):
    """The levels of battery level k, priced in a battery of k cells."""
    return _levels(transmit_row(params.omega, [params.theta], 1, k, MIX), k)


def test_transmit_units_reference_case():
    params = PolicyParams(omega=0.75, theta=0.02)
    # floor(7 * 0.75) - 1 reserve cell = 4 at a gain far above the cutoff
    assert transmit_units(7, 1e9, params, 1) == 4
    assert transmit_units(7, 0.02, params, 1) == 0   # right at the cutoff
    assert transmit_units(1, 5.0, params, 1) == 0    # reserve level only
    assert transmit_units(0, 5.0, params, 1) == 0


def test_transmit_units_zero_cutoff_spends_fully():
    # theta = 0 removes the derating entirely
    assert transmit_units(10, 1e-9, PolicyParams(omega=1.0, theta=0.0), 1) == 9
    assert transmit_units(10, 0.0, PolicyParams(omega=1.0, theta=0.0), 1) == 0


def test_transmit_units_floor_nudge_at_integer_products():
    # 0.58 * 50 evaluates to 28.999999999999996 in floating point; the
    # pre-floor nudge keeps the tier boundary on the intended integer
    assert transmit_units(50, 123.0, PolicyParams(omega=0.58, theta=0.0),
                          1) == 28


def test_transmit_units_rejects_bad_parameters():
    with pytest.raises(ValueError):
        transmit_units(5, 1.0, PolicyParams(omega=1.2, theta=0.1), 1)
    with pytest.raises(ValueError):
        transmit_units(5, 1.0, PolicyParams(omega=0.5, theta=-0.1), 1)


def test_gain_breakpoints_reference_case():
    units, lo, hi = _top_levels(7, PolicyParams(omega=0.75, theta=0.02))
    assert units.tolist() == [1, 2, 3, 4]
    assert lo[0] == pytest.approx(0.02 * 5.25 / (5.25 - 2.0), rel=1e-12)
    assert lo[0] == pytest.approx(0.03231, abs=5e-6)
    assert hi[0] == pytest.approx(0.02 * 5.25 / (5.25 - 3.0), rel=1e-12)
    assert hi[-1] == np.inf  # top tier keeps every higher gain


def test_gain_breakpoints_below_reserve_is_empty():
    pmf = transmit_row(0.75, [0.02], 1, 7, MIX)
    assert _levels(pmf, 1)[0].size == 0
    assert _levels(pmf, 0)[0].size == 0


def test_top_spend_tier_is_unbounded():
    rng = np.random.default_rng(5)
    for _ in range(200):
        params = PolicyParams(omega=float(rng.uniform(0.05, 1.0)),
                              theta=float(rng.uniform(0.001, 2.0)))
        _, _, hi = _top_levels(int(rng.integers(2, 120)), params)
        if hi.size:
            assert hi[-1] == np.inf


def test_breakpoint_intervals_are_contiguous():
    _, lo, hi = _top_levels(33, PolicyParams(omega=0.87, theta=0.31))
    np.testing.assert_allclose(hi[:-1], lo[1:], rtol=1e-12)


def test_spend_matches_interval_lookup():
    """The closed-form gain intervals select exactly the floor-formula spend."""
    rng = np.random.default_rng(17)
    for params in [PolicyParams(0.75, 0.02), PolicyParams(0.35, 0.2),
                   PolicyParams(1.0, 1.0), PolicyParams(0.61, 0.007)]:
        for k in [2, 3, 7, 23, 80]:
            levels = _top_levels(k, params)
            gains = rng.exponential(scale=max(2.0 * params.theta, 1.0),
                                    size=1000)
            for g in gains:
                direct = transmit_units(k, float(g), params, 1)
                from_intervals = 0
                for i, lo, hi in zip(*levels):
                    if lo <= g < hi:
                        from_intervals = i
                        break
                assert direct == from_intervals


def test_spend_respects_battery_causality():
    params = PolicyParams(omega=1.0, theta=0.05)
    gains = np.geomspace(1e-4, 1e4, 50)
    for k in range(201):
        for g in gains:
            alpha = transmit_units(k, float(g), params, 1)
            assert alpha >= 0
            if alpha:
                assert alpha + 1 <= k  # spend plus reserve fits the battery


def test_spend_monotone_in_gain_and_level():
    params = PolicyParams(omega=0.8, theta=0.3)
    gains = np.geomspace(1e-3, 1e3, 121)
    for k in [3, 9, 31, 77]:
        spends = [transmit_units(k, float(g), params, 1) for g in gains]
        assert all(b >= a for a, b in zip(spends, spends[1:]))
    for g in [0.2, 1.1, 8.0]:
        by_k = [transmit_units(k, g, params, 1) for k in range(120)]
        assert all(b >= a for a, b in zip(by_k, by_k[1:]))


def test_transmit_pmf_is_normalized_with_causal_support():
    pmf = transmit_row(0.75, [0.02], 1, 7, MIX)
    assert pmf.level_mass.shape == (1, 2, pmf.level_state.size)
    assert pmf.zero_mass.shape == (1, 2, 8)
    assert np.all(pmf.level_mass >= 0.0) and np.all(pmf.zero_mass >= 0.0)
    for eps in (0, 1):
        spent = np.bincount(pmf.level_state, weights=pmf.level_mass[0, eps],
                            minlength=8)
        np.testing.assert_allclose(pmf.zero_mass[0, eps] + spent, 1.0,
                                   atol=1e-12)
    caps = np.maximum(np.floor(0.75 * np.arange(8) + 1e-9).astype(int) - 1, 0)
    assert np.all(pmf.level_units <= caps[pmf.level_state])
    # at or below the probe reserve nothing is ever spent
    np.testing.assert_array_equal(pmf.zero_mass[0, :, :2], 1.0)


def test_transmit_pmf_zero_support_cases():
    silent = transmit_row(0.0, [0.2], 1, 9, MIX)
    np.testing.assert_array_equal(silent.zero_mass, 1.0)
    lofty = transmit_row(0.9, [1e9], 1, 9, MIX)
    np.testing.assert_allclose(lofty.zero_mass, 1.0, atol=1e-12)
    assert lofty.level_mass.max() < 1e-12


def test_transmit_pmf_matches_sampled_frequencies():
    """Tier probabilities agree with Monte Carlo spend frequencies."""
    k, cells = 60, 80
    pmf = transmit_row(0.35, [0.2], 1, cells, MIX)
    at_k = pmf.level_state == k
    edges = np.append(pmf.level_lo[0, at_k], np.inf)
    rng = np.random.default_rng(23)
    for eps in (0, 1):
        # exponential gains by inverse CDF
        draws = -MIX.means[eps] * np.log1p(-rng.random(1_000_000))
        spend = np.searchsorted(edges, draws, side="right")  # 0: below tier 1
        freq = np.bincount(spend, minlength=edges.size) / draws.size
        want = np.append(pmf.zero_mass[0, eps, k], pmf.level_mass[0, eps, at_k])
        tv = 0.5 * np.abs(freq - want).sum()
        assert tv < 0.005


def _edge_formula(omega, thetas, reserve, k, i):
    """Gain edges theta*k*omega/d and theta*k*omega/(d - 1) of spend i at
    battery level k, d = k*omega - reserve - i, each edge computed on its
    own; +inf where a denominator is within 1e-12 of zero."""
    komega = omega * k
    num = np.asarray(thetas)[:, None] * komega
    d = komega - reserve - i
    return tuple(np.where(den > 1e-12, num / np.where(den > 0, den, 1.0),
                          np.inf) for den in (d, d - 1.0))


def test_level_mass_equals_four_gain_cdf_calls():
    """One CDF pass over the lower edges prices what four calls did, bit
    for bit, and each state's zero mass is the CDF at its first edge."""
    rng = np.random.default_rng(8)
    cases = [(80, 1, 1.0, (0.0, 0.02, 0.2, 0.8, 5.0, 1e3), MIX),
             (400, 1, 0.7, (0.2,), MIX),
             (30, 0, 0.5, (0.0, 0.1), GainDistribution((1.0, 0.0), (0.0, 0.0))),
             (50, 2, 0.0, (0.3,), MIX),
             # 0.58 * 50 is a hair below 29, and reserve 3 keeps the
             # lowest states of a 12-cell battery from ever spending
             (50, 0, 0.58, (0.0, 0.2, 0.9, 4.0), MIX),
             (12, 3, 1.0, (0.05, 2.0), MIX)]
    for _ in range(12):
        cells = int(rng.integers(12, 401))
        means = (float(10.0 ** rng.uniform(-2, 1)),
                 float(10.0 ** rng.uniform(-2, 1)) if rng.integers(4) else 0.0)
        thetas = tuple(np.sort(10.0 ** rng.uniform(-3, 1, rng.integers(1, 4))))
        cases.append((cells, int(rng.integers(0, 4)), float(rng.uniform(0, 1)),
                      thetas, GainDistribution((0.8, 0.2), means)))
    def cdf(x, mean):
        """One law's CDF, written as one expression."""
        x = np.maximum(x, 0.0)
        if mean <= 0.0:
            return np.where(x > 0.0, 1.0, 0.0)
        return np.where(np.isinf(x), 1.0, -np.expm1(-x / mean))

    for cells, reserve, omega, thetas, dist in cases:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            pmf = transmit_row(omega, thetas, reserve, cells, dist)
        lo, hi = _edge_formula(omega, thetas, reserve, pmf.level_state,
                               pmf.level_units)
        assert (pmf.level_lo == lo).all() and (pmf.level_hi == hi).all()
        assert (pmf.level_mass >= 0.0).all()
        states = np.arange(cells + 1)
        spends = np.floor(omega * states + 1e-9) - reserve >= 1
        first_lo = _edge_formula(omega, thetas, reserve, states[spends], 1)[0]
        np.testing.assert_array_equal(pmf.zero_mass[..., ~spends], 1.0)
        for eps in (0, 1):
            assert (pmf.zero_mass[:, eps, spends]
                    == gain_cdf(dist, first_lo, eps)).all()
            for edge in (pmf.level_lo, pmf.level_hi):
                assert (gain_cdf(dist, edge, eps)
                        == cdf(edge, dist.means[eps])).all()
            q = (np.asarray(gain_cdf(dist, pmf.level_hi, eps))
                 - np.asarray(gain_cdf(dist, pmf.level_lo, eps)))
            want = np.where(pmf.level_lo >= pmf.level_hi, 0.0,
                            np.maximum(q, 0.0))
            assert (pmf.level_mass[:, eps, :] == want).all()


def _check_skeleton_guarantees(omega, reserve, cells):
    """What the battery chain relies on in a level skeleton unchecked."""
    skeleton = level_skeleton(omega, reserve, cells)
    state, units = skeleton.moves
    rows = state - units
    # no move spends more than its level holds, nor into the reserve
    assert (rows >= 0).all()
    assert (rows[units > 0] >= reserve).all()
    # each level's lowest row never falls as the level grows
    levels = np.arange(cells + 1)
    assert (np.diff(levels - skeleton.caps) >= 0).all()
    largest = np.zeros(cells + 1, dtype=int)
    np.maximum.at(largest, state, units)
    np.testing.assert_array_equal(skeleton.caps, largest)
    np.testing.assert_array_equal(skeleton.scatter,
                                  rows * (cells + 1) + state)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data(),
       omega=st.one_of(st.sampled_from((0.35, 0.7, 1.0)),
                       st.floats(0.0, 1.0)))
def test_level_skeleton_guarantees_what_the_chain_relies_on(data, omega):
    cells = data.draw(st.integers(1, 400), label="cells")
    reserve = data.draw(st.integers(0, cells - 1), label="reserve")
    _check_skeleton_guarantees(omega, reserve, cells)
