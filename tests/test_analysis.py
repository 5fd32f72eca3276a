"""End-to-end analytic chain and network assembly."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehcr.analysis import analyze, analyze_su
from ehcr.battery import TransitionBuilder, battery_outage
from ehcr.model import (NetworkModel, PolicyParams, SuProfile, SystemConfig,
                        harvest_pmf)
from ehcr.optimizer import SuEvaluator
from ehcr.policy import level_skeleton, transmit_row
from ehcr.probing import GainDistribution, estimator_variances, gain_cdf
from ehcr.rate import antiderivative_m
from ehcr.sensing import sensing_stats


def _gth_stationary(matrix):
    """Stationary law of a column-stochastic chain by GTH state reduction.

    Grassmann, Taksar & Heyman (Oper. Res. 33(5), 1985): the chain is
    censored on ever fewer states with sums and products of nonnegative
    numbers only, so even masses far below rounding keep their relative
    accuracy.  States go from level 0 upward: a sensed-busy frame can
    raise every level below K (the builder checks it), so each level's
    mass towards the levels above it, the divisor, is positive, where a
    level's mass downward can be zero.  Runs in the matrix's own float
    type.  Too slow for the hot path, exact enough for an oracle.
    """
    q = np.array(matrix).T  # q[i, j] = Pr{i -> j}
    n = q.shape[0]
    for m in range(n - 1):
        q[m + 1:, m] /= q[m, m + 1:].sum()
        q[m + 1:, m + 1:] += np.outer(q[m + 1:, m], q[m, m + 1:])
    pi = np.zeros(n, dtype=q.dtype)
    pi[-1] = 1.0
    for m in range(n - 2, -1, -1):
        pi[m] = pi[m + 1:] @ q[m + 1:, m]
    return pi / pi.sum()


def test_reference_point_scalars(reference_model, reference_su):
    """Frozen outputs of the default single-user setup.

    The values were established independently: the rate against per-tier
    quadrature, the battery mean and the transmission outage against long
    Monte Carlo runs of the slot dynamics.  The steady state and the
    battery outage (about 5e-63 here) are checked against a GTH solve,
    which the balance solve matches up to its rounding.
    """
    assert reference_su.rate.total == pytest.approx(28946.996377, rel=1e-9)
    assert reference_su.interference == pytest.approx(0.856673041275,
                                                      rel=1e-9)
    assert reference_su.chain.avg_energy == pytest.approx(68.8274179930,
                                                          rel=1e-9)
    gth = _gth_stationary(reference_su.chain.matrix)
    assert np.abs(reference_su.chain.steady_state - gth).max() <= 1e-14
    assert abs(reference_su.chain.outage - battery_outage(
        gth, reference_model.config.probe_cells)) <= 1e-15
    assert reference_su.transmission_outage == pytest.approx(0.103582302708,
                                                             rel=1e-9)


def test_battery_mean_tracks_policy_aggressiveness(reference_model):
    """Spending more per frame drains the average level and vice versa."""
    greedy = analyze_su(reference_model, 0, PolicyParams(0.45, 0.2))
    frugal = analyze_su(reference_model, 0, PolicyParams(0.30, 0.2))
    assert greedy.chain.avg_energy == pytest.approx(58.6260623946, rel=1e-9)
    assert frugal.chain.avg_energy == pytest.approx(73.5316808716, rel=1e-9)
    assert frugal.chain.avg_energy > greedy.chain.avg_energy


def test_network_totals_assemble_per_user_pieces():
    model = NetworkModel(
        config=SystemConfig(interference_cap=1.0),
        profiles=(SuProfile(), SuProfile(harvest_rate=8.0)))
    params = [PolicyParams(0.35, 0.2), PolicyParams(0.5, 0.1)]
    net = analyze(model, params)
    assert len(net.sus) == 2
    assert net.breakdown.sum_rate == pytest.approx(
        math.fsum(r.total for r in net.breakdown.per_su), rel=1e-14)
    assert net.breakdown.aic_lhs == pytest.approx(
        math.fsum(net.breakdown.per_su_interference), rel=1e-14)
    for su, p in zip(net.sus, params):
        assert su.params == p
        single = analyze_su(model, su.index, p)
        assert su.rate.total == single.rate.total
        assert su.interference == single.interference
    # the assembled load (~1.39 W) exceeds the 1 W budget
    assert not net.breakdown.aic_satisfied


def test_network_respects_a_loose_interference_cap():
    model = NetworkModel(config=SystemConfig(interference_cap=10.0),
                         profiles=(SuProfile(),))
    net = analyze(model, [PolicyParams(0.35, 0.2)])
    assert net.breakdown.aic_satisfied


def test_wrong_parameter_count_raises():
    model = NetworkModel(config=SystemConfig(),
                         profiles=(SuProfile(), SuProfile()))
    with pytest.raises(ValueError):
        analyze(model, [PolicyParams(0.35, 0.2)])


def test_ideal_sensing_removes_all_interference():
    model = NetworkModel(config=SystemConfig(ideal_sensing=True),
                         profiles=(SuProfile(), SuProfile(harvest_rate=8.0)))
    net = analyze(model, [PolicyParams(0.5, 0.1)] * 2)
    assert net.breakdown.aic_lhs == 0.0
    assert net.breakdown.aic_satisfied


# ------------------------------------------ steady state against GTH ----

def _priced_and_exact_steady_state(cells, reserve, harvest_rate, omega,
                                   theta):
    """The priced steady state of one policy, and a long-double GTH solve
    of ``table.T @ M`` formed in long double from the same inputs."""
    model = NetworkModel(
        config=SystemConfig(battery_cells=cells, probe_cells=reserve),
        profiles=(SuProfile(harvest_rate=harvest_rate),))
    evaluator = SuEvaluator(model, 0)
    pmf = transmit_row(omega, [theta], reserve, cells, evaluator.gain)
    got = evaluator.price_row(pmf).steady_state[0]
    ld = np.longdouble
    state, units = pmf.skeleton.moves
    mix = np.zeros((cells + 1 + reserve, cells + 1), dtype=ld)
    mix[state - units, state] = (ld(evaluator.sensing.pi_hat_idle)
                                 * pmf.idle_law[0].astype(ld))
    levels = np.arange(cells + 1)
    mix[levels + reserve, levels] += ld(evaluator.sensing.pi_hat_busy)
    table = evaluator._builder._table.astype(ld)
    return got, _gth_stationary(np.einsum("sm,sj->mj", table, mix))


def _check_entrywise(got, want):
    """Every entry within 1e-12 relative; below the least normal double,
    where a double holds fewer digits, within that number absolute."""
    gap = np.abs(got - want)
    assert (gap <= 1e-12 * want + np.finfo(float).tiny).all(), (
        float((gap / np.maximum(want, np.finfo(float).tiny)).max()))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(cells=st.integers(4, 160), reserve=st.integers(0, 3),
       harvest_rate=st.floats(0.4, 40.0), omega=st.floats(0.0, 1.0),
       theta=st.floats(0.0, 5.0))
def test_steady_state_matches_long_double_gth(cells, reserve, harvest_rate,
                                              omega, theta):
    _check_entrywise(*_priced_and_exact_steady_state(
        cells, reserve, harvest_rate, omega, theta))


@pytest.mark.parametrize("reserve, harvest_rate, omega", [
    (1, 15.0, 0.3), (1, 15.0, 0.7), (3, 4.0, 0.45), (2, 0.91, 0.61)])
def test_k400_steady_state_matches_long_double_gth(reserve, harvest_rate,
                                                   omega):
    _check_entrywise(*_priced_and_exact_steady_state(
        400, reserve, harvest_rate, omega, 0.2))


# ------------------------------------------- dense-psi reference chain ----

def _dense_chain(model, params):
    """The analytic chain built from the dense (2, K+1, K+1) spend law.

    Spend levels (with the policy row's gain edges) become a dense psi
    whose zero column takes what the positive levels leave; the
    transition matrix is ``TransitionBuilder.matrix`` over every move a
    policy may make, the skeleton of omega = 1's spends 0..max(j -
    reserve, 0) at level j (checked against a brute-force assembly in
    test_battery); the steady state is
    a GTH solve of it; every term then reads psi.
    """
    cfg, prof = model.config, model.profiles[0]
    k, r = cfg.battery_cells, cfg.probe_cells
    sen = sensing_stats(cfg, prof)
    est = estimator_variances(cfg, prof, sen)
    dist = GainDistribution.from_stats(est, sen)
    row = transmit_row(params.omega, [params.theta], r, k, dist)
    states, units = row.level_state, row.level_units
    lo, hi = row.level_lo[0], row.level_hi[0]
    psi = np.zeros((2, k + 1, k + 1))
    for eps in (0, 1):
        q = gain_cdf(dist, hi, eps) - gain_cdf(dist, lo, eps)
        psi[eps, states, units] = np.where(lo >= hi, 0.0, np.maximum(q, 0.0))
        psi[eps, :, 0] = np.maximum(1.0 - psi[eps, :, 1:].sum(axis=1), 0.0)

    builder = TransitionBuilder(harvest_pmf(prof.harvest_rate, k), k, r)
    every_move = level_skeleton(1.0, r, k)
    phi = builder.matrix(psi[0][every_move.moves], sen.pi_hat_idle,
                         sen.pi_hat_busy, every_move)
    zeta = _gth_stationary(phi)

    rate = 0.0
    for eps, joint, err, mean, extra in (
            (0, sen.beta0, est.var_err_h0, est.var_hat_h0, 0.0),
            (1, sen.beta1, est.var_err_h1, est.var_hat_h1,
             est.pu_interference_var)):
        if joint <= 0.0 or mean <= 0.0 or not states.size:
            continue
        power = units * cfg.unit_power
        snr = power / (err * power + prof.ap_noise + extra)
        chunk = (antiderivative_m(hi, snr, mean)
                 - antiderivative_m(lo, snr, mean))
        chunk = np.where(lo >= hi, 0.0, np.maximum(chunk, 0.0))
        rate += (cfg.data_fraction * cfg.bandwidth * joint
                 * np.dot(zeta[states], chunk))
    data_power = np.sum(zeta[:, None] * psi[1] * np.arange(k + 1)
                        * cfg.unit_power)
    load = (sen.beta1 * prof.su_pu_var
            * (data_power + cfg.probe_fraction * cfg.probe_power))
    ks = np.arange(r + 1, k + 1)
    silent = (zeta[:r + 1].sum()
              + np.dot(zeta[ks], sen.omega0 * psi[0, ks, 0]
                       + sen.omega1 * psi[1, ks, 0]))
    return rate, load, np.dot(zeta, np.arange(k + 1)), zeta[:r + 1].sum(), silent


def _dense_settings():
    rng = np.random.default_rng(71)
    settings = []
    for _ in range(20):
        cells = int(rng.integers(12, 401))
        config = SystemConfig(battery_cells=cells,
                              probe_cells=int(rng.integers(0, 4)))
        profile = SuProfile(harvest_rate=float(10.0 ** rng.uniform(-0.3, 1.5)),
                            su_ap_var=float(10.0 ** rng.uniform(-1, 1)))
        params = PolicyParams(float(rng.uniform(0.0, 1.0)),
                              float(10.0 ** rng.uniform(-3, 0.5)))
        settings.append((config, profile, params, bool(rng.integers(2))))
    low_harvest = (SystemConfig(battery_cells=20, probe_cells=3),
                   SuProfile(harvest_rate=0.8))
    settings += [low_harvest + (PolicyParams(0.5, 0.1), False),
                 (SystemConfig(), SuProfile(), PolicyParams(0.45, 0.2), True),
                 (SystemConfig(), SuProfile(), PolicyParams(0.0, 0.2), False),
                 low_harvest + (PolicyParams(0.0, 0.1), False)]
    # theta at the search's default cap
    config, profile = SystemConfig(battery_cells=40), SuProfile()
    cap = SuEvaluator(NetworkModel(config=config, profiles=(profile,)),
                      0).default_theta_cap()
    settings.append((config, profile, PolicyParams(0.7, cap), False))
    return settings


@pytest.mark.parametrize("config, profile, params, ideal", _dense_settings())
def test_chain_matches_the_dense_psi_reference(config, profile, params, ideal):
    config = dataclasses.replace(config, ideal_sensing=ideal)
    model = NetworkModel(config=config, profiles=(profile,))
    su = analyze_su(model, 0, params)
    rate, load, energy, battery, silent = _dense_chain(model, params)
    assert su.rate.total == pytest.approx(rate, rel=1e-12, abs=0.0)
    assert su.interference == pytest.approx(load, rel=1e-12, abs=0.0)
    assert su.chain.avg_energy == pytest.approx(energy, rel=1e-12, abs=0.0)
    assert su.chain.outage == pytest.approx(battery, rel=0.0, abs=1e-13)
    assert su.transmission_outage == pytest.approx(silent, rel=0.0, abs=1e-13)


def test_kept_chain_matrix_outlives_later_pricing():
    model = NetworkModel(config=SystemConfig(battery_cells=40),
                         profiles=(SuProfile(), SuProfile(harvest_rate=6.0)))
    params = PolicyParams(0.55, 0.3)
    kept = analyze_su(model, 0, params)
    before = kept.chain.matrix.copy()
    # the matrix is the analysis's own, not a view into the evaluator's
    # work arrays
    assert kept.chain.matrix.flags.owndata
    for omega, theta in ((0.2, 0.05), (0.9, 1.5), (0.55, 0.3)):
        analyze_su(model, 1, PolicyParams(omega, theta))
    evaluator = SuEvaluator(model, 0)
    evaluator.evaluate_row(0.8, [0.1, 0.4, 2.0])
    assert kept.chain.matrix.tobytes() == before.tobytes()
    assert (kept.chain.matrix.tobytes()
            == analyze_su(model, 0, params).chain.matrix.tobytes())
