"""End-to-end acceptance checks, one test per shipped guarantee.

Every test measures its own wall-clock budget and fails with the
numbers in hand when a guarantee is missed.  conftest.py prints a
one-line PASS/FAIL summary per criterion after the run.
"""
import math
import time

import mpmath
import numpy as np
from scipy.integrate import quad

from ehcr import rate
from ehcr.analysis import analyze, analyze_su
from ehcr.battery import TransitionBuilder, steady_state
from ehcr.model import (NetworkModel, PolicyParams, SuProfile, SystemConfig,
                        harvest_pmf)
from ehcr.optimizer import SearchConfig, SuEvaluator, objective_surface, solve_p1
from ehcr.policy import transmit_row
from ehcr.probing import GainDistribution, estimator_variances, gain_cdf
from ehcr.rate import (antiderivative_m, interference_load, level_gains,
                       level_weights, rate_sum)
from ehcr.sensing import sensing_stats
from ehcr.sim import compare, simulate


# ------------------------------------------------------------------ helpers

def _random_transition_systems():
    """100 seeded random valid setups (K <= 100) run through the full
    model -> sensing -> estimator -> policy -> transition pipeline."""
    rng = np.random.default_rng(2024)
    systems = []
    for _ in range(100):
        cells = int(rng.integers(1, 101))
        config = SystemConfig(
            battery_cells=cells,
            probe_cells=int(rng.integers(0, min(cells, 5))),
            prior_idle=float(rng.uniform(0.1, 0.9)),
            target_detection=float(rng.uniform(0.55, 0.99)),
            energy_unit=float(10.0 ** rng.uniform(-3, -1)),
            pu_power=float(10.0 ** rng.uniform(-1, 0.5)))
        profile = SuProfile(
            su_ap_var=float(10.0 ** rng.uniform(-0.5, 1.0)),
            pu_su_var=float(10.0 ** rng.uniform(-0.5, 0.5)),
            su_pu_var=float(10.0 ** rng.uniform(-0.5, 0.5)),
            sensing_noise=float(10.0 ** rng.uniform(-0.5, 1.0)),
            ap_noise=float(10.0 ** rng.uniform(-0.5, 1.0)),
            harvest_rate=float(10.0 ** rng.uniform(-1.3, 1.6)))
        params = PolicyParams(omega=float(rng.uniform(0.0, 1.0)),
                              theta=float(10.0 ** rng.uniform(-3, 0.5)))
        sensing = sensing_stats(config, profile)
        est = estimator_variances(config, profile, sensing)
        dist = GainDistribution.from_stats(est, sensing)
        pmf = transmit_row(params.omega, [params.theta], config.probe_cells,
                           cells, dist)
        builder = TransitionBuilder(harvest_pmf(profile.harvest_rate, cells),
                                    cells, config.probe_cells)
        phi = builder.matrix(pmf.idle_law, sensing.pi_hat_idle,
                             sensing.pi_hat_busy, pmf.moves)[0]
        systems.append((pmf, phi))
    return systems


def _power_iteration_oracle(matrix, step_tol=1e-13, max_doublings=60):
    """Stationary vector by repeated squaring, independent of the library
    solver: renormalize columns after each squaring and propagate the
    uniform start until the iterates stop moving."""
    n = matrix.shape[0]
    power = matrix.copy()
    vec = np.full(n, 1.0 / n)
    prev = power @ vec
    for _ in range(max_doublings):
        power = power @ power
        power /= power.sum(axis=0, keepdims=True)
        nxt = power @ vec
        if np.max(np.abs(nxt - prev)) < step_tol:
            return nxt
        prev = nxt
    return prev


# ------------------------------------------------------- criterion 1 and 2

def test_criterion_1_random_configs_are_stochastic():
    start = time.perf_counter()
    systems = _random_transition_systems()
    assert len(systems) == 100
    for pmf, phi in systems:
        col_dev = np.abs(phi.sum(axis=0) - 1.0).max()
        assert col_dev <= 1e-12, "column sums off by %.3e" % col_dev
        # each level's zero spend plus its positive levels, per occupancy
        spent = np.stack([np.bincount(pmf.level_state, weights=mass,
                                      minlength=pmf.cells + 1)
                          for mass in pmf.level_mass[0]])
        law_dev = np.abs(pmf.zero_mass[0] + spent - 1.0).max()
        assert law_dev <= 1e-12, "spend distribution off by %.3e" % law_dev
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, "runtime %.1f s exceeds the 10 s budget" % elapsed


def test_criterion_2_steady_state_matches_power_iteration():
    start = time.perf_counter()
    for _, phi in _random_transition_systems():
        zeta = steady_state(phi)
        residual = np.abs(phi @ zeta - zeta).max()
        assert residual < 1e-9, "fixed-point residual %.3e" % residual
        gap = np.abs(zeta - _power_iteration_oracle(phi)).max()
        assert gap < 1e-8, "closed form vs power iteration %.3e" % gap
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, "runtime %.1f s exceeds the 10 s budget" % elapsed


# ----------------------------------------------------------- criterion 3

def test_criterion_3_simulation_matches_analytic_chain():
    """A million-slot event simulation at the default single-user setup
    must match the analytic chain: occupancy within 0.01 total variation,
    averages within 1% relative, outage probabilities within 0.005."""
    start = time.perf_counter()
    model = NetworkModel(config=SystemConfig(), profiles=(SuProfile(),))
    params = [PolicyParams(omega=0.35, theta=0.2)]
    reference = analyze(model, params)
    trace = simulate(model, params, 1_000_000, seed=1)
    report = compare(trace, reference)
    assert report.passed, "\n".join(report.lines())
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, "runtime %.1f s exceeds the 60 s budget" % elapsed


# ----------------------------------------------------------- criterion 4

def test_criterion_4_special_function_accuracy():
    start = time.perf_counter()

    # the rate bound's exp(t)*E1(t) against arbitrary-precision reference
    ts = np.geomspace(1e-8, 700.0, 250)
    got = rate._scaled_e1(ts)
    for t, value in zip(ts, got):
        t_mp = mpmath.mpf(t)
        want = float(mpmath.exp(t_mp) * mpmath.e1(t_mp))
        rel = abs(value - want) / abs(want)
        assert rel < 1e-10, "exp(t)E1(t) at t=%g off by rel %.3e" % (t, rel)

    # rate antiderivative against adaptive quadrature
    rng = np.random.default_rng(7)
    for _ in range(1000):
        lo = rng.uniform(0.0, 8.0)
        hi = lo + rng.uniform(1e-3, 20.0)
        snr = 10.0 ** rng.uniform(-3, 3)
        mean = 10.0 ** rng.uniform(-2, 2)
        analytic = (antiderivative_m(hi, snr, mean)
                    - antiderivative_m(lo, snr, mean))
        numeric, _ = quad(lambda g: math.log2(1.0 + snr * g)
                          * math.exp(-g / mean) / mean, lo, hi,
                          epsabs=1e-12, epsrel=1e-12, limit=300)
        dev = abs(analytic - numeric)
        assert dev < 1e-8, ("segment [%g, %g) snr=%g mean=%g off by %.3e"
                            % (lo, hi, snr, mean, dev))

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, "runtime %.1f s exceeds the 10 s budget" % elapsed


# ----------------------------------------------------------- criterion 5

# Reference mean battery levels for the four policy presets below [cells],
# at the default configuration (K = 80, fs = 100 kHz).  Established with
# the slot simulator, independently of the analytic chain:
# simulate(..., slots=1_100_000, seed=5), one run per preset, the first
# 100,000 slots dropped as burn-in and the mean of `state_before` taken
# over the remaining 1,000,000.  Batch-means standard errors (1000 batches
# of 1000 slots; Flegal & Jones, Ann. Statist. 38(2), 2010) are
# 0.027, 0.012, 0.022 and 0.011 cells.
_REFERENCE_MEANS = (58.61, 73.53, 64.57, 75.01)
_PRESET_POLICIES = (PolicyParams(omega=0.45, theta=0.2),
                    PolicyParams(omega=0.30, theta=0.2),
                    PolicyParams(omega=0.35, theta=0.1),
                    PolicyParams(omega=0.35, theta=0.5))


def test_criterion_5_reference_battery_means():
    """The four preset policies must order their mean battery levels the
    documented way at every sampling rate; some sampling rate must land
    all four means within 15% of the simulated references; and the
    near-empty / near-full split of the references must hold at every
    sampling rate."""
    start = time.perf_counter()
    tables = {}
    for fs in (10e3, 100e3, 1000e3):
        model = NetworkModel(config=SystemConfig(sampling_frequency=fs),
                             profiles=(SuProfile(),))
        tables[fs] = [analyze_su(model, 0, p).chain.avg_energy
                      for p in _PRESET_POLICIES]

    # orderings: aggressive spending drains the battery, high cutoffs save it
    for fs, means in sorted(tables.items()):
        assert means[0] < means[1], (
            "fs=%g: omega=0.45 should sit below omega=0.30" % fs)
        assert means[2] < means[3], (
            "fs=%g: theta=0.1 should sit below theta=0.5" % fs)

    problems = []
    if not any(all(abs(m - t) <= 0.15 * t
                   for m, t in zip(means, _REFERENCE_MEANS))
               for means in tables.values()):
        problems.append("no sampling rate lands all four means within "
                        "15%% of the references %s:" % (_REFERENCE_MEANS,))
        for fs, means in sorted(tables.items()):
            problems.append("  fs=%6g Hz: computed %s"
                            % (fs, [round(m, 2) for m in means]))

    # regime split: each mean sits on the same side of K/2 as its reference
    half = SystemConfig().battery_cells / 2.0
    expected = [t < half for t in _REFERENCE_MEANS]
    for fs, means in sorted(tables.items()):
        pattern = [m < half for m in means]
        if pattern != expected:
            problems.append(
                "fs=%6g Hz: means %s do not split near-empty/near-full as "
                "%s around %g cells" % (fs, [round(m, 2) for m in means],
                                        expected, half))

    assert not problems, "\n".join(problems)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, "runtime %.1f s exceeds the 120 s budget" % elapsed


def test_reference_means_come_from_the_simulator():
    """Criterion 5's references follow from their documented recipe."""
    model = NetworkModel(config=SystemConfig(), profiles=(SuProfile(),))
    means = []
    for params in _PRESET_POLICIES:
        trace = simulate(model, [params], 1_100_000, seed=5)
        means.append(float(trace.sus[0].state_before[100_000:].mean()))
    assert tuple(round(m, 2) for m in means) == _REFERENCE_MEANS, means


# ----------------------------------------------------------- criterion 6

def _interior_argmax(values):
    """Index of the maximum, asserting it sits strictly inside the grid."""
    k = int(np.argmax(values))
    assert 0 < k < len(values) - 1, (
        "maximum at index %d of %d is not interior: %s"
        % (k, len(values), np.array2string(np.asarray(values), precision=2)))
    assert values[k] > values[0] and values[k] > values[-1]
    return k


def test_criterion_6_qualitative_trends():
    start = time.perf_counter()

    # (i) the rate bound peaks strictly inside both policy coordinates
    model = NetworkModel(config=SystemConfig(), profiles=(SuProfile(),))
    omega_rates = [analyze_su(model, 0, PolicyParams(o, 0.2)).rate.total
                   for o in np.linspace(0.05, 1.0, 20)]
    _interior_argmax(omega_rates)
    theta_rates = [analyze_su(model, 0, PolicyParams(0.35, t)).rate.total
                   for t in np.geomspace(1e-3, 5.0, 25)]
    _interior_argmax(theta_rates)

    # (ii) sensing-duration sweep: detection gains beat lost airtime only
    # up to an interior optimum
    for rho in (15.0, 16.0):
        rates = []
        for tau in np.linspace(0.2e-3, 5e-3, 25):
            cfg = SystemConfig(sensing_duration=tau, sampling_frequency=1e4)
            m = NetworkModel(config=cfg,
                             profiles=(SuProfile(harvest_rate=rho),))
            rates.append(analyze_su(m, 0, PolicyParams(0.35, 0.2)).rate.total)
        _interior_argmax(rates)

    # (iii) probe-reserve sweep: pilot quality beats withheld energy only
    # up to an interior optimum
    for rho in (18.0, 20.0):
        rates = []
        for reserve in range(1, 9):
            cfg = SystemConfig(sampling_frequency=3e3, probe_cells=reserve)
            prof = SuProfile(sensing_noise=5.0, ap_noise=5.0,
                             harvest_rate=rho)
            m = NetworkModel(config=cfg, profiles=(prof,))
            rates.append(analyze_su(m, 0, PolicyParams(0.35, 0.2)).rate.total)
        _interior_argmax(rates)

    # (iv) + (v) interference-budget sweep: optimized sum rate rises to a
    # knee then stays flat within 0.1%; mean transmission outage falls
    # and stays flat beyond the knee
    caps = (0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0)
    profiles = (SuProfile(su_ap_var=2.0, pu_su_var=1.0, su_pu_var=1.0),
                SuProfile(su_ap_var=2.2, pu_su_var=0.8, su_pu_var=0.5),
                SuProfile(su_ap_var=2.1, pu_su_var=1.2, su_pu_var=0.8))
    search = SearchConfig(omega_points=11, theta_points=13, refine_levels=2,
                          top_candidates=2)
    models = [NetworkModel(config=SystemConfig(interference_cap=cap),
                           profiles=profiles) for cap in caps]
    evaluators = [SuEvaluator(models[0], i) for i in range(len(profiles))]
    rates, outages = [], []
    for m in models:
        result = solve_p1(m, search, evaluators=evaluators)
        assert result.feasible
        assert result.aic_lhs <= m.config.interference_cap * (1 + 1e-12)
        rates.append(result.sum_rate)
        outages.append(float(np.mean(
            [analyze_su(m, i, result.params[i]).transmission_outage
             for i in range(len(profiles))])))
    rates = np.asarray(rates)
    outages = np.asarray(outages)
    assert np.all(np.diff(rates) >= -1e-9 * rates[-1]), (
        "sum rate not non-decreasing in the budget: %s" % rates)
    assert rates[0] < 0.5 * rates[-1], "no knee: tight budget does not bind"
    tail = rates[-3:]
    assert tail.max() - tail.min() <= 1e-3 * rates[-1], (
        "no flat region beyond the knee: %s" % rates)
    assert np.all(np.diff(outages) <= 1e-9), (
        "outage not non-increasing in the budget: %s" % outages)
    otail = outages[-3:]
    assert otail.max() - otail.min() <= 1e-3, (
        "outage not flat beyond the knee: %s" % outages)

    # (vi) more battery cells never lower the optimized rate
    cell_rates = []
    for cells in (5, 10, 20, 30, 40, 60, 80):
        cfg = SystemConfig(battery_cells=cells, interference_cap=50.0)
        m = NetworkModel(config=cfg, profiles=(SuProfile(),))
        cell_rates.append(solve_p1(m, search).sum_rate)
    cell_rates = np.asarray(cell_rates)
    assert np.all(np.diff(cell_rates) >= -1e-9 * cell_rates[-1]), (
        "optimized rate not non-decreasing in capacity: %s" % cell_rates)
    assert cell_rates[-1] > cell_rates[0]

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, "runtime %.1f s exceeds the 600 s budget" % elapsed


# ----------------------------------------------------------- criterion 7

def test_criterion_7_search_matches_exhaustive_grid():
    """The policy search must land within one grid cell of a 201 x 201
    brute-force argmax, within 0.1% of its best objective, and respect
    the interference cap, on a capped and an uncapped instance."""
    start = time.perf_counter()
    cfg = SystemConfig(battery_cells=12)
    prof = SuProfile(harvest_rate=3.0)
    omegas = np.linspace(0.0, 1.0, 201)
    thetas = np.geomspace(1e-3, 20.0, 201)

    # price every grid point straight off a dense spend law over every
    # move a policy may make (spends 0..max(j - reserve, 0) at level j),
    # batching the steady-state solves; each solution is verified as a
    # fixed point
    sensing = sensing_stats(cfg, prof)
    est = estimator_variances(cfg, prof, sensing)
    dist = GainDistribution.from_stats(est, sensing)
    builder = TransitionBuilder(
        harvest_pmf(prof.harvest_rate, cfg.battery_cells),
        cfg.battery_cells, cfg.probe_cells)
    n = cfg.battery_cells + 1
    eye = np.eye(n)
    levels = np.arange(n)
    moves = np.nonzero(levels <= np.maximum(levels[:, None]
                                            - cfg.probe_cells, 0))
    rates = np.empty((len(omegas), len(thetas)))
    loads = np.empty_like(rates)
    for a, omega in enumerate(omegas):
        row = transmit_row(float(omega), thetas, cfg.probe_cells,
                           cfg.battery_cells, dist)
        psi = np.zeros((len(thetas), n, n))
        psi[:, :, 0] = row.zero_mass[:, 0]
        psi[:, row.level_state, row.level_units] = row.level_mass[:, 0]
        mats = builder.matrix(psi[:, moves[0], moves[1]],
                              sensing.pi_hat_idle, sensing.pi_hat_busy, moves)
        zetas = np.linalg.solve(mats - eye + 1.0,
                                np.ones((len(thetas), n, 1)))[..., 0]
        residual = np.abs(np.einsum("bij,bj->bi", mats, zetas) - zetas).max()
        assert residual < 1e-9, "batched steady state off by %.3e" % residual
        zetas = np.clip(zetas, 0.0, None)
        zetas /= zetas.sum(axis=1, keepdims=True)
        weights = level_weights(zetas, row)
        rates[a] = rate_sum(cfg, sensing, row,
                            level_gains(cfg, prof, sensing, est, row),
                            weights).total
        loads[a] = interference_load(cfg, prof, sensing, row, weights)

    # the brute grid and the solver's evaluator must price points alike
    free = NetworkModel(config=cfg, profiles=(prof,))
    sub_rates, sub_loads = objective_surface(free, omegas[::20], thetas[::20])
    assert np.abs(sub_rates - rates[::20, ::20]).max() <= 1e-9 * rates.max()
    assert np.abs(sub_loads - loads[::20, ::20]).max() <= 1e-9 * loads.max()

    cell_w = omegas[1] - omegas[0]
    cell_h = math.log(thetas[1] / thetas[0])

    # unconstrained instance: argmax proximity and objective quality
    bi, bj = np.unravel_index(int(np.argmax(rates)), rates.shape)
    result = solve_p1(free)
    got = result.params[0]
    assert abs(got.omega - omegas[bi]) <= cell_w + 1e-12, (
        "omega %.4f vs brute %.4f" % (got.omega, omegas[bi]))
    assert abs(math.log(got.theta / thetas[bj])) <= cell_h + 1e-12, (
        "theta %.5f vs brute %.5f" % (got.theta, thetas[bj]))
    assert result.sum_rate >= (1.0 - 1e-3) * rates[bi, bj], (
        "objective %.4f vs brute %.4f" % (result.sum_rate, rates[bi, bj]))
    assert result.feasible

    # capped instance: objective quality among feasible points, cap held
    cap = 0.15
    capped = NetworkModel(
        config=SystemConfig(battery_cells=12, interference_cap=cap),
        profiles=(prof,))
    best_feasible = rates[loads <= cap].max()
    result = solve_p1(capped)
    assert result.feasible
    assert result.aic_lhs <= cap + 1e-12, (
        "returned point violates the cap: %.6f > %.2f" % (result.aic_lhs, cap))
    assert result.sum_rate >= (1.0 - 1e-3) * best_feasible, (
        "objective %.4f vs brute %.4f" % (result.sum_rate, best_feasible))

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, "runtime %.1f s exceeds the 60 s budget" % elapsed


# ----------------------------------------------------------- criterion 8

def test_criterion_8_ideal_sensing_degeneracy():
    """Perfect detection removes every busy-band path: the interference
    side vanishes identically and the gain mixture collapses to the
    idle-band exponential, so any cap is met."""
    cfg = SystemConfig(interference_cap=1e-9, ideal_sensing=True)
    profiles = (SuProfile(), SuProfile(harvest_rate=8.0))
    model = NetworkModel(config=cfg, profiles=profiles)
    params = [PolicyParams(omega=0.35, theta=0.2),
              PolicyParams(omega=0.5, theta=0.1)]

    net = analyze(model, params)
    assert net.breakdown.aic_lhs == 0.0
    assert net.breakdown.aic_satisfied
    assert all(load == 0.0 for load in net.breakdown.per_su_interference)

    sen = sensing_stats(cfg, profiles[0])
    assert sen.p_fa == 0.0 and sen.p_d == 1.0
    assert sen.beta1 == 0.0 and sen.omega1 == 0.0

    # the two-component gain law degenerates to its idle branch
    su = net.sus[0]
    assert su.gain.weights == (1.0, 0.0)
    assert su.gain.means[0] == su.estimation.var_hat_h0
    xs = np.linspace(0.0, 12.0, 200)
    mixture = gain_cdf(su.gain, xs)
    idle_only = -np.expm1(-xs / su.gain.means[0])
    assert np.array_equal(mixture, idle_only)
