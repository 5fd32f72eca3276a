"""Monte Carlo slot dynamics and the empirical-vs-analytic report."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ehcr import sim
from ehcr.analysis import analyze
from ehcr.model import NetworkModel, PolicyParams, SuProfile, SystemConfig
from ehcr.policy import FLOOR_NUDGE, derating, transmit_units
from ehcr.sim import MIN_COMPARE_SLOTS, compare, simulate


def _single(cells=12, rho=6.0, **cfg):
    return NetworkModel(config=SystemConfig(battery_cells=cells, **cfg),
                        profiles=(SuProfile(harvest_rate=rho),))


def test_same_seed_reproduces_the_run():
    model = _single()
    params = [PolicyParams(0.6, 0.1)]
    a = simulate(model, params, 5000, seed=42)
    b = simulate(model, params, 5000, seed=42)
    for name in ("busy", "sensed_busy", "state_before", "spent",
                 "rate_sample", "interference_sample"):
        np.testing.assert_array_equal(getattr(a.sus[0], name),
                                      getattr(b.sus[0], name))
    assert a.sum_rate == b.sum_rate


def test_adding_a_user_leaves_existing_paths_untouched():
    cfg = SystemConfig(battery_cells=12)
    alone = NetworkModel(config=cfg, profiles=(SuProfile(harvest_rate=6.0),))
    pair = NetworkModel(config=cfg, profiles=(SuProfile(harvest_rate=6.0),
                                              SuProfile(harvest_rate=2.0)))
    p = PolicyParams(0.6, 0.1)
    one = simulate(alone, [p], 4000, seed=9)
    two = simulate(pair, [p, PolicyParams(0.3, 0.5)], 4000, seed=9)
    np.testing.assert_array_equal(one.sus[0].state_before,
                                  two.sus[0].state_before)
    np.testing.assert_array_equal(one.sus[0].rate_sample,
                                  two.sus[0].rate_sample)


def test_busy_band_with_perfect_detection_idles_the_radio():
    model = _single(cells=10, rho=2.0, prior_idle=1e-9, ideal_sensing=True)
    trace = simulate(model, [PolicyParams(0.5, 0.1)], 2000, seed=3)
    su = trace.sus[0]
    assert int(su.probed.sum()) == 0
    assert int(su.spent.sum()) == 0
    assert np.all(su.rate_sample == 0.0)
    assert np.all(su.interference_sample == 0.0)
    walk = np.minimum(su.state_before + su.harvested, su.cells)
    np.testing.assert_array_equal(su.state_after, walk)


def test_per_slot_energy_bookkeeping():
    model = _single()
    trace = simulate(model, [PolicyParams(0.75, 0.1)], 20_000, seed=17)
    su = trace.sus[0]
    out = su.spent + su.probe_cells * su.probed
    assert np.all(su.state_before >= 0) and np.all(su.state_before <= su.cells)
    assert np.all(su.state_after >= 0) and np.all(su.state_after <= su.cells)
    # probing happens exactly when sensed idle with the reserve covered
    should_probe = ~su.sensed_busy & (su.state_before >= su.probe_cells)
    np.testing.assert_array_equal(su.probed, should_probe)
    assert np.all(su.spent[~su.probed] == 0)
    assert np.all(out <= su.state_before)
    # the battery recursion, slot by slot
    walk = np.minimum(su.state_before - out + su.harvested, su.cells)
    np.testing.assert_array_equal(su.state_after, walk)
    np.testing.assert_array_equal(su.state_before[1:], su.state_after[:-1])
    # level change equals harvest minus outflow except on clipped slots,
    # where the full battery kept less than the harvest
    kept = su.state_after - su.state_before + out
    clipped = kept != su.harvested
    assert int(np.sum(kept < su.harvested)) == int(clipped.sum())
    assert su.probe_skips == int(np.sum(~su.sensed_busy & ~should_probe))


def test_transition_frequencies_match_the_chain_columns():
    """Empirical transition law of a small battery against the matrix.

    Tolerances: each well-visited column (>= 1e4 entries) within 0.005
    per entry and total variation below 0.01.  Levels under the probe
    reserve follow the graceful no-probe rule instead of the analytic
    reserve burn, so they must stay rare for the laws to agree; the run
    is sized so those levels fall under the visit threshold.
    """
    model = _single(cells=7, rho=3.0)
    params = [PolicyParams(0.75, 0.02)]
    trace = simulate(model, params, 1_000_000, seed=7,
                     assume_idle_gains=True)
    su = trace.sus[0]
    assert su.probe_skips < 1e-3 * trace.slots
    counts = su.transition_counts()
    visits = counts.sum(axis=0)
    phi = analyze(model, params).sus[0].chain.matrix
    well_visited = np.flatnonzero(visits >= 1e4)
    assert well_visited.size >= 6
    for j in well_visited:
        emp = counts[:, j] / visits[j]
        assert np.max(np.abs(emp - phi[:, j])) < 0.005
        assert 0.5 * np.abs(emp - phi[:, j]).sum() < 0.01


def test_compare_accepts_a_faithful_run():
    model = NetworkModel(config=SystemConfig(), profiles=(SuProfile(),))
    params = [PolicyParams(0.35, 0.2)]
    trace = simulate(model, params, 200_000, seed=5)
    report = compare(trace, analyze(model, params))
    assert report.sufficient
    assert report.passed
    assert all(line.startswith("PASS") for line in report.lines())
    # every row is graded at the module's tolerance for its kind
    assert ({c.kind: c.tolerance for c in report.checks}
            == {"tv": 0.01, "relative": 0.01, "absolute": 0.005}
            == {"tv": sim.TV_TOL, "relative": sim.REL_TOL,
                "absolute": sim.ABS_TOL})


def test_compare_rejects_a_mismatched_model():
    model = NetworkModel(config=SystemConfig(), profiles=(SuProfile(),))
    trace = simulate(model, [PolicyParams(0.35, 0.2)], 50_000, seed=5)
    report = compare(trace, analyze(model, [PolicyParams(0.45, 0.2)]))
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "avg_energy" in failed


def test_compare_refuses_short_runs():
    model = _single()
    params = [PolicyParams(0.5, 0.1)]
    trace = simulate(model, params, MIN_COMPARE_SLOTS - 1, seed=1)
    report = compare(trace, analyze(model, params))
    assert not report.sufficient
    assert not report.passed
    assert report.lines()[0].startswith("INSUFFICIENT")


def test_compare_checks_user_counts():
    model = _single()
    trace = simulate(model, [PolicyParams(0.5, 0.1)], 2000, seed=1)
    pair = NetworkModel(config=model.config,
                        profiles=(SuProfile(harvest_rate=6.0),) * 2)
    with pytest.raises(ValueError):
        compare(trace, analyze(pair, [PolicyParams(0.5, 0.1)] * 2))


def test_simulate_argument_guards():
    model = _single()
    with pytest.raises(ValueError):
        simulate(model, [PolicyParams(0.5, 0.1)], 0)
    with pytest.raises(ValueError):
        simulate(model, [], 100)
    for bad in (-1, True, 3.0, 1.5):
        with pytest.raises(ValueError, match="seed"):
            simulate(model, [PolicyParams(0.5, 0.1)], 100, seed=bad)
    for bad in (True, 2.5, 100.0, np.float64(100)):
        with pytest.raises(ValueError, match="slots"):
            simulate(model, [PolicyParams(0.5, 0.1)], bad)
    for bad in (-1, model.config.battery_cells + 1, 2.5, 2.0, True, math.nan,
                math.inf):
        with pytest.raises(ValueError, match="start level"):
            simulate(model, [PolicyParams(0.5, 0.1)], 100, start_level=bad)
    # numpy integers are integers
    trace = simulate(model, [PolicyParams(0.5, 0.1)], np.int64(10),
                     seed=np.int32(3), start_level=np.int64(2))
    assert trace.seed == 3 and trace.sus[0].state_before[0] == 2


def test_start_level_is_respected():
    model = _single()
    lo = simulate(model, [PolicyParams(0.5, 0.1)], 10, start_level=0)
    hi = simulate(model, [PolicyParams(0.5, 0.1)], 10, start_level=12)
    assert lo.sus[0].state_before[0] == 0
    assert hi.sus[0].state_before[0] == 12


def test_policy_is_checked_before_the_walk():
    # a never-idle band probes no slot, so no spend rule would ever see
    # the out-of-range omega
    model = _single(cells=10, rho=2.0, prior_idle=1e-9, ideal_sensing=True)
    with pytest.raises(ValueError):
        simulate(model, [PolicyParams(1.5, 0.1)], 2000)
    with pytest.raises(ValueError):
        simulate(model, [PolicyParams(0.5, -0.1)], 2000)


_SPEND_CASES = {
    "defaults": (NetworkModel(config=SystemConfig(), profiles=(SuProfile(),)),
                 [PolicyParams(0.35, 0.2)]),
    "low-harvest": (NetworkModel(
        config=SystemConfig(battery_cells=20, probe_cells=3),
        profiles=(SuProfile(harvest_rate=0.8),)), [PolicyParams(0.5, 0.1)]),
    "pair": (NetworkModel(config=SystemConfig(),
                          profiles=(SuProfile(), SuProfile(harvest_rate=2.0))),
             [PolicyParams(0.6, 0.0), PolicyParams(1.0, 0.3)]),
    "K=12": (_single(), [PolicyParams(0.6, 0.1)]),
    "K=400": (NetworkModel(config=SystemConfig(battery_cells=400),
                           profiles=(SuProfile(),)), [PolicyParams(0.45, 0.2)]),
}


@pytest.mark.parametrize("case", sorted(_SPEND_CASES))
def test_spends_follow_the_scalar_rule(case):
    """Every slot's spend is the scalar policy rule at its entering level."""
    model, params = _SPEND_CASES[case]
    for seed in (1, 5, 11):
        for idle_gains in (False, True):
            for ideal in (False, True):
                config = dataclasses.replace(model.config,
                                             ideal_sensing=ideal)
                trace = simulate(dataclasses.replace(model, config=config),
                                 params, 1500, seed=seed,
                                 assume_idle_gains=idle_gains)
                for su in trace.sus:
                    np.testing.assert_array_equal(
                        su.probed,
                        ~su.sensed_busy & (su.state_before >= su.probe_cells))
                    expected = [
                        transmit_units(k, g, su.params, su.probe_cells)
                        if p else 0
                        for k, g, p in zip(su.state_before.tolist(),
                                           su.gain.tolist(),
                                           su.probed.tolist())]
                    np.testing.assert_array_equal(su.spent, expected)
                    outflow = su.spent + su.probe_cells * su.probed
                    walk = np.minimum(su.state_before - outflow
                                      + su.harvested, su.cells)
                    np.testing.assert_array_equal(su.state_after, walk)


def test_simulation_memory_stays_near_the_trace():
    """One 75k-slot run peaks within 7 MB; its trace alone holds ~4.4 MB."""
    model = NetworkModel(config=SystemConfig(), profiles=(SuProfile(),))
    params = [PolicyParams(0.35, 0.2)]
    simulate(model, params, 100, seed=3)
    tracemalloc.start()
    try:
        simulate(model, params, 75_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7e6, "peak %.1f MB" % (peak / 1e6)


def _scalar_walk(level, cells, reserve, omega, sensed_busy, frac, harvested):
    """The battery recursion one slot at a time: the level entering each
    slot, each slot's drain, and the level after the last."""
    before, drains = [], []
    for busy_t, frac_t, harvest_t in zip(sensed_busy.tolist(), frac.tolist(),
                                         harvested.tolist()):
        before.append(level)
        drain = 0
        if not busy_t and level >= reserve:
            drain = max(int(omega * level * frac_t + FLOOR_NUDGE), reserve)
        drains.append(drain)
        level = min(level - drain + harvest_t, cells)
    return np.array(before), np.array(drains), level


def _walk_inputs(cells, reserve, omega, theta, rate, prior_idle, start,
                 slots, seed):
    """Arguments of the battery walk: detector verdicts, derating factors
    of exponential gains of mean 1, and Poisson harvests."""
    rng = np.random.default_rng(seed)
    sensed_busy = rng.random(slots) >= prior_idle
    frac = derating(rng.exponential(1.0, slots), theta)
    harvested = rng.poisson(rate, slots).astype(np.int64)
    return start, cells, reserve, omega, sensed_busy, frac, harvested


# the low-harvest point of the benchmark, where paths meet slowly
_SLOW_WALK = (20, 3, 0.5, 0.1, 0.8, 0.7, 10, 200_000, 7)
# the default point: paths meet within a few dozen slots
_FAST_WALK = (80, 1, 0.35, 0.2, 15.0, 0.7, 40, 75_000, 7)


@st.composite
def _walks(draw):
    cells = draw(st.integers(1, 120))
    width = draw(st.integers(2, 260))
    return (cells, draw(st.integers(0, 6)),
            draw(st.one_of(st.sampled_from([0.0, 1.0]),
                           st.floats(0.0, 1.0))),
            draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0))),
            draw(st.floats(0.05, max(cells / 2, 0.05))),
            draw(st.one_of(st.floats(1e-4, 0.05), st.floats(0.95, 1 - 1e-4),
                           st.floats(0.05, 0.95))),
            draw(st.one_of(st.sampled_from([0, cells]),
                           st.integers(0, cells))),
            draw(st.sampled_from([1, 2, width ** 2 - 1, width ** 2,
                                  width ** 2 + 1, 50_177])),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60, deadline=None)
@given(case=_walks())
@example(case=_SLOW_WALK)
@example(case=_FAST_WALK)
# the low-harvest run simulate-grade times
@example(case=_SLOW_WALK[:7] + (12_500, 7))
# a short default run, and one whose tail after the last row exceeds HEAD
@example(case=_FAST_WALK[:7] + (4_000, 7))
@example(case=_FAST_WALK[:7] + (40 ** 2 + 39, 7))
@example(case=(120, 0, 1.0, 0.0, 60.0, 1e-4, 120, 50_177, 1))
@example(case=(1, 0, 0.0, 0.0, 0.05, 0.999, 0, 4_761, 2))
def test_walk_matches_the_scalar_recursion(case):
    """Every level, drain and end of the walk is the one-slot loop's."""
    args = _walk_inputs(*case)
    before, drain, end = sim._walk_battery(*args)
    want_before, want_drain, want_end = _scalar_walk(*args)
    np.testing.assert_array_equal(before, want_before)
    np.testing.assert_array_equal(drain, want_drain)
    assert end == want_end


def test_compare_reports_batch_means_standard_errors():
    """Each scalar row carries an error that shrinks like 1/sqrt(slots);
    the occupancy row carries none."""
    model = NetworkModel(config=SystemConfig(), profiles=(SuProfile(),))
    params = [PolicyParams(0.35, 0.2)]
    reference = analyze(model, params)
    errors = []
    for slots in (20_000, 80_000, 320_000):
        report = compare(simulate(model, params, slots, seed=4), reference)
        assert report.checks[0].name == "zeta" and report.checks[0].se is None
        assert "se=" not in report.lines()[0]
        assert all("se=" in line for line in report.lines()[1:])
        errors.append({c.name: c.se for c in report.checks[1:]})
    for name in ("avg_energy", "rate", "interference",
                 "transmission_outage", "sum_rate", "aic_lhs"):
        for small, large in zip(errors, errors[1:]):
            assert 1.4 < small[name] / large[name] < 2.9, name
    # a full battery never reaches the probe reserve
    assert errors[-1]["battery_outage"] == 0.0


def test_standard_error_is_zero_on_a_constant_sample():
    # a never-idle band with a perfect detector sends and loads nothing
    model = _single(cells=10, rho=2.0, prior_idle=1e-9, ideal_sensing=True)
    params = [PolicyParams(0.5, 0.1)]
    trace = simulate(model, params, 4000, seed=3)
    se = {c.name: c.se for c in compare(trace, analyze(model, params)).checks}
    for name in ("rate", "interference", "sum_rate", "aic_lhs"):
        assert se[name] == 0.0
    assert math.isnan(se["transmission_outage"])   # no sensed-idle slot
    assert se["avg_energy"] > 0.0


def test_standard_error_matches_independent_samples():
    rng = np.random.default_rng(0)
    for n in (10_000, 160_000):
        x = rng.normal(3.0, 2.0, n)
        assert sim._standard_error(sim._batch_means(x)) == pytest.approx(
            2.0 / math.sqrt(n), rel=0.2)
