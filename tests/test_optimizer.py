"""Policy search: evaluator caching, budget splitting, cap handling."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehcr import optimizer
from ehcr.analysis import analyze_su
from ehcr.model import NetworkModel, PolicyParams, SuProfile, SystemConfig
from ehcr.optimizer import (SearchConfig, SuEvaluator, SuPoint, _allocate,
                            _coarse_points, _frontier, _Lattice, check_search,
                            objective_surface, solve_p1)
from ehcr.policy import transmit_row

# desk-scale search: small battery, light grids, quick refinement
SMALL = SearchConfig(omega_points=7, theta_points=9, refine_levels=2,
                     refine_points=5, top_candidates=2)


def _model(cap=math.inf, cells=12, rho=3.0):
    return NetworkModel(
        config=SystemConfig(battery_cells=cells, interference_cap=cap),
        profiles=(SuProfile(harvest_rate=rho),))


@pytest.mark.parametrize("points", [2, 3])
def test_refine_grids_that_cannot_shrink_are_rejected(points):
    with pytest.raises(ValueError, match=r"^refine_points must be >= 4"):
        check_search(SearchConfig(refine_points=points))
    check_search(SearchConfig(refine_points=4))
    check_search(SearchConfig())


@pytest.mark.parametrize("field,value", [
    ("omega_points", 0), ("theta_points", 0), ("theta_points", -3),
    ("theta_floor", 0.0), ("theta_floor", -1e-3), ("theta_floor", math.nan),
    ("theta_floor", math.inf), ("theta_cap", 0.0), ("theta_cap", math.nan),
    ("theta_cap", math.inf), ("refine_levels", -1), ("top_candidates", -2)])
def test_searches_without_a_usable_grid_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        check_search(SearchConfig(**{field: value}))
    check_search(SearchConfig(omega_points=1, theta_points=1, theta_cap=2.0))


@pytest.mark.parametrize("floor,cap", [(1e-3, 1e-3), (0.5, 0.01)])
def test_a_cap_at_or_below_the_floor_is_rejected(floor, cap):
    with pytest.raises(ValueError, match="^theta_cap must exceed theta_floor"):
        check_search(SearchConfig(theta_floor=floor, theta_cap=cap))
    # the default cap, unset, may fall below the floor on weak channels
    check_search(SearchConfig(theta_floor=floor))


def _two_user(cap):
    return NetworkModel(
        config=SystemConfig(battery_cells=12, interference_cap=cap),
        profiles=(SuProfile(harvest_rate=3.0),
                  SuProfile(harvest_rate=2.0, su_ap_var=1.5)))


def test_evaluator_matches_the_analytic_chain():
    model = _model()
    ev = SuEvaluator(model, 0)
    for omega, theta in ((0.4, 0.15), (0.8, 0.02), (0.0, 1.0)):
        point = ev.evaluate(omega, theta)
        su = analyze_su(model, 0, PolicyParams(omega, theta))
        assert point.rate == su.rate.total
        assert point.interference == su.interference
        assert point.avg_energy == su.chain.avg_energy
        assert point.battery_outage == su.chain.outage
        assert point.transmission_outage == su.transmission_outage


def test_evaluator_caches_repeat_queries():
    ev = SuEvaluator(_model(), 0)
    first = ev.evaluate(0.5, 0.1)
    assert ev.evaluations == 1
    assert ev.evaluate(0.5, 0.1) is first
    assert ev.evaluations == 1
    ev.evaluate(0.5, 0.11)
    assert ev.evaluations == 2
    assert len(ev.known_points()) == 2


def test_solver_beats_every_cached_feasible_point():
    cap = 0.3
    model = _model(cap)
    ev = SuEvaluator(model, 0)
    res = solve_p1(model, SMALL, evaluators=[ev])
    assert res.feasible
    assert res.aic_lhs <= cap
    for point in ev.known_points():
        if point.interference <= cap:
            assert res.sum_rate >= point.rate - 1e-12
    assert res.evaluations == ev.evaluations


def test_solver_is_deterministic():
    first = solve_p1(_model(0.2), SMALL)
    second = solve_p1(_model(0.2), SMALL)
    assert first.params == second.params
    assert first.sum_rate == second.sum_rate
    assert first.evaluations == second.evaluations


def test_unreachable_budget_reports_the_silent_point():
    # the pilot duty cycle alone loads 0.045 W here, above the cap
    model = _model(cap=0.02)
    res = solve_p1(model, SMALL)
    assert not res.feasible
    assert res.sweeps == 0
    assert res.sum_rate == 0.0
    floor = SuEvaluator(model, 0).interference_floor
    assert res.aic_lhs == pytest.approx(floor, rel=1e-12)


def test_cap_within_rounding_of_the_floor_reports_the_silent_point(
        monkeypatch):
    # the floor equals the cap, so the pre-check passes, but the silent
    # point's load rounds one ulp above it: no coarse split fits
    model = NetworkModel(
        config=SystemConfig(probing_duration=0.7e-3,
                            interference_cap=0.039375),
        profiles=(SuProfile(su_pu_var=0.875),))
    assert SuEvaluator(model, 0).interference_floor == 0.039375
    splits = []

    def allocate(points, cap):
        splits.append(_allocate(points, cap))
        return splits[-1]

    monkeypatch.setattr(optimizer, "_allocate", allocate)
    res = solve_p1(model, SMALL)
    assert splits[0] is None
    assert not res.feasible
    assert res.params == (PolicyParams(0.0, SMALL.theta_floor),)
    assert res.aic_lhs == 0.03937500000000001
    assert res.sweeps == 1


def test_binding_cap_is_used_nearly_fully():
    free = solve_p1(_model(), SMALL)
    tight = solve_p1(_model(cap=0.15), SMALL)
    assert tight.feasible
    assert tight.aic_lhs <= 0.15
    assert tight.aic_lhs >= 0.8 * 0.15   # budget not left on the table
    assert tight.sum_rate < free.sum_rate


def test_meagre_harvesting_earns_a_meagre_rate():
    free = solve_p1(_model(), SMALL)
    starved = solve_p1(_model(rho=0.05), SMALL)
    assert starved.sum_rate < 0.01 * free.sum_rate


def test_two_user_split_is_optimal_over_the_priced_points():
    cap = 0.22
    model = _two_user(cap)
    evs = [SuEvaluator(model, i) for i in range(2)]
    res = solve_p1(model, SMALL, evaluators=evs)
    assert res.feasible and res.aic_lhs <= cap

    loads0, rates0 = zip(*((p.interference, p.rate)
                           for p in evs[0].known_points()))
    loads1, rates1 = zip(*((p.interference, p.rate)
                           for p in evs[1].known_points()))
    total_load = np.add.outer(np.array(loads0), np.array(loads1))
    total_rate = np.add.outer(np.array(rates0), np.array(rates1))
    total_rate[total_load > cap] = -np.inf
    assert res.sum_rate >= total_rate.max() - 1e-9


# the smallest search whose refinement still prices points off the coarse grid
TINY = SearchConfig(omega_points=3, theta_points=3, refine_levels=1,
                    refine_points=5, top_candidates=1)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(cells=st.integers(6, 24),
       users=st.lists(st.tuples(st.floats(0.2, 10.0), st.floats(0.1, 3.0)),
                      min_size=2, max_size=4),
       cap=st.floats(0.01, 1.5))
def test_search_returns_the_best_split_of_what_it_priced(cells, users, cap):
    model = NetworkModel(
        config=SystemConfig(battery_cells=cells, interference_cap=cap),
        profiles=tuple(SuProfile(harvest_rate=rho, su_pu_var=var)
                       for rho, var in users))
    evs = [SuEvaluator(model, i) for i in range(model.n_users)]
    res = solve_p1(model, TINY, evaluators=evs)

    # every combination of priced points, users summed in order
    loads = rates = np.zeros(())
    for ev in evs:
        points = ev.known_points()
        loads = np.add.outer(loads, [p.interference for p in points])
        rates = np.add.outer(rates, [p.rate for p in points])
    fits = loads <= cap
    assert res.feasible == fits.any()
    if res.feasible:
        assert res.sum_rate >= (1 - 1e-12) * rates[fits].max()


def test_loosening_the_cap_never_hurts():
    evs = [SuEvaluator(_two_user(math.inf), i) for i in range(2)]
    rates = [solve_p1(_two_user(cap), SMALL, evaluators=evs).sum_rate
             for cap in (0.1, 0.18, 0.3, 0.6)]
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


def test_objective_surface_reuses_the_evaluation_path():
    model = _model()
    ev = SuEvaluator(model, 0)
    omegas = [0.2, 0.5, 0.8]
    thetas = [0.05, 0.2, 1.0]
    rates, loads = objective_surface(model, omegas, thetas, evaluator=ev)
    assert rates.shape == loads.shape == (3, 3)
    for a, omega in enumerate(omegas):
        for b, theta in enumerate(thetas):
            point = ev.evaluate(omega, theta)
            assert rates[a, b] == point.rate
            assert loads[a, b] == point.interference


def test_result_bookkeeping_fields():
    res = solve_p1(_model(0.2), SMALL)
    assert res.sweeps in (1, 2)
    assert res.evaluations >= SMALL.omega_points * SMALL.theta_points
    assert len(res.params) == len(res.per_su) == 1
    assert res.sum_rate == pytest.approx(
        math.fsum(p.rate for p in res.per_su), rel=1e-14)


# ------------------------------------------------------------ row pricing

def _row_settings():
    yield _model(cells=12), 0.6, [0.02, 0.5, 0.02, 3.0, 0.11, 0.7, 1.4]
    yield _model(cells=80, rho=15.0), 0.35, list(np.geomspace(1e-3, 9.0, 13))
    yield _model(cells=80, rho=15.0), 0.0, [0.2, 0.2, 1e-3]
    yield _model(cells=200, rho=15.0), 0.8, [0.05, 0.3, 0.05]


@pytest.mark.parametrize("model, omega, thetas", _row_settings())
def test_rows_price_every_point_as_it_prices_alone(model, omega, thetas):
    rng = np.random.default_rng(5)
    row = SuEvaluator(model, 0)
    # a few cutoffs priced first, so the row is partly cached
    cached = [thetas[i] for i in rng.choice(len(thetas), 2, replace=False)]
    row.evaluate_row(omega, cached)
    points = row.evaluate_row(omega, thetas)
    assert row.evaluations == len(set(thetas))
    for theta, point in zip(thetas, points):
        assert point is row.evaluate(omega, theta)
        alone = SuEvaluator(model, 0).evaluate(omega, theta)
        assert point == alone


def test_random_rows_match_points_priced_alone():
    rng = np.random.default_rng(23)
    model = _model(cells=80, rho=15.0)
    ev = SuEvaluator(model, 0)
    for _ in range(4):
        omega = float(rng.uniform(0.0, 1.0))
        # clipped cutoffs repeat the top one
        thetas = np.minimum(np.geomspace(1e-3, 20.0, 16)
                            * np.exp(rng.uniform(-0.1, 0.1, 16)), 5.0)
        for theta, point in zip(thetas, ev.evaluate_row(omega, thetas)):
            assert point == SuEvaluator(model, 0).evaluate(omega, theta)


def test_search_prices_each_lattice_point_once():
    model = NetworkModel(config=SystemConfig(interference_cap=1.0),
                         profiles=(SuProfile(), SuProfile(harvest_rate=10.0)))
    evs = [SuEvaluator(model, i) for i in range(2)]
    res = solve_p1(model, evaluators=evs)
    distinct = sum(len({(round(p.params.omega, 12),
                         float(f"{p.params.theta:.12g}"))
                        for p in ev.known_points()}) for ev in evs)
    assert res.evaluations == distinct


# ------------------------------------------------- shared policy sides

def _count_spend_laws(monkeypatch):
    """A list that grows by one per ``transmit_row`` call of the optimizer."""
    calls = []
    transmit_row = optimizer.transmit_row

    def counted(*args, **kwargs):
        calls.append(args[0])
        return transmit_row(*args, **kwargs)

    monkeypatch.setattr(optimizer, "transmit_row", counted)
    return calls


def _coarse_spend_laws(monkeypatch, model, search):
    evs = [SuEvaluator(model, i) for i in range(model.n_users)]
    calls = _count_spend_laws(monkeypatch)
    _coarse_points(search, evs, [_Lattice(search, ev) for ev in evs])
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("profiles, cap", [
    ((SuProfile(harvest_rate=3.0), SuProfile(harvest_rate=6.0, su_pu_var=0.4)),
     0.3),
    ((SuProfile(harvest_rate=3.0), SuProfile(harvest_rate=6.0),
      SuProfile(harvest_rate=3.0, su_pu_var=2.5)), 0.5),
])
def test_users_sharing_a_channel_price_as_they_would_alone(monkeypatch,
                                                           profiles, cap):
    model = NetworkModel(
        config=SystemConfig(battery_cells=40, interference_cap=cap),
        profiles=profiles)
    rows = []
    price_rows = optimizer._price_rows

    def recorded(evaluators, omega, thetas):
        rows.extend((ev.index, omega, list(row))
                    for ev, row in zip(evaluators, thetas))
        return price_rows(evaluators, omega, thetas)

    monkeypatch.setattr(optimizer, "_price_rows", recorded)
    evs = [SuEvaluator(model, i) for i in range(model.n_users)]
    # part of one coarse row priced by the first user alone, so that row's
    # uncached cutoffs differ between the users
    lattice = _Lattice(SMALL, evs[0])
    evs[0].evaluate_row(lattice.omegas(2 * lattice.fine),
                        lattice.thetas(lattice.fine * np.arange(0, 9, 3)))
    solve_p1(model, SMALL, evaluators=evs)
    monkeypatch.undo()
    assert len({ev.channel for ev in evs}) == 1

    for ev, profile in zip(evs, profiles):
        alone = SuEvaluator(NetworkModel(config=model.config,
                                         profiles=(profile,)), 0)
        for index, omega, thetas in rows:
            if index == ev.index:
                alone.evaluate_row(omega, thetas)
        assert list(alone._cache.items()) == list(ev._cache.items())


def test_users_with_different_pilot_channels_share_nothing(monkeypatch):
    config = SystemConfig(battery_cells=12)
    same = NetworkModel(config=config, profiles=(
        SuProfile(harvest_rate=3.0), SuProfile(harvest_rate=5.0)))
    other = NetworkModel(config=config, profiles=(
        SuProfile(harvest_rate=3.0), SuProfile(harvest_rate=3.0,
                                               su_ap_var=1.9)))
    # one stack per row at K = 12
    assert _coarse_spend_laws(monkeypatch, same, SMALL) == SMALL.omega_points
    assert (_coarse_spend_laws(monkeypatch, other, SMALL)
            == 2 * SMALL.omega_points)
    a, b = (SuEvaluator(other, i) for i in range(2))
    assert a.channel != b.channel


def test_readme_coarse_grid_prices_each_stack_once(monkeypatch):
    model = NetworkModel(config=SystemConfig(interference_cap=1.0),
                         profiles=(SuProfile(), SuProfile(harvest_rate=10.0)))
    search = SearchConfig()
    integrals = []
    level_gains = optimizer.level_gains
    monkeypatch.setattr(optimizer, "level_gains",
                        lambda *args: integrals.append(args) or
                        level_gains(*args))
    # 21 omega rows of 25 cutoffs, in stacks of at most 9 at K = 80; the
    # users share a channel, so each stack's level integrals are one call
    assert _coarse_spend_laws(monkeypatch, model, search) == 21 * 3
    assert len(integrals) == 21 * 3


# ---------------------------------------------------------- budget split

def _full_fold(per_su_points, cap):
    """Budget split folding every user's frontier, the last one included."""
    fronts = [_frontier(pts) for pts in per_su_points]
    loads, rates = np.zeros(1), np.zeros(1)
    picks = []
    for f_loads, f_rates, _ in fronts:
        total_load = (loads[:, None] + f_loads[None, :]).ravel()
        total_rate = (rates[:, None] + f_rates[None, :]).ravel()
        keep = total_load <= cap
        if not keep.any():
            return None
        prev_idx, this_idx = np.divmod(np.flatnonzero(keep), f_loads.size)
        order = np.lexsort((-total_rate[keep], total_load[keep]))
        flat_load, flat_rate = total_load[keep][order], total_rate[keep][order]
        first = np.ones(flat_rate.size, dtype=bool)
        first[1:] = flat_rate[1:] > np.maximum.accumulate(flat_rate)[:-1]
        loads, rates = flat_load[first], flat_rate[first]
        picks = [p[prev_idx[order][first]] for p in picks]
        picks.append(this_idx[order][first])
    winner = int(np.argmax(rates))
    return [front[2][int(pick[winner])] for front, pick in zip(fronts, picks)]


def _points(loads, rates):
    return [SuPoint(PolicyParams(0.5, 0.1 + i), float(r), float(l), 0.0, 0.0,
                    0.0) for i, (l, r) in enumerate(zip(loads, rates))]


def _random_points(rng, n, mode):
    loads = rng.uniform(0.0, 1.0, n)
    rates = rng.uniform(0.0, 10.0, n)
    if mode == "tenths":  # sums like 0.6 + 1.1 land on either side of a cap
        loads, rates = np.round(2.0 * loads, 1), np.round(rates, 0)
    elif mode == "huge":  # a partial this large absorbs the last user's steps
        rates = np.round(rates, 0) + 2.0 ** 53
    return _points(loads, rates)


@pytest.mark.parametrize("first, last, cap", [
    # 1.7 - 0.6 rounds to 1.1, yet 0.6 + 1.1 rounds above 1.7
    ((0.6,), (0.0, 1.1), 1.7),
    # 2.4 - 1.5 rounds below 0.9, yet 1.5 + 0.9 rounds to 2.4
    ((1.5,), (0.0, 0.9), 2.4),
])
def test_last_user_split_rounds_like_the_full_fold(first, last, cap):
    pools = [_points(first, (1.0,)), _points(last, (0.0, 5.0))]
    assert _allocate(pools, cap) == _full_fold(pools, cap)


def test_last_user_split_matches_the_full_fold():
    rng = np.random.default_rng(11)
    for trial in range(600):
        mode = ("plain", "tenths", "huge")[trial % 3]
        users = int(rng.integers(1, 4))
        pools = [_random_points(rng, int(rng.integers(1, 40)),
                                mode if mode != "huge" or i == 0 else "tenths")
                 for i in range(users)]
        cap = float(rng.uniform(0.0, 2.0 * users))
        if mode != "plain":
            cap = round(cap, 1)
        want = _full_fold(pools, cap)
        got = _allocate(pools, cap)
        if want is None:
            assert got is None
            continue
        # the fold's own sums: feasible, and the same point wherever the
        # fold and the split could break a tie differently
        assert sum(p.interference for p in got) <= cap
        assert got == want


# ------------------------------------------------------- owned work arrays

def test_warm_k400_stack_allocates_less_than_one_transition_matrix():
    """A stack priced after another of its omega reuses the evaluator's
    work arrays: spend laws, scatter, matrix, balance system, level
    integrals and their block arrays all exist already."""
    model = NetworkModel(config=SystemConfig(battery_cells=400),
                         profiles=(SuProfile(),))
    evaluator = SuEvaluator(model, 0)
    evaluator.evaluate_row(0.3, [0.05])
    tracemalloc.start()
    try:
        evaluator.evaluate_row(0.3, [0.2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 401 * 401 * 8


@pytest.mark.parametrize("cells, omega, thetas", [
    (80, 0.45, (0.02, 0.04, 0.07, 0.1, 0.15, 0.2, 0.3, 0.5, 0.8)),
    (400, 0.3, (0.05,)),
])
def test_a_second_stack_of_an_omega_grows_no_work_array(cells, omega, thetas):
    """A stack priced after another of its omega and cutoff count finds
    every work array in place: none is added and none grows.  The E1 share
    of the scratch depends on how many arguments lie from 2 on, but never
    exceeds 3 doubles per argument of a block.  At K = 80 the 9-cutoff
    stack's (shift x level) scatter outweighs that; at K = 400 the blocks
    are sized (``rate._block_entries``) so that it fits in the (K+1)^2
    balance system of the stack's steady state."""
    model = NetworkModel(config=SystemConfig(battery_cells=cells),
                         profiles=(SuProfile(),))
    evaluator = SuEvaluator(model, 0)

    def sizes():
        return {key: array.size
                for key, array in evaluator._work._arrays.items()}

    evaluator.evaluate_row(omega, thetas)
    first = sizes()
    # cutoffs 4x larger move the spend levels' gain edges, and with them
    # how many E1 arguments fall in each piece
    evaluator.evaluate_row(omega, [4.0 * theta for theta in thetas])
    assert sizes() == first


def test_priced_rows_share_the_evaluators_work_arrays():
    """``PricedRow.matrix`` is valid until the evaluator's next stack; a
    stack priced without a workspace owns its arrays."""
    model = _model(cells=20)
    evaluator = SuEvaluator(model, 0)
    cfg = evaluator.config

    def pmf(theta):
        return transmit_row(0.6, [theta], cfg.probe_cells, cfg.battery_cells,
                            evaluator.gain)

    first = evaluator.price_row(pmf(0.1))
    kept = first.matrix.copy()
    second = evaluator.price_row(pmf(2.0))
    assert np.shares_memory(first.matrix, second.matrix)
    assert not (second.matrix == kept).all()
    fresh = SuEvaluator(model, 0).price_row(pmf(0.1))
    assert fresh.matrix.tobytes() == kept.tobytes()
