"""Search for rate-maximizing policy parameters under the interference cap.

Each user's rate and primary-side load depend only on that user's own
(spend fraction, gain cutoff) pair; the cap couples users purely through
a shared interference budget.  The solver therefore grids each user's
plane once behind a memoizing evaluator, splits the budget exactly over
the priced points by folding per-user rate/load trade-off frontiers
together, alternates per-user best responses against the remaining
budget, and polishes the winners with nested local grids.  Everything
is deterministic for a given model and search configuration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .battery import TransitionBuilder, avg_energy, battery_outage, steady_state
from .model import NetworkModel, PolicyParams, harvest_pmf
from .policy import transmit_pmf
from .probing import GainDistribution, estimator_variances
from .rate import aic_contribution, rate_lower_bound, transmission_outage
from .sensing import sensing_stats


@dataclass(frozen=True)
class SuPoint:
    """One user's analytic metrics at one policy point."""

    params: PolicyParams
    rate: float                  # bits/s
    interference: float          # average load on the primary [W]
    avg_energy: float            # mean battery level [cells]
    battery_outage: float        # Pr{level <= probe reserve}
    transmission_outage: float   # Pr{silent | sensed idle}


@dataclass(frozen=True)
class SearchConfig:
    """Grid densities, bounds and refinement depth for the policy search."""

    omega_points: int = 21        # coarse grid on the spend fraction [0, 1]
    theta_points: int = 25        # coarse log grid on the gain cutoff
    theta_floor: float = 1e-3     # smallest cutoff searched
    theta_cap: Optional[float] = None  # default: 10x the fed-back gain mean
    refine_levels: int = 3        # nested local grids around each winner
    refine_points: int = 9        # points per axis and refinement level
    top_candidates: int = 3       # coarse cells seeding the refinement
    max_sweeps: int = 50          # alternating best-response passes
    sweep_tol: float = 1e-6       # relative sum-rate improvement to continue


class SuEvaluator:
    """Memoized analytic chain for one user.

    Sensing statistics, the estimator, the harvest law and the clamp-shift
    table are policy-independent, so they are built once; evaluating a
    policy point then only costs the spend pmf, one matrix product for
    the transition matrix, and one steady-state solve with its residual
    and reachability checks.  Results are cached per (omega, theta).
    """

    def __init__(self, model: NetworkModel, index: int,
                 ideal_sensing: bool = False):
        self.index = index
        self.config = model.config
        self.profile = model.profiles[index]
        self.sensing = sensing_stats(self.config, self.profile,
                                     ideal=ideal_sensing)
        self.estimation = estimator_variances(self.config, self.profile,
                                              self.sensing)
        self.gain = GainDistribution.from_stats(self.estimation, self.sensing)
        harvest = harvest_pmf(self.profile.harvest_rate,
                              self.config.battery_cells)
        self._builder = TransitionBuilder(harvest, self.config.battery_cells,
                                          self.config.probe_cells)
        self._cache: Dict[Tuple[float, float], SuPoint] = {}

    @property
    def evaluations(self) -> int:
        """Distinct policy points priced so far."""
        return len(self._cache)

    def known_points(self) -> List[SuPoint]:
        """Every point priced so far, in evaluation order."""
        return list(self._cache.values())

    @property
    def interference_floor(self) -> float:
        """Load the probe pilots alone place on the primary [W].

        Independent of the policy point, so it is the exact feasibility
        floor: no (omega, theta) can load the primary less.
        """
        return (self.sensing.beta1 * self.profile.su_pu_var
                * self.config.probe_fraction * self.config.probe_power)

    def default_theta_cap(self) -> float:
        """Upper search bound: cutoffs this high reject almost every gain."""
        return 10.0 * max(self.gain.means)

    def evaluate(self, omega: float, theta: float) -> SuPoint:
        key = (float(omega), float(theta))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        params = PolicyParams(omega=key[0], theta=key[1])
        pmf = transmit_pmf(params, self.config.probe_cells,
                           self.config.battery_cells, self.gain)
        phi = self._builder.matrix(pmf.psi[0], self.sensing.pi_hat_idle,
                                   self.sensing.pi_hat_busy)
        zeta = steady_state(phi)
        rate = rate_lower_bound(self.config, self.profile, self.sensing,
                                self.estimation, pmf, zeta)
        point = SuPoint(
            params=params,
            rate=rate.total,
            interference=aic_contribution(self.config, self.profile,
                                          self.sensing, pmf, zeta),
            avg_energy=avg_energy(zeta),
            battery_outage=battery_outage(zeta, self.config.probe_cells),
            transmission_outage=transmission_outage(zeta, pmf, self.sensing,
                                                    self.config.probe_cells),
        )
        self._cache[key] = point
        return point


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of the policy search over all users."""

    params: Tuple[PolicyParams, ...]
    per_su: Tuple[SuPoint, ...]
    sum_rate: float     # bits/s
    aic_lhs: float      # total load on the primary [W]
    feasible: bool      # load within the cap (else least-loading point)
    evaluations: int    # distinct policy points priced
    sweeps: int         # alternating passes actually run
    grid_shape: Tuple[int, int]
    refine_levels: int


def _theta_bounds(search: SearchConfig, evaluator: SuEvaluator
                  ) -> Tuple[float, float]:
    cap = search.theta_cap
    if cap is None:
        cap = evaluator.default_theta_cap()
    return search.theta_floor, max(cap, search.theta_floor * (1 + 1e-9))


def _coarse_points(search: SearchConfig, evaluator: SuEvaluator
                   ) -> List[SuPoint]:
    lo, hi = _theta_bounds(search, evaluator)
    omegas = np.linspace(0.0, 1.0, search.omega_points)
    thetas = np.geomspace(lo, hi, search.theta_points)
    return [evaluator.evaluate(o, t) for o in omegas for t in thetas]


def _refine(evaluator: SuEvaluator, start: SuPoint, budget: float,
            search: SearchConfig) -> SuPoint:
    """Shrinking local grids around one candidate, feasibility respected."""
    lo, hi = _theta_bounds(search, evaluator)
    span_omega = 1.0 / max(search.omega_points - 1, 1)
    span_log_theta = (math.log(hi) - math.log(lo)) / max(search.theta_points - 1, 1)
    shrink = 2.0 / max(search.refine_points - 1, 1)
    best = start
    for _ in range(search.refine_levels):
        omegas = np.clip(np.linspace(best.params.omega - span_omega,
                                     best.params.omega + span_omega,
                                     search.refine_points), 0.0, 1.0)
        center = math.log(best.params.theta)
        thetas = np.exp(np.clip(np.linspace(center - span_log_theta,
                                            center + span_log_theta,
                                            search.refine_points),
                                math.log(lo), math.log(hi)))
        for omega in omegas:
            for theta in thetas:
                point = evaluator.evaluate(omega, theta)
                if point.interference <= budget and point.rate > best.rate:
                    best = point
        span_omega *= shrink
        span_log_theta *= shrink
    return best


def _frontier(points: Sequence[SuPoint]
              ) -> Tuple[np.ndarray, np.ndarray, List[SuPoint]]:
    """Pareto steps of one user's (load, rate) trade-off.

    Returns loads ascending with strictly increasing best-rate values and
    the representative point of each step.
    """
    order = sorted(range(len(points)),
                   key=lambda i: (points[i].interference, -points[i].rate))
    loads: List[float] = []
    rates: List[float] = []
    reps: List[SuPoint] = []
    best = -1.0
    for i in order:
        p = points[i]
        if p.rate > best:
            best = p.rate
            loads.append(p.interference)
            rates.append(p.rate)
            reps.append(p)
    return np.asarray(loads), np.asarray(rates), reps


def _allocate(per_su_points: Sequence[Sequence[SuPoint]],
              cap: float) -> Optional[List[SuPoint]]:
    """Best joint point selection under the shared interference budget.

    Folds the users' Pareto frontiers together, pruning dominated load
    combinations at every step, so the result is exact over the supplied
    point sets.  Returns None when no combination fits the cap.
    """
    fronts = [_frontier(pts) for pts in per_su_points]
    # running partial solutions: loads, rates, and per-SU choice indices
    loads = np.zeros(1)
    rates = np.zeros(1)
    picks: List[np.ndarray] = []
    for f_loads, f_rates, _ in fronts:
        total_load = loads[:, None] + f_loads[None, :]
        total_rate = rates[:, None] + f_rates[None, :]
        keep = total_load.ravel() <= cap
        if not keep.any():
            return None
        flat_load = total_load.ravel()[keep]
        flat_rate = total_rate.ravel()[keep]
        prev_idx, this_idx = np.nonzero(keep.reshape(total_load.shape))
        order = np.lexsort((-flat_rate, flat_load))
        flat_load = flat_load[order]
        flat_rate = flat_rate[order]
        prev_idx = prev_idx[order]
        this_idx = this_idx[order]
        best = np.maximum.accumulate(flat_rate)
        first = np.ones(flat_rate.size, dtype=bool)
        first[1:] = flat_rate[1:] > best[:-1]
        loads = flat_load[first]
        rates = flat_rate[first]
        picks = [p[prev_idx[first]] for p in picks]
        picks.append(this_idx[first])
    winner = int(np.argmax(rates))
    return [front[2][int(pick[winner])]
            for front, pick in zip(fronts, picks)]


def _result(points: Sequence[SuPoint], cap: float, evaluations: int,
            sweeps: int, search: SearchConfig) -> OptimizationResult:
    load = math.fsum(p.interference for p in points)
    return OptimizationResult(
        params=tuple(p.params for p in points),
        per_su=tuple(points),
        sum_rate=math.fsum(p.rate for p in points),
        aic_lhs=load,
        feasible=load <= cap,
        evaluations=evaluations,
        sweeps=sweeps,
        grid_shape=(search.omega_points, search.theta_points),
        refine_levels=search.refine_levels,
    )


def solve_p1(model: NetworkModel, search: Optional[SearchConfig] = None,
             *, ideal_sensing: bool = False,
             evaluators: Optional[Sequence[SuEvaluator]] = None
             ) -> OptimizationResult:
    """Maximize the network sum-rate bound subject to the interference cap.

    Coarse-grids every user's plane, splits the interference budget
    exactly over the users' priced points, alternates per-user best
    responses against the leftover budget, and refines the best few
    cells of each user locally.  The returned selection is never worse
    than the exact budget split over every point priced along the way,
    so loosening the cap (with reused evaluators) never lowers the sum
    rate.  When even all-silent operation overloads the primary, the
    least-loading point is reported with ``feasible=False``.
    """
    search = search if search is not None else SearchConfig()
    if evaluators is None:
        evaluators = [SuEvaluator(model, i, ideal_sensing=ideal_sensing)
                      for i in range(model.n_users)]
    cap = model.config.interference_cap

    # Probing load is policy-independent, so infeasibility is decidable
    # exactly before any search work.
    if math.fsum(ev.interference_floor for ev in evaluators) > cap:
        silent = [ev.evaluate(0.0, search.theta_floor) for ev in evaluators]
        return _result(silent, cap,
                       sum(ev.evaluations for ev in evaluators), 0, search)

    for evaluator in evaluators:
        _coarse_points(search, evaluator)
    current = _allocate([ev.known_points() for ev in evaluators], cap)
    if current is None:  # cap within rounding of the probing floor
        current = [ev.evaluate(0.0, search.theta_floor) for ev in evaluators]

    sweeps = 0
    for _ in range(2):
        pools = [ev.known_points() for ev in evaluators]

        total = math.fsum(p.rate for p in current)
        for _ in range(search.max_sweeps):
            sweeps += 1
            for i in range(len(evaluators)):
                others = math.fsum(p.interference
                                   for j, p in enumerate(current) if j != i)
                budget = cap - others
                best = current[i]
                for point in pools[i]:
                    if point.interference <= budget and point.rate > best.rate:
                        best = point
                current[i] = best
            new_total = math.fsum(p.rate for p in current)
            if new_total - total <= search.sweep_tol * max(total, 1e-300):
                total = new_total
                break
            total = new_total

        for i, evaluator in enumerate(evaluators):
            others = math.fsum(p.interference
                               for j, p in enumerate(current) if j != i)
            budget = cap - others
            feasible = sorted(
                (p for p in pools[i] if p.interference <= budget),
                key=lambda p: p.rate, reverse=True)
            seeds = feasible[:search.top_candidates]
            if current[i] not in seeds:
                seeds.append(current[i])
            best = current[i]
            for seed in seeds:
                candidate = _refine(evaluator, seed, budget, search)
                if candidate.rate > best.rate:
                    best = candidate
            current[i] = best

        # Rebalance over everything priced so far; stop once the split
        # cannot beat the polished incumbent.
        candidate = _allocate([ev.known_points() for ev in evaluators], cap)
        if (candidate is None
                or math.fsum(p.rate for p in candidate)
                <= math.fsum(p.rate for p in current)):
            break
        current = candidate

    return _result(current, cap, sum(ev.evaluations for ev in evaluators),
                   sweeps, search)


def objective_surface(model: NetworkModel, omega_grid: Sequence[float],
                      theta_grid: Sequence[float], su_index: int = 0,
                      *, ideal_sensing: bool = False,
                      evaluator: Optional[SuEvaluator] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Dense (rate, interference) maps over a policy grid for one user.

    Shares the evaluator code path with the solver, so surface values are
    bit-identical to pointwise analytic evaluation.
    """
    if evaluator is None:
        evaluator = SuEvaluator(model, su_index, ideal_sensing=ideal_sensing)
    rates = np.empty((len(omega_grid), len(theta_grid)))
    loads = np.empty_like(rates)
    for a, omega in enumerate(omega_grid):
        for b, theta in enumerate(theta_grid):
            point = evaluator.evaluate(omega, theta)
            rates[a, b] = point.rate
            loads[a, b] = point.interference
    return rates, loads
