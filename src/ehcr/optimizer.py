"""Search for rate-maximizing policy parameters under the interference cap.

Each user's rate and primary-side load depend only on that user's own
(spend fraction, gain cutoff) pair; the cap couples users purely through
a shared interference budget.  The solver therefore grids each user's
plane once behind a memoizing evaluator, splits the budget exactly over
the priced points by folding per-user rate/load trade-off frontiers
together, polishes each user's share with nested local grids, and splits
the budget again over everything priced.

The evaluator prices one spend fraction at many cutoffs in one stacked
pass, so every grid is walked one omega row at a time.  A stack's spend
laws and the gain integral of every spend level read the user's channel
statistics only; the battery chain and what it weights read the rest.
The coarse grid is walked for all users together, and users with
identical channel statistics (say, users that differ only in harvest
rate or in their gain towards the primary) share each stack's spend laws
and level integrals.  The coarse and refine grids all sit on one integer
lattice, so a policy point reached twice has one cache key.  Everything
is deterministic for a given model and search configuration, and no
point's value depends on which users shared its stacks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .battery import TransitionBuilder, avg_energy, battery_outage
from .model import NetworkModel, PolicyParams, harvest_pmf
from .policy import LevelSkeleton, PolicyPmf, level_skeleton, transmit_row
from .probing import GainDistribution, estimator_variances
from .rate import (PerSuRate, interference_load, level_gains, level_weights,
                   rate_sum, transmission_outage)
from .sensing import sensing_stats
from .workspace import Workspace


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


def check_search(search: SearchConfig) -> None:
    """Reject a search that has no grid or cannot leave the coarse grid.

    The coarse grid needs a point on each axis and a finite, positive
    cutoff range with a set cap above the floor (its theta axis is
    logarithmic).  Each refine level spans one step of the level before
    it, so with 2 or 3 points per axis its grid never shrinks below a
    coarse cell.  A negative count of refine levels or of refine seeds has
    no meaning (sliced or raised to, it would silently seed almost every
    coarse cell or run the coarse grid alone).  The message starts with
    the name of the offending field.
    """
    for name in ("omega_points", "theta_points"):
        if getattr(search, name) < 1:
            raise ValueError(f"{name} must be >= 1")
    for name in ("refine_levels", "top_candidates"):
        if getattr(search, name) < 0:
            raise ValueError(f"{name} must be >= 0")
    for name in ("theta_floor", "theta_cap"):
        value = getattr(search, name)
        if value is not None and not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0")
    cap = search.theta_cap
    if cap is not None and cap <= search.theta_floor:
        raise ValueError("theta_cap must exceed theta_floor")
    if search.refine_points < 4:
        raise ValueError("refine_points must be >= 4: with fewer the refine "
                         "grids never shrink below a coarse cell")


# A row stacks at most this many spend-scatter entries, cutoffs times
# (K+1)^2: nine cutoffs at K = 80 and one from K = 181 on, so a stack
# never holds more than about 512 KB of scatters unless one alone does.
STACK_ENTRIES = 2 ** 16


class PricedRow(NamedTuple):
    """Every analytic output of one spend fraction at a stack of cutoffs.

    Each array has one entry (or row) per cutoff of ``pmf``.  ``gains``
    is a view into the pricing evaluator's workspace, and so are ``pmf``'s
    arrays when they were computed there (by :func:`_price_rows`): each
    stays valid until that evaluator prices its next stack.  Copy what
    must outlive it.  The transition matrices are not priced (see
    :meth:`~ehcr.battery.TransitionBuilder.steady_state`).
    """

    pmf: PolicyPmf
    gains: Tuple[Optional[np.ndarray], ...]  # rate.level_gains of pmf
    steady_state: np.ndarray         # (cutoffs, K+1)
    rate: PerSuRate
    interference: np.ndarray
    avg_energy: np.ndarray
    battery_outage: np.ndarray
    transmission_outage: np.ndarray


class SuEvaluator:
    """Memoized analytic chain for one user, priced one omega row at a time.

    Sensing statistics, the estimator, the harvest law and the clamp-shift
    table are policy-independent, so they are built once.  The spend
    levels of a policy (which battery level spends how many cells) depend
    on omega only, so a row builds them once; a cutoff only rescales
    their gain edges.  :meth:`evaluate_row` therefore prices the uncached
    cutoffs of one omega together, up to ``STACK_ENTRIES // (K+1)**2`` at
    a time: one spend-law pass (:func:`~ehcr.policy.transmit_row`), then
    :meth:`price_row`: the level integrals of the rate bound, the stacked
    steady state censored straight from the spend scatter (no transition
    matrix is built; every exit mass is checked positive per cutoff), one
    gather of each level's steady-state weight, and one pass of the rate
    sum, load and outage terms.  Evaluators with equal :attr:`channel`
    keys may share a stack's spend laws and level integrals
    (:func:`_price_rows`).  A point's values do not depend on which
    cutoffs share its stack or which users share its spend laws.  Results
    are cached per (omega, theta); :meth:`evaluate` is a one-cutoff row.

    The large arrays of a stack (spend laws, the spend scatter and its
    censored blocks, level integrals and their block work arrays) live in
    the evaluator's :class:`~ehcr.workspace.Workspace`, allocated on
    first use and reused by every later stack, so a warm stack allocates
    almost nothing for glibc to hand back and fault in again.
    """

    def __init__(self, model: NetworkModel, index: int):
        self.index = index
        self.config = model.config
        self.profile = model.profiles[index]
        self.sensing = sensing_stats(self.config, self.profile)
        self.estimation = estimator_variances(self.config, self.profile,
                                              self.sensing)
        self.gain = GainDistribution.from_stats(self.estimation, self.sensing)
        harvest = harvest_pmf(self.profile.harvest_rate,
                              self.config.battery_cells)
        self._builder = TransitionBuilder(harvest, self.config.battery_cells,
                                          self.config.probe_cells)
        self._stack = max(1, STACK_ENTRIES
                          // (self.config.battery_cells + 1) ** 2)
        self._cache: Dict[Tuple[float, float], SuPoint] = {}
        self._work = Workspace()
        self._skeleton: Optional[Tuple[float, LevelSkeleton]] = None

    @property
    def evaluations(self) -> int:
        """Distinct policy points priced so far."""
        return len(self._cache)

    def known_points(self) -> List[SuPoint]:
        """Every point priced so far, in evaluation order."""
        return list(self._cache.values())

    @property
    def channel(self) -> tuple:
        """Everything a stack's spend laws and level integrals read,
        compared exactly.

        The system constants, the access point's noise and the sensing,
        estimation and fed-back gain statistics.  The harvest rate and
        the gain towards the primary are not in it: they reach only the
        battery chain and the load.
        """
        return (self.config, self.profile.ap_noise, self.sensing,
                self.estimation, self.gain)

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

    def price_row(self, pmf: PolicyPmf,
                  gains: Optional[Tuple[Optional[np.ndarray], ...]] = None
                  ) -> PricedRow:
        """Uncached analytic chain of one stack's spend laws.

        ``gains`` is the stack's :func:`~ehcr.rate.level_gains` under this
        user's :attr:`channel`, computed first when not given.  Every
        large array is priced in this evaluator's workspace (see
        :class:`PricedRow`).  The steady state is censored from the spend
        scatter (:meth:`~ehcr.battery.TransitionBuilder.steady_state`);
        no transition matrix is built.
        """
        config, work = self.config, self._work
        if gains is None:
            gains = level_gains(config, self.profile, self.sensing,
                                self.estimation, pmf, work)
        zeta = self._builder.steady_state(
            pmf.idle_law, self.sensing.pi_hat_idle, self.sensing.pi_hat_busy,
            pmf.skeleton, work)
        weights = level_weights(zeta, pmf)
        return PricedRow(
            pmf=pmf, gains=gains, steady_state=zeta,
            rate=rate_sum(config, self.sensing, pmf, gains, weights, work),
            interference=interference_load(config, self.profile,
                                           self.sensing, pmf, weights, work),
            avg_energy=avg_energy(zeta),
            battery_outage=battery_outage(zeta, config.probe_cells),
            transmission_outage=transmission_outage(zeta, pmf, self.sensing,
                                                    config.probe_cells))

    def evaluate_row(self, omega: float, thetas: Sequence[float]
                     ) -> List[SuPoint]:
        """Points (omega, theta) for every theta, cached ones reused.

        Repeated cutoffs are priced once and give the same point object.
        """
        omega = float(omega)
        thetas = [float(theta) for theta in thetas]
        _price_rows([self], omega, [thetas])
        return [self._cache[(omega, theta)] for theta in thetas]

    def _level_skeleton(self, omega: float) -> LevelSkeleton:
        """``omega``'s level skeleton, kept until another omega is priced."""
        if self._skeleton is None or self._skeleton[0] != omega:
            self._skeleton = (omega, level_skeleton(
                omega, self.config.probe_cells, self.config.battery_cells))
        return self._skeleton[1]

    def _uncached(self, omega: float, thetas: Sequence[float]) -> List[float]:
        """Distinct cutoffs of ``thetas`` not yet priced at ``omega``."""
        return list(dict.fromkeys(
            theta for theta in map(float, thetas)
            if (omega, theta) not in self._cache))

    def _store(self, omega: float, thetas: List[float],
               row: PricedRow) -> None:
        """Cache the points of one priced stack."""
        values = zip(thetas, row.rate.total.tolist(),
                     row.interference.tolist(), row.avg_energy.tolist(),
                     row.battery_outage.tolist(),
                     row.transmission_outage.tolist())
        for theta, rate, load, energy, outage, silent in values:
            self._cache[(omega, theta)] = SuPoint(
                params=PolicyParams(omega=omega, theta=theta), rate=rate,
                interference=load, avg_energy=energy,
                battery_outage=outage, transmission_outage=silent)

    def evaluate(self, omega: float, theta: float) -> SuPoint:
        """The point (omega, theta): a one-cutoff row."""
        return self.evaluate_row(omega, [theta])[0]


def _price_rows(evaluators: Sequence[SuEvaluator], omega: float,
                rows: Sequence[Sequence[float]]) -> None:
    """Price and cache the uncached cutoffs of one omega for every user.

    ``rows[i]`` holds the cutoffs of ``evaluators[i]``.  Users whose
    channel keys and uncached cutoffs are equal form a group: the group
    builds omega's level skeleton once and each stack's spend laws once,
    in the first member's workspace, the first member computes the
    stack's level integrals, and every later member reuses them.  Each
    user's stacks and cache order are those it would have alone.
    """
    groups: Dict[tuple, List[SuEvaluator]] = {}
    for evaluator, thetas in zip(evaluators, rows):
        todo = tuple(evaluator._uncached(omega, thetas))
        if todo:
            groups.setdefault((evaluator.channel, todo), []).append(evaluator)
    for (_, todo), group in groups.items():
        lead = group[0]
        reserve, cells = lead.config.probe_cells, lead.config.battery_cells
        skeleton = lead._level_skeleton(omega)
        for start in range(0, len(todo), lead._stack):
            stack = list(todo[start:start + lead._stack])
            pmf = transmit_row(omega, stack, reserve, cells, lead.gain,
                               skeleton, lead._work)
            gains = None
            for evaluator in group:
                row = evaluator.price_row(pmf, gains)
                evaluator._store(omega, stack, row)
                gains = row.gains


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of the policy search over all users."""

    params: Tuple[PolicyParams, ...]
    per_su: Tuple[SuPoint, ...]
    sum_rate: float     # bits/s
    aic_lhs: float      # total load on the primary [W]
    feasible: bool      # load within the cap (else least-loading point)
    evaluations: int    # distinct policy points priced
    sweeps: int         # budget-split passes run (0: infeasible at once)


class _Lattice:
    """Integer grid under every coarse and refine point of one search.

    Each coarse cell holds ``(refine_points - 1) ** refine_levels`` fine
    steps, so every refine level's offsets are whole steps.  omega is
    ``a / n`` and theta ``exp(log lo + b * step)``, with the indices
    clipped to the search box, so one point has exactly one cache key.
    """

    def __init__(self, search: SearchConfig, evaluator: SuEvaluator):
        cap = search.theta_cap
        if cap is None:
            cap = evaluator.default_theta_cap()
        lo, hi = search.theta_floor, max(cap, search.theta_floor * (1 + 1e-9))
        self.base = max(search.refine_points - 1, 1)
        self.fine = self.base ** search.refine_levels
        self.omega_steps = max(search.omega_points - 1, 1) * self.fine
        self.theta_steps = max(search.theta_points - 1, 1) * self.fine
        self.log_lo = math.log(lo)
        self.log_step = (math.log(hi) - self.log_lo) / self.theta_steps

    def omegas(self, a: np.ndarray) -> np.ndarray:
        return np.clip(a, 0, self.omega_steps) / self.omega_steps

    def thetas(self, b: np.ndarray) -> np.ndarray:
        return np.exp(self.log_lo + np.clip(b, 0, self.theta_steps)
                      * self.log_step)

    def index(self, params: PolicyParams) -> Tuple[int, int]:
        """Lattice indices nearest to a point."""
        return (round(params.omega * self.omega_steps),
                round((math.log(params.theta) - self.log_lo) / self.log_step))


def _coarse_points(search: SearchConfig, evaluators: Sequence[SuEvaluator],
                   lattices: Sequence[_Lattice]) -> None:
    """Every user's coarse grid, one omega row for all users at a time.

    The omega grid depends on the search only, so the users share it;
    users with one channel share each stack's spend laws.
    """
    rows = [lattice.thetas(lattice.fine * np.arange(search.theta_points))
            for lattice in lattices]
    first = lattices[0]
    for omega in first.omegas(first.fine * np.arange(search.omega_points)):
        _price_rows(evaluators, float(omega), rows)


def _refine(evaluator: SuEvaluator, lattice: _Lattice, start: SuPoint,
            budget: float, search: SearchConfig) -> SuPoint:
    """Shrinking local grids around one candidate, feasibility respected.

    Level l spans 2**l * base**(levels - l) fine steps either side of the
    incumbent in steps of 2**(l+1) * base**(levels - l - 1), the nested
    grids of ``refine_points`` per axis that shrink by 2 / base a level.
    """
    best = start
    levels = search.refine_levels
    for level in range(levels):
        half = 2 ** level * lattice.base ** (levels - level)
        offsets = (np.arange(search.refine_points)
                   * (2 * half // lattice.base) - half)
        a, b = lattice.index(best.params)
        thetas = lattice.thetas(b + offsets)
        for omega in lattice.omegas(a + offsets):
            for point in evaluator.evaluate_row(omega, thetas):
                if point.interference <= budget and point.rate > best.rate:
                    best = point
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
    point sets.  The last user's frontier is not folded: its rates rise
    with its load, so each partial takes the costliest step that still
    fits.  Ties go to the lower load, as a full fold would break them.
    Returns None when no combination fits the cap.
    """
    fronts = [_frontier(pts) for pts in per_su_points]
    # running partial solutions: loads, rates, and per-SU choice indices
    loads = np.zeros(1)
    rates = np.zeros(1)
    picks: List[np.ndarray] = []
    for f_loads, f_rates, _ in fronts[:-1]:
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

    f_loads, f_rates, _ = fronts[-1]
    last = f_loads.size - 1
    step = np.searchsorted(f_loads, cap - loads, side="right") - 1
    # the subtraction rounds: step back while the sum overshoots the cap,
    # forward while the next step's sum still fits
    while True:
        over = step >= 0
        over[over] = loads[over] + f_loads[step[over]] > cap
        if not over.any():
            break
        step[over] -= 1
    while True:
        fits = step < last
        fits[fits] = loads[fits] + f_loads[step[fits] + 1] <= cap
        if not fits.any():
            break
        step[fits] += 1
    partial = np.flatnonzero(step >= 0)
    if not partial.size:
        return None
    step = step[partial]
    # a cheaper step whose sum rounds to the same rate wins on load
    while True:
        same = step > 0
        same[same] = (rates[partial[same]] + f_rates[step[same] - 1]
                      == rates[partial[same]] + f_rates[step[same]])
        if not same.any():
            break
        step[same] -= 1
    total_rate = rates[partial] + f_rates[step]
    total_load = loads[partial] + f_loads[step]
    winner = int(np.lexsort((partial, total_load, -total_rate))[0])
    chosen = [p[partial[winner]] for p in picks] + [step[winner]]
    return [front[2][int(pick)] for front, pick in zip(fronts, chosen)]


def _result(points: Sequence[SuPoint], cap: float, evaluations: int,
            sweeps: int) -> OptimizationResult:
    load = math.fsum(p.interference for p in points)
    return OptimizationResult(
        params=tuple(p.params for p in points),
        per_su=tuple(points),
        sum_rate=math.fsum(p.rate for p in points),
        aic_lhs=load,
        feasible=load <= cap,
        evaluations=evaluations,
        sweeps=sweeps,
    )


def solve_p1(model: NetworkModel, search: Optional[SearchConfig] = None,
             *, evaluators: Optional[Sequence[SuEvaluator]] = None
             ) -> OptimizationResult:
    """Maximize the network sum-rate bound subject to the interference cap.

    Coarse-grids every user's plane and splits the interference budget
    exactly over the users' priced points, then refines the best few
    cells of each user within the budget the others leave and splits the
    budget again over everything priced, at most twice.  The returned
    selection is never worse than the exact budget split over every
    point priced along the way, so loosening the cap (with reused
    evaluators) never lowers the sum rate.  When even all-silent
    operation overloads the primary, the least-loading point is reported
    with ``feasible=False``.
    """
    search = search if search is not None else SearchConfig()
    if evaluators is None:
        evaluators = [SuEvaluator(model, i) for i in range(model.n_users)]
    cap = model.config.interference_cap

    # Probing load is policy-independent, so infeasibility is decidable
    # exactly before any search work.
    if math.fsum(ev.interference_floor for ev in evaluators) > cap:
        silent = [ev.evaluate(0.0, search.theta_floor) for ev in evaluators]
        return _result(silent, cap,
                       sum(ev.evaluations for ev in evaluators), 0)

    lattices = [_Lattice(search, ev) for ev in evaluators]
    _coarse_points(search, evaluators, lattices)
    current = _allocate([ev.known_points() for ev in evaluators], cap)
    if current is None:  # cap within rounding of the probing floor
        current = [ev.evaluate(0.0, search.theta_floor) for ev in evaluators]

    for passes in (1, 2):
        for i, (evaluator, lattice) in enumerate(zip(evaluators, lattices)):
            others = math.fsum(p.interference
                               for j, p in enumerate(current) if j != i)
            budget = cap - others
            feasible = sorted(
                (p for p in evaluator.known_points()
                 if p.interference <= budget),
                key=lambda p: p.rate, reverse=True)
            seeds = feasible[:search.top_candidates]
            if current[i] not in seeds:
                seeds.append(current[i])
            best = current[i]
            for seed in seeds:
                candidate = _refine(evaluator, lattice, seed, budget, search)
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
                   passes)


def objective_surface(model: NetworkModel, omega_grid: Sequence[float],
                      theta_grid: Sequence[float], su_index: int = 0,
                      *, evaluator: Optional[SuEvaluator] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Dense (rate, interference) maps over a policy grid for one user.

    Shares the evaluator code path with the solver, so surface values are
    bit-identical to pointwise analytic evaluation.
    """
    if evaluator is None:
        evaluator = SuEvaluator(model, su_index)
    rates = np.empty((len(omega_grid), len(theta_grid)))
    loads = np.empty_like(rates)
    for a, omega in enumerate(omega_grid):
        for b, point in enumerate(evaluator.evaluate_row(omega, theta_grid)):
            rates[a, b] = point.rate
            loads[a, b] = point.interference
    return rates, loads
