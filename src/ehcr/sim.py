"""Slot-by-slot Monte Carlo of the harvesting uplink.

This is the independent oracle for the analytic chain: occupancy comes
from actually walking the battery recursion, spends from flooring each
slot's drain at its sampled gain (the rule of :func:`transmit_units`, not
the spend law the analytics price), and rate and interference from
per-slot closed-form samples.  Users get independent substreams keyed
by (seed, user index), so adding a user never perturbs the others'
sample paths.

Only the battery recursion depends on the level a slot starts from.
Every level-independent quantity (occupancy, detector verdicts, harvests,
the fed-back gain and its derating factor) is drawn or computed with
numpy before the walk, and everything the walked levels decide (who
probed, the spends, SNRs, rate and interference samples) is derived with
numpy after it.  The walk steps rows of about sqrt(slots) slots at once
with numpy from a guessed start and re-walks a wrongly guessed row with a
scalar loop only until it meets the true path (see :func:`_walk_battery`),
so the sample path is the one a single scalar loop gives, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import NetworkAnalysis
from .model import NetworkModel, PolicyParams, _is_integer
from .policy import FLOOR_NUDGE, check_params, derating
from .probing import GainDistribution, estimator_variances
from .sensing import sensing_stats

# Below this many slots the empirical aggregates are statistically
# meaningless at the declared tolerances, so comparisons refuse to pass.
MIN_COMPARE_SLOTS = 1000

# compare()'s tolerances: total variation of the occupancy law, relative
# deviation of averaged quantities, absolute deviation of probabilities.
TV_TOL, REL_TOL, ABS_TOL = 0.01, 0.01, 0.005

# Steps of the lockstep pass whose inputs are transposed at a time.
LOCKSTEP_BLOCK = 64

# A re-walk takes the inputs of this many slots of its row from one bulk
# conversion over all rows, and the rest of the row when it gets there.
HEAD = 16


@dataclass(frozen=True)
class SuTrace:
    """Sample path of one user, slot-aligned arrays plus aggregates."""

    index: int
    params: PolicyParams
    cells: int
    probe_cells: int
    busy: np.ndarray            # true occupancy per slot (bool)
    sensed_busy: np.ndarray     # detector verdict per slot (bool)
    state_before: np.ndarray    # battery level entering the slot [cells]
    state_after: np.ndarray     # battery level leaving the slot [cells]
    probed: np.ndarray          # probe reserve actually paid (bool)
    gain: np.ndarray            # fed-back gain estimate, 0 when unprobed
    spent: np.ndarray           # data cells spent per slot
    harvested: np.ndarray       # cells arriving per slot (pre-clamp)
    rate_sample: np.ndarray     # bits/s contribution of the slot
    interference_sample: np.ndarray  # watts seen by the primary

    @property
    def slots(self) -> int:
        return self.state_before.size

    @property
    def empirical_zeta(self) -> np.ndarray:
        """Occupancy histogram over battery levels."""
        counts = np.bincount(self.state_before, minlength=self.cells + 1)
        return counts / max(self.slots, 1)

    @property
    def avg_energy(self) -> float:
        return float(self.state_before.mean()) if self.slots else math.nan

    @property
    def battery_outage(self) -> float:
        if not self.slots:
            return math.nan
        return float(np.mean(self.state_before <= self.probe_cells))

    @property
    def transmission_outage(self) -> float:
        """Fraction of sensed-idle slots that sent no data."""
        idle = ~self.sensed_busy
        n_idle = int(idle.sum())
        if n_idle == 0:
            return math.nan
        return float(np.sum(idle & (self.spent == 0)) / n_idle)

    @property
    def mean_rate(self) -> float:
        return float(self.rate_sample.mean()) if self.slots else math.nan

    @property
    def mean_interference(self) -> float:
        if not self.slots:
            return math.nan
        return float(self.interference_sample.mean())

    @property
    def probe_skips(self) -> int:
        """Sensed-idle slots skipped because the reserve was not covered."""
        return int(np.sum(~self.sensed_busy & ~self.probed))

    def transition_counts(self) -> np.ndarray:
        """counts[i, j] = slots that moved battery level j -> i."""
        counts = np.zeros((self.cells + 1, self.cells + 1))
        np.add.at(counts, (self.state_after, self.state_before), 1.0)
        return counts


@dataclass(frozen=True)
class SimTrace:
    """Joint sample path of every user for one seeded run."""

    sus: Tuple[SuTrace, ...]
    slots: int
    seed: int
    assume_idle_gains: bool

    @property
    def sum_rate(self) -> float:
        return math.fsum(su.mean_rate for su in self.sus)

    @property
    def aic_lhs(self) -> float:
        return math.fsum(su.mean_interference for su in self.sus)


def _meet_slots(level: int, cells: int, reserve: int, omega: float,
                slots: Iterable[Tuple[bool, float, int, int]],
                record: Callable[[int], None]) -> Optional[int]:
    """Walk `level` through (sensed busy, derating, harvest, guessed left)
    slots until it meets the guessed walk.

    A sensed-idle slot with the reserve covered drains the probe plus the
    data spend of :func:`transmit_units`; then the harvest arrives and the
    level clamps at `cells`.  `record` gets each level left after the
    drain up to the first that equals the guessed one, from where the walk
    is the guessed one.  Returns None where the walk met the guess, else
    the level after the last slot.
    """
    for busy_t, frac_t, harvest_t, guess_t in slots:
        if not busy_t and level >= reserve:
            # frac <= 1 and the checked omega <= 1 keep the drain within
            # the level, so it never needs a clamp at 0; the operand order
            # matches transmit_units, and int() floors the positive product.
            drain = int(omega * level * frac_t + FLOOR_NUDGE)
            level -= drain if drain > reserve else reserve
        if level == guess_t:
            return None
        record(level)
        level += harvest_t
        if level > cells:
            level = cells
    return level


def _lockstep(guess: int, cells: int, reserve: int, omega: float,
              busy: np.ndarray, frac: np.ndarray, harvest: np.ndarray,
              left: np.ndarray) -> None:
    """Walk every row of the (rows, width) inputs at once from `guess`.

    Each step advances one slot of every row with :func:`_meet_slots`'
    arithmetic on whole-number floats: ``(omega * level) * frac +
    FLOOR_NUDGE`` floored is the bits of the scalar ``int(...)``.  Fills
    `left` (same shape) with the level left after each slot's drain.
    """
    rows, width = busy.shape
    level = np.full(rows, float(guess))
    pays = np.empty(rows, dtype=bool)
    drain = np.empty(rows)
    for first in range(0, width, LOCKSTEP_BLOCK):
        cols = slice(first, first + LOCKSTEP_BLOCK)
        # step-major copies, so each step reads contiguous rows; a
        # sensed-busy slot needs more than a full battery to pay
        frac_t = frac[:, cols].T.copy()
        harvest_t = harvest[:, cols].T.astype(float)
        needs_t = np.where(busy[:, cols].T, cells + 1.0, float(reserve))
        left_t = np.empty_like(frac_t)
        for out, f, h, needs in zip(left_t, frac_t, harvest_t, needs_t):
            np.greater_equal(level, needs, out=pays)
            np.multiply(level, omega, out=drain)
            drain *= f
            drain += FLOOR_NUDGE
            np.floor(drain, out=drain)
            np.maximum(drain, reserve, out=drain)
            drain *= pays
            np.subtract(level, drain, out=out)
            np.add(out, h, out=level)
            np.minimum(level, cells, out=level)
        left[:, cols] = left_t.T


def _walk_battery(level: int, cells: int, reserve: int, omega: float,
                  sensed_busy: np.ndarray, frac: np.ndarray,
                  harvested: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """Battery level entering every slot, each slot's drain, and the level
    after the last slot, as the battery recursion one slot at a time gives.

    The run's first ``slots // width`` rows of ``width = isqrt(slots)``
    slots are walked at once from the guess ``cells // 2`` (see
    :func:`_lockstep`).  Then, in order, each row whose true start (the
    true end of the row before) differs from the guess is re-walked by
    :func:`_meet_slots` from its true start until it meets the lockstep
    path; from there the two agree, because a slot's next level depends
    only on its level and its draws, so the row's true end is the
    lockstep end.  The last ``slots mod width`` slots are walked by
    :func:`_meet_slots` against a guessed level of -1, which no walk
    meets.

    Every walk records the level left after each slot's drain; the
    levels entering the slots and the drains follow from it with numpy.
    """
    slots = sensed_busy.size
    state_before = np.empty(slots, dtype=np.int64)
    state_before[0] = level
    left = np.empty(slots, dtype=np.int64)
    guess = cells // 2
    fields = (sensed_busy, frac, harvested, left)

    def rest(first: int, stop: int):
        """The four fields of slots [first, stop), converted on first use."""
        yield from zip(*(x[first:stop].tolist() for x in fields))

    def rewalk(level: int, first: int, stop: int, head: Sequence[list],
               end: Optional[int]) -> int:
        """True end of slots [first, stop) walked from `level` against the
        guessed walk in `left` (ending at `end`); `head` lists its start."""
        out: List[int] = []
        walked = _meet_slots(level, cells, reserve, omega,
                             chain(zip(*head), rest(first + len(head[0]),
                                                    stop)), out.append)
        left[first:first + len(out)] = out
        return end if walked is None else walked

    width = math.isqrt(slots)
    rows = slots // width
    stop = rows * width
    grid = [x[:stop].reshape(rows, width) for x in fields]
    _lockstep(guess, cells, reserve, omega, *grid)
    ends = np.minimum(grid[3][:, -1] + grid[2][:, -1], cells).tolist()
    heads = [x[:, :HEAD].tolist() for x in grid]
    for row, end in enumerate(ends):
        if level != guess:
            end = rewalk(level, row * width, (row + 1) * width,
                         [h[row] for h in heads], end)
        level = end
    left[stop:] = -1
    level = rewalk(level, stop, slots, [x[stop:].tolist() for x in fields],
                   None)

    np.add(left[:-1], harvested[:-1], out=state_before[1:])
    np.minimum(state_before, cells, out=state_before)
    drain = np.subtract(state_before, left, out=left)
    return state_before, drain, level


def _simulate_su(model: NetworkModel, index: int, params: PolicyParams,
                 slots: int, seed: int, assume_idle_gains: bool,
                 level: int) -> SuTrace:
    config = model.config
    profile = model.profiles[index]
    sensing = sensing_stats(config, profile)
    est = estimator_variances(config, profile, sensing)
    dist = GainDistribution.from_stats(est, sensing)

    cells = config.battery_cells
    probe_cells = config.probe_cells
    unit_power = config.unit_power
    means = dist.means

    rng = np.random.default_rng((seed, index))
    busy = rng.random(slots) < (1.0 - config.prior_idle)
    detect_u = rng.random(slots)
    sensed_busy = np.where(busy, detect_u < sensing.p_d,
                           detect_u < sensing.p_fa)
    del detect_u
    harvested = rng.poisson(profile.harvest_rate, slots).astype(
        np.int64, copy=False)
    # fed-back gain of every slot, -means[eps] * log1p(-u), built in the
    # buffer of its uniform draws; only probed slots keep it
    gain = rng.random(slots)
    np.log1p(np.negative(gain, out=gain), out=gain)
    if assume_idle_gains:
        gain *= -means[0]
    else:
        gain *= np.where(busy, -means[1], -means[0])
    frac = derating(gain, params.theta)

    state_before, spent, level = _walk_battery(
        level, cells, probe_cells, params.omega, sensed_busy, frac, harvested)
    del frac
    state_after = np.empty_like(state_before)
    state_after[:-1] = state_before[1:]
    state_after[-1] = level
    probed = ~sensed_busy & (state_before >= probe_cells)
    gain[~probed] = 0.0
    # a probed slot's drain less the reserve is the data spend of
    # transmit_units; every other slot drains nothing
    spent -= probe_cells * probed

    rate_sample = np.zeros(slots)
    sent = np.flatnonzero(spent)
    e = busy[sent]
    power = spent[sent] * unit_power
    snr = power / (np.where(e, est.var_err_h1, est.var_err_h0) * power
                   + profile.ap_noise
                   + np.where(e, est.pu_interference_var, 0.0))
    rate_sample[sent] = (config.data_fraction * config.bandwidth
                         * np.log2(1.0 + gain[sent] * snr))

    interference_sample = np.zeros(slots)
    heard = busy & probed
    interference_sample[heard] = profile.su_pu_var * (
        spent[heard] * unit_power
        + config.probe_fraction * config.probe_power)

    return SuTrace(index=index, params=params, cells=cells,
                   probe_cells=probe_cells, busy=busy,
                   sensed_busy=sensed_busy, state_before=state_before,
                   state_after=state_after, probed=probed, gain=gain,
                   spent=spent, harvested=harvested, rate_sample=rate_sample,
                   interference_sample=interference_sample)


def simulate(model: NetworkModel, params_list: Sequence[PolicyParams],
             slots: int, seed: int = 0, *, assume_idle_gains: bool = False,
             start_level: Optional[int] = None) -> SimTrace:
    """Run every user for `slots` frames and collect the sample paths.

    Each user's policy is checked before any slot runs.  Per user, numpy
    draws the whole run and prices the fed-back gains, the battery walk
    gives the levels and drains, and numpy derives the per-slot spends
    and samples from them (see the module docstring).

    `assume_idle_gains` draws the fed-back gain from the idle-band law
    even in missed-detection slots, mirroring the analytic chain's
    idle-only spend law; the default draws by the true occupancy, so the
    gap between the two behaviors is measurable in the reports.
    ``slots``, ``seed`` and ``start_level`` are integers, as
    :func:`~ehcr.model.validate` takes the cell counts: a ``bool`` or a
    float is rejected whatever its value.
    """
    if not (_is_integer(slots) and slots >= 1):
        raise ValueError("slots must be an integer >= 1")
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError("seed must be an integer >= 0")
    if len(params_list) != model.n_users:
        raise ValueError("one PolicyParams per user profile is required")
    for params in params_list:
        check_params(params)
    cells = model.config.battery_cells
    level = cells // 2 if start_level is None else start_level
    if not (_is_integer(level) and 0 <= level <= cells):
        raise ValueError("start level must be a whole number of cells "
                         "within the battery range")
    sus = tuple(
        _simulate_su(model, i, params, slots, seed, assume_idle_gains,
                     int(level))
        for i, params in enumerate(params_list))
    return SimTrace(sus=sus, slots=slots, seed=seed,
                    assume_idle_gains=assume_idle_gains)


@dataclass(frozen=True)
class CompareCheck:
    """One empirical-vs-analytic comparison at a declared tolerance."""

    name: str
    su_index: Optional[int]   # None for network totals
    simulated: float
    analytic: float
    deviation: float
    tolerance: float
    kind: str                 # 'tv' | 'relative' | 'absolute'
    passed: bool
    # batch-means standard error of `simulated`; None for the zeta row
    se: Optional[float] = None


@dataclass(frozen=True)
class CompareReport:
    """All comparison rows plus sufficiency of the sample size."""

    checks: Tuple[CompareCheck, ...]
    slots: int
    sufficient: bool

    @property
    def passed(self) -> bool:
        return self.sufficient and all(c.passed for c in self.checks)

    def lines(self) -> List[str]:
        rows = []
        if not self.sufficient:
            rows.append(f"INSUFFICIENT: {self.slots} slots "
                        f"(need >= {MIN_COMPARE_SLOTS})")
        for c in self.checks:
            where = "net" if c.su_index is None else f"su{c.su_index + 1}"
            # vector-valued checks carry no scalar sim/ref summary
            values = ("" if math.isnan(c.simulated) and math.isnan(c.analytic)
                      else f"sim={c.simulated:.6g} ref={c.analytic:.6g} ")
            if c.se is not None:
                values += f"se={c.se:.3g} "
            rows.append(
                f"{'PASS' if c.passed else 'FAIL'} {where} {c.name}: "
                f"{values}dev={c.deviation:.3g} tol={c.tolerance:g} ({c.kind})")
        return rows


def _batch_means(samples: np.ndarray) -> np.ndarray:
    """Means of isqrt(n) consecutive batches of one n-slot sample path,
    n // isqrt(n) slots each (the last n mod that slots are left out)."""
    batches = math.isqrt(samples.size)
    size = samples.size // batches
    # a sum in the samples' own type: exact counts for flags and levels
    return samples[:batches * size].reshape(batches, size).sum(axis=1) / size


def _standard_error(batch_means: np.ndarray) -> float:
    """Batch-means standard error of a path's mean.

    Batches of about sqrt(n) slots are long enough that the correlation
    along the battery walk stays mostly within a batch, so the spread of
    the batch means over the square root of their count estimates the
    error of the mean of the single path (Flegal & Jones, Ann. Statist.
    38(2), 2010).  NaN with fewer than two batches.
    """
    count = batch_means.size
    if count < 2:
        return math.nan
    spread = batch_means - batch_means.mean()
    return math.sqrt(float(spread @ spread) / ((count - 1) * count))


def _rel_dev(sim: float, ref: float) -> float:
    if sim == ref:
        return 0.0
    return abs(sim - ref) / max(abs(ref), 1e-300)


def compare(trace: SimTrace, analysis: NetworkAnalysis) -> CompareReport:
    """Grade a simulation run against the analytic chain.

    Occupancy is graded in total variation, averaged quantities (rate,
    interference, mean level) relatively, probabilities absolutely.  Runs
    shorter than MIN_COMPARE_SLOTS are flagged insufficient and never
    pass.  Every scalar row carries the batch-means standard error of its
    simulated value (:func:`_standard_error`); it is reported only, and
    the module's tolerances (``TV_TOL``, ``REL_TOL``, ``ABS_TOL``) alone
    decide pass or fail.
    """
    if len(trace.sus) != len(analysis.sus):
        raise ValueError("trace and analysis cover different user counts")
    checks: List[CompareCheck] = []

    def grade(name: str, su_index: Optional[int], simulated: float,
              analytic: float, kind: str, batch_means: np.ndarray) -> None:
        if kind == "relative":
            dev, tol = _rel_dev(simulated, analytic), REL_TOL
        else:
            dev, tol = abs(simulated - analytic), ABS_TOL
        checks.append(CompareCheck(
            name=name, su_index=su_index, simulated=simulated,
            analytic=analytic, deviation=dev, tolerance=tol, kind=kind,
            passed=bool(dev <= tol), se=_standard_error(batch_means)))

    # network totals: batch means add up over users, as the totals do
    net_rate = net_load = 0.0
    for su, ana in zip(trace.sus, analysis.sus):
        tv = 0.5 * float(np.abs(su.empirical_zeta
                                - ana.chain.steady_state).sum())
        checks.append(CompareCheck(
            name="zeta", su_index=su.index, simulated=math.nan,
            analytic=math.nan, deviation=tv, tolerance=TV_TOL, kind="tv",
            passed=bool(tv <= TV_TOL)))
        rate = _batch_means(su.rate_sample)
        load = _batch_means(su.interference_sample)
        net_rate = net_rate + rate
        net_load = net_load + load
        # the outage is a ratio of two slot means, silent over sensed-idle
        # slots; its error is that of the mean of silent - ratio * idle
        # over the idle share (none without a sensed-idle slot)
        idle = ~su.sensed_busy
        idle_means = _batch_means(idle)
        share = idle_means.mean()
        ratio = su.transmission_outage
        outage = np.empty(0) if share == 0.0 else (
            _batch_means(idle & (su.spent == 0)) - ratio * idle_means) / share
        for name, sim_val, ref_val, kind, batches in (
                ("avg_energy", su.avg_energy, ana.chain.avg_energy,
                 "relative", _batch_means(su.state_before)),
                ("rate", su.mean_rate, ana.rate.total, "relative", rate),
                ("interference", su.mean_interference, ana.interference,
                 "relative", load),
                ("battery_outage", su.battery_outage, ana.chain.outage,
                 "absolute",
                 _batch_means(su.state_before <= su.probe_cells)),
                ("transmission_outage", ratio, ana.transmission_outage,
                 "absolute", outage)):
            grade(name, su.index, sim_val, ref_val, kind, batches)
    grade("sum_rate", None, trace.sum_rate, analysis.breakdown.sum_rate,
          "relative", net_rate)
    grade("aic_lhs", None, trace.aic_lhs, analysis.breakdown.aic_lhs,
          "relative", net_load)
    return CompareReport(checks=tuple(checks), slots=trace.slots,
                         sufficient=trace.slots >= MIN_COMPARE_SLOTS)
