"""Slot-by-slot Monte Carlo of the harvesting uplink.

This is the independent oracle for the analytic chain: occupancy comes
from actually walking the battery recursion, spends from flooring each
slot's drain at its sampled gain (the rule of :func:`transmit_units`, not
the spend law the analytics price), and rate and interference from
per-slot closed-form samples.  Users get independent substreams keyed
by (seed, user index), so adding a user never perturbs the others'
sample paths.

Only the battery recursion depends on the level a slot starts from, so
only it runs in a Python loop, over plain integers and floats.  Every
level-independent quantity (occupancy, detector verdicts, harvests, the
fed-back gain and its derating factor) is drawn or computed with numpy
before the walk, and everything the walked levels decide (who probed,
the spends, SNRs, rate and interference samples) is derived with numpy
after it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .analysis import NetworkAnalysis
from .model import NetworkModel, PolicyParams
from .policy import FLOOR_NUDGE, check_params, derating
from .probing import GainDistribution, estimator_variances
from .sensing import sensing_stats

# Below this many slots the empirical aggregates are statistically
# meaningless at the declared tolerances, so comparisons refuse to pass.
MIN_COMPARE_SLOTS = 1000

# Slots the battery walk converts to Python lists at a time.
WALK_CHUNK = 4096


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

    @property
    def overflow_slots(self) -> int:
        """Slots whose harvest was clipped by the full battery."""
        kept = self.state_after - (self.state_before - self.outflow)
        return int(np.sum(kept < self.harvested))

    @property
    def outflow(self) -> np.ndarray:
        return self.spent + self.probe_cells * self.probed.astype(np.int64)

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


def _walk_battery(level: int, cells: int, reserve: int, omega: float,
                  sensed_busy: np.ndarray, frac: np.ndarray,
                  harvested: np.ndarray) -> Tuple[np.ndarray, int]:
    """Battery level entering every slot, and the level after the last.

    A sensed-idle slot with the reserve covered pays the probe plus the
    data spend of :func:`transmit_units`, i.e. drains
    ``max(floor(omega * level * frac + FLOOR_NUDGE), reserve)`` cells;
    then the harvest arrives and the level clamps at `cells`.  The slots
    go through Python lists one chunk at a time, so the loop touches no
    numpy scalars and the lists stay small next to the trace.
    """
    slots = sensed_busy.size
    state_before = np.empty(slots, dtype=np.int64)
    for start in range(0, slots, WALK_CHUNK):
        stop = start + WALK_CHUNK
        before: List[int] = []
        record = before.append
        for busy_t, frac_t, harvest_t in zip(sensed_busy[start:stop].tolist(),
                                             frac[start:stop].tolist(),
                                             harvested[start:stop].tolist()):
            record(level)
            if not busy_t and level >= reserve:
                # frac <= 1 and the checked omega <= 1 keep the drain
                # within the level, so it never needs a clamp at 0; the
                # operand order matches transmit_units, and int() floors
                # the positive product.
                drain = int(omega * level * frac_t + FLOOR_NUDGE)
                level -= drain if drain > reserve else reserve
            level += harvest_t
            if level > cells:
                level = cells
        state_before[start:stop] = before
    return state_before, level


def _simulate_su(model: NetworkModel, index: int, params: PolicyParams,
                 slots: int, seed: int, assume_idle_gains: bool,
                 ideal_sensing: bool, start_level: Optional[int]) -> SuTrace:
    config = model.config
    profile = model.profiles[index]
    sensing = sensing_stats(config, profile, ideal=ideal_sensing)
    est = estimator_variances(config, profile, sensing)
    dist = GainDistribution.from_stats(est, sensing)

    cells = config.battery_cells
    probe_cells = config.probe_cells
    unit_power = config.unit_power
    means = dist.means

    level = cells // 2 if start_level is None else int(start_level)
    if not 0 <= level <= cells:
        raise ValueError("start level must lie within the battery range")

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
        np.multiply(gain, -means[1], out=gain, where=busy)
        np.multiply(gain, -means[0], out=gain, where=~busy)
    frac = derating(gain, params.theta)

    state_before, level = _walk_battery(level, cells, probe_cells,
                                        params.omega, sensed_busy, frac,
                                        harvested)
    state_after = np.empty_like(state_before)
    state_after[:-1] = state_before[1:]
    state_after[-1] = level
    probed = ~sensed_busy & (state_before >= probe_cells)
    gain[~probed] = 0.0

    # the walk's drain less the reserve, which transmit_units floors at 0;
    # the full-length temporaries go before the samples are allocated
    spent = np.zeros(slots, dtype=np.int64)
    spend = np.floor(params.omega * state_before[probed] * frac[probed]
                     + FLOOR_NUDGE).astype(np.int64) - probe_cells
    spent[probed] = np.maximum(spend, 0)
    del frac, spend

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
             ideal_sensing: bool = False,
             start_level: Optional[int] = None) -> SimTrace:
    """Run every user for `slots` frames and collect the sample paths.

    Each user's policy is checked before any slot runs.  Per user, numpy
    draws the whole run and prices the fed-back gains, a Python loop
    walks the battery levels, and numpy derives the per-slot spends and
    samples from the walked path (see the module docstring).

    `assume_idle_gains` draws the fed-back gain from the idle-band law
    even in missed-detection slots, mirroring the analytic chain's
    idle-only spend law; the default draws by the true occupancy, so the
    gap between the two behaviors is measurable in the reports.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    if len(params_list) != model.n_users:
        raise ValueError("one PolicyParams per user profile is required")
    for params in params_list:
        check_params(params)
    sus = tuple(
        _simulate_su(model, i, params, slots, seed, assume_idle_gains,
                     ideal_sensing, start_level)
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
            rows.append(
                f"{'PASS' if c.passed else 'FAIL'} {where} {c.name}: "
                f"{values}dev={c.deviation:.3g} tol={c.tolerance:g} ({c.kind})")
        return rows


def _rel_dev(sim: float, ref: float) -> float:
    if sim == ref:
        return 0.0
    return abs(sim - ref) / max(abs(ref), 1e-300)


def compare(trace: SimTrace, analysis: NetworkAnalysis, *,
            tv_tol: float = 0.01, rel_tol: float = 0.01,
            abs_tol: float = 0.005) -> CompareReport:
    """Grade a simulation run against the analytic chain.

    Occupancy is graded in total variation, averaged quantities (rate,
    interference, mean level) relatively, probabilities absolutely.  Runs
    shorter than MIN_COMPARE_SLOTS are flagged insufficient and never
    pass.
    """
    if len(trace.sus) != len(analysis.sus):
        raise ValueError("trace and analysis cover different user counts")
    checks: List[CompareCheck] = []

    def grade(name: str, su_index: Optional[int], simulated: float,
              analytic: float, kind: str) -> None:
        if kind == "relative":
            dev, tol = _rel_dev(simulated, analytic), rel_tol
        else:
            dev, tol = abs(simulated - analytic), abs_tol
        checks.append(CompareCheck(
            name=name, su_index=su_index, simulated=simulated,
            analytic=analytic, deviation=dev, tolerance=tol, kind=kind,
            passed=bool(dev <= tol)))

    for su, ana in zip(trace.sus, analysis.sus):
        tv = 0.5 * float(np.abs(su.empirical_zeta
                                - ana.chain.steady_state).sum())
        checks.append(CompareCheck(
            name="zeta", su_index=su.index, simulated=math.nan,
            analytic=math.nan, deviation=tv, tolerance=tv_tol, kind="tv",
            passed=bool(tv <= tv_tol)))
        for name, sim_val, ref_val, kind in (
                ("avg_energy", su.avg_energy, ana.chain.avg_energy,
                 "relative"),
                ("rate", su.mean_rate, ana.rate.total, "relative"),
                ("interference", su.mean_interference, ana.interference,
                 "relative"),
                ("battery_outage", su.battery_outage, ana.chain.outage,
                 "absolute"),
                ("transmission_outage", su.transmission_outage,
                 ana.transmission_outage, "absolute")):
            grade(name, su.index, sim_val, ref_val, kind)
    grade("sum_rate", None, trace.sum_rate, analysis.breakdown.sum_rate,
          "relative")
    grade("aic_lhs", None, trace.aic_lhs, analysis.breakdown.aic_lhs,
          "relative")
    return CompareReport(checks=tuple(checks), slots=trace.slots,
                         sufficient=trace.slots >= MIN_COMPARE_SLOTS)
