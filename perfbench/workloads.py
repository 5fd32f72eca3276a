"""The benchmark's workloads: inputs made from a seed, a timed body, gates.

Each workload's ``body`` runs one repetition from fresh evaluators, so
repetitions do the same work and give bit-identical outputs.  Layers are
looked up through their modules (``optimizer.solve_p1``,
``optimizer.SuEvaluator``, ``analysis.analyze``, ``sim.simulate``), which
is where the traced run substitutes its spans.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

import gates
from program import analysis, optimizer, sim
from ehcr.model import PolicyParams, SuProfile, SystemConfig, validate

# Sum rate [bit/s] that solve_p1 reached on the README two-user model with
# the default SearchConfig when this benchmark was written.
README_SUM_RATE = 49545.81669949653

README_CONFIG = SystemConfig(interference_cap=1.0)
README_PROFILES = (SuProfile(), SuProfile(harvest_rate=10.0))


# ------------------------------------------------------------ policy search

@dataclass(frozen=True)
class LadderInputs:
    config: SystemConfig
    profiles: Tuple[SuProfile, ...]
    search: optimizer.SearchConfig
    caps: Tuple[float, ...]


class Ladder:
    """``solve_p1`` over ascending caps, reusing one evaluator per user.

    A ladder of one cap is the plain policy search of ``ehcr optimize``;
    a longer one is ``ehcr sweep --axis I_av --optimize``.
    """

    rate_metric = "evals_per_s"
    # exponents on the reference kernels' slowdowns; see reference.py
    sensitivity = (0.25, 0.25)

    def __init__(self, name: str, why: str, caps: Tuple[float, ...],
                 reference: float | None = None):
        self.name = name
        self.why = why
        self.caps = caps
        self.reference = reference

    def inputs(self, seed: int, search: optimizer.SearchConfig | None = None
               ) -> LadderInputs:
        """The README model at fixed caps; ``seed`` is not used.

        Moving a cap by any amount changes the refinement path and so the
        number of points priced (by about 10% for a 3% move), which would
        make wall time and peak memory differ from seed to seed by more
        than the benchmark's bounds.
        """
        return LadderInputs(README_CONFIG, README_PROFILES,
                            search or optimizer.SearchConfig(), self.caps)

    def prepare(self, inp: LadderInputs):
        model = validate(inp.config, inp.profiles)
        evaluators = [optimizer.SuEvaluator(model, i)
                      for i in range(model.n_users)]
        return model, evaluators

    def body(self, inp: LadderInputs):
        model, evaluators = self.prepare(inp)
        steps = []
        for cap in inp.caps:
            capped = dataclasses.replace(
                model, config=dataclasses.replace(model.config,
                                                  interference_cap=cap))
            steps.append((cap, capped, optimizer.solve_p1(
                capped, inp.search, evaluators=evaluators)))
        return steps

    @staticmethod
    def units(steps) -> int:
        """Distinct policy points priced (the evaluators are shared)."""
        return steps[-1][2].evaluations

    @staticmethod
    def fingerprint(steps) -> str:
        return repr([(cap, r.params, r.sum_rate, r.aic_lhs, r.evaluations,
                      r.sweeps) for cap, _, r in steps])

    def check(self, inp: LadderInputs, steps) -> List[gates.Op]:
        graded = [(cap, result, analysis.analyze(model, result.params))
                  for cap, model, result in steps]
        return gates.check_ladder(graded, self.reference)


# -------------------------------------------------------------- K=400 grid

@dataclass(frozen=True)
class GridInputs:
    config: SystemConfig
    profile: SuProfile
    omegas: Tuple[float, ...]
    thetas: Tuple[float, ...]


class Grid:
    """``objective_surface`` for one user on an omega x theta grid."""

    name = "grid-k400"
    rate_metric = "evals_per_s"
    sensitivity = (0.25, 0.25)
    why = ("K=400 battery: transition matrix and steady state dominate, "
           "nothing is cached")
    cells = 400
    # six points, about a second: short repetitions sit within one phase
    # of a shared machine's speed, where the reference kernels track it
    omegas = (0.3, 0.7)
    thetas = (0.05, 0.2, 0.8)
    # grid points re-priced through analyze_su, as (omega, theta) indices
    repriced = ((0, 0), (-1, -1))

    def inputs(self, seed: int, cells: int | None = None) -> GridInputs:
        rng = np.random.default_rng(seed)
        omegas = np.asarray(self.omegas) + rng.uniform(-0.02, 0.02,
                                                       len(self.omegas))
        thetas = np.asarray(self.thetas) * np.exp(
            rng.uniform(-0.05, 0.05, len(self.thetas)))
        config = SystemConfig(battery_cells=cells or self.cells)
        return GridInputs(config, SuProfile(), tuple(map(float, omegas)),
                          tuple(map(float, thetas)))

    def prepare(self, inp: GridInputs):
        model = validate(inp.config, (inp.profile,))
        return model, optimizer.SuEvaluator(model, 0)

    def body(self, inp: GridInputs):
        model, evaluator = self.prepare(inp)
        rates, loads = optimizer.objective_surface(
            model, inp.omegas, inp.thetas, evaluator=evaluator)
        return rates, loads, evaluator.known_points(), evaluator.interference_floor

    @staticmethod
    def units(out) -> int:
        return len(out[2])

    @staticmethod
    def fingerprint(out) -> str:
        rates, loads, points, floor = out
        return repr((rates.tobytes(), loads.tobytes(), points, floor))

    def check(self, inp: GridInputs, out) -> List[gates.Op]:
        _, _, points, floor = out
        model = validate(inp.config, (inp.profile,))
        by_params = {p.params: p for p in points}
        repriced = []
        for a, b in self.repriced:
            params = PolicyParams(inp.omegas[a], inp.thetas[b])
            repriced.append((by_params[params],
                             analysis.analyze_su(model, 0, params)))
        return gates.check_grid(points, floor, repriced)


# ------------------------------------------------------- simulator grading

@dataclass(frozen=True)
class GradePoint:
    label: str
    config: SystemConfig
    profile: SuProfile
    params: PolicyParams
    slots: int        # per timed repetition
    grade_slots: int  # for the graded run


@dataclass(frozen=True)
class GradeInputs:
    points: Tuple[GradePoint, ...]
    seed: int


class Grade:
    """``analyze`` + ``simulate`` + ``compare`` at fixed policies.

    A timed repetition simulates each point for ``slots`` slots, about a
    third of a second in all, so a run holds dozens of repetitions and
    their median is a steady figure.  That many slots cannot resolve the 1%
    tolerances, so the gate grades a separate run of ``grade_slots`` per
    point, outside the timed region; its compare rows are the workload's
    operations.
    """

    name = "simulate-grade"
    rate_metric = "slot_us"
    sensitivity = (1.0, 0.0)
    why = ("slot simulator and grading at the default and a low-harvest "
           "point; the analytic layers are idle")
    points = (
        # the default single-user point of acceptance criterion 3, graded
        # over 2M slots: over its 1M the interference row misses its 1%
        # tolerance on several seeds in a hundred, over 2M on about one
        GradePoint("default", SystemConfig(), SuProfile(),
                   PolicyParams(0.35, 0.2), 75_000, 2_000_000),
        # low harvest: frames start below the probe reserve, where the
        # chain and the simulator disagree today
        GradePoint("low-harvest", SystemConfig(battery_cells=20, probe_cells=3),
                   SuProfile(harvest_rate=0.8), PolicyParams(0.5, 0.1),
                   12_500, 200_000),
    )

    def inputs(self, seed: int, slots: int | None = None) -> GradeInputs:
        points = self.points
        if slots is not None:
            points = tuple(dataclasses.replace(p, slots=slots, grade_slots=slots)
                           for p in points)
        return GradeInputs(points, seed)

    def prepare(self, inp: GradeInputs):
        return [validate(p.config, (p.profile,)) for p in inp.points]

    def _grade(self, inp: GradeInputs, slots: List[int]):
        out = []
        for point, model, n in zip(inp.points, self.prepare(inp), slots):
            reference = analysis.analyze(model, [point.params])
            trace = sim.simulate(model, [point.params], n, seed=inp.seed)
            out.append((point.label, n * model.n_users,
                        sim.compare(trace, reference)))
        return out

    def body(self, inp: GradeInputs):
        return self._grade(inp, [p.slots for p in inp.points])

    @staticmethod
    def units(out) -> int:
        """Simulated slots summed over users."""
        return sum(slot_users for _, slot_users, _ in out)

    @staticmethod
    def fingerprint(out) -> str:
        return repr([(label, report.checks) for label, _, report in out])

    def check(self, inp: GradeInputs, out) -> List[gates.Op]:
        graded = self._grade(inp, [p.grade_slots for p in inp.points])
        return [op for label, _, report in graded
                for op in gates.check_grading(label, report)]


WORKLOADS = {w.name: w for w in (
    Ladder("search-k80",
           "README two-user policy search (ehcr optimize): K=80 pricing, "
           "cache mostly written",
           caps=(1.0,), reference=README_SUM_RATE),
    Ladder("sweep-cap",
           "ascending cap ladder on shared evaluators (ehcr sweep): cache "
           "hits and budget allocation over growing pools",
           caps=(0.8, 1.2)),
    Grid(),
    Grade(),
)}
