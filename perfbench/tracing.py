"""Spans around the public function of each ``ehcr`` layer.

:func:`instrument` replaces each layer function where its caller looks it
up (``ehcr.optimizer.steady_state``, ``ehcr.battery.TransitionBuilder.matrix``
and so on) with a wrapper that records a span, and restores the originals
on exit.  A function the program no longer has is left alone and reads as
zero calls.  Spans stay in memory; :func:`layer_metrics` folds them into
per-repetition numbers and :meth:`Tracer.table` writes them out.

Every ``*_ms`` / ``*_s`` layer metric is self time: the span's duration
minus the time covered by its child spans, so no time is counted twice.
``run.py`` reports the layer metrics of the fastest traced repetition.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

from program import analysis, battery, optimizer, sim

# Layers whose self time should account for the traced wall time of the
# pricing workloads.
PRICING_LAYERS = ("policy", "battery", "rate", "optimizer")

COLUMNS = ("id", "parent", "op", "name", "start", "end")


class Tracer:
    """Spans and counts, keyed by the repetition (``op``) they belong to."""

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.uncached: Dict[int, List[int]] = defaultdict(list)
        self.op = -1
        self._stack: List[int] = []

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[self.op][name] += value

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``count(tracer, args, result)`` runs after it."""
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, self.op, name, start, end)
            if count is not None:
                count(self, args, result)
            return result
        return traced

    def table(self) -> dict:
        """Every recorded span, column-wise, for writing out."""
        return {"columns": list(COLUMNS),
                "rows": [list(s) for s in self.spans if s is not None]}


# ------------------------------------------------------------------ counts

def _count_levels(tracer: Tracer, args, pmf) -> None:
    tracer.add("policy.spend_levels", pmf.level_state.size)


def _count_e1(tracer: Tracer, args, rate) -> None:
    # two occupancy laws x two gain edges, one exp1 argument per level each
    pmf = args[4]
    tracer.add("rate.e1_args", 4 * pmf.level_state.size)


def _count_gather(tracer: Tracer, args, phi) -> None:
    builder, psi_idle = args[0], np.asarray(args[1])
    spends = int(np.count_nonzero(psi_idle.any(axis=0)))
    mb = spends * (builder.cells + 1) ** 2 * 8 / 1e6
    tracer.add("battery.gather_mb_computed", mb)
    peak = tracer.counts[tracer.op]
    peak["battery.gather_mb_peak_computed"] = max(
        peak["battery.gather_mb_peak_computed"], mb)


def _count_skips(tracer: Tracer, args, trace) -> None:
    tracer.add("sim.probe_skips", sum(su.probe_skips for su in trace.sus))


def _count_checks(tracer: Tracer, args, report) -> None:
    tracer.add("sim.checks_total", len(report.checks))
    tracer.add("sim.checks_failed", sum(not c.passed for c in report.checks))


def _traced_evaluator(tracer: Tracer, cls) -> Callable:
    """Constructor of evaluators whose ``evaluate`` records spans and hits."""
    construct = tracer.wrap("optimizer.evaluator_init", cls)

    def make(*args, **kwargs):
        evaluator = construct(*args, **kwargs)
        evaluate = tracer.wrap("optimizer.evaluate", evaluator.evaluate)

        def counted(omega, theta):
            before = evaluator.evaluations
            sid = len(tracer.spans)
            point = evaluate(omega, theta)
            tracer.add("optimizer.evaluate_calls")
            if evaluator.evaluations == before:
                tracer.add("optimizer.cache_hits")
            else:
                tracer.add("optimizer.evaluations")
                tracer.uncached[tracer.op].append(sid)
            return point

        evaluator.evaluate = counted
        return evaluator
    return make


@contextmanager
def instrument(tracer: Tracer):
    """Trace every layer function for the duration of the block.

    Each block is one repetition (``op``) of the tracer.
    """
    tracer.op += 1
    patched = []

    def patch(owner, attr: str, replacement: Callable) -> None:
        original = vars(owner).get(attr)
        if original is None:
            return
        setattr(owner, attr, replacement(original))
        patched.append((owner, attr, original))

    def span(name: str, count: Optional[Callable] = None) -> Callable:
        return lambda fn: tracer.wrap(name, fn, count)

    for module in (optimizer, analysis):
        patch(module, "transmit_pmf", span("policy.transmit_pmf", _count_levels))
        patch(module, "rate_lower_bound",
              span("rate.rate_lower_bound", _count_e1))
        patch(module, "aic_contribution", span("rate.aic_contribution"))
        patch(module, "transmission_outage", span("rate.transmission_outage"))
    patch(battery.TransitionBuilder, "matrix",
          span("battery.matrix", _count_gather))
    for module in (optimizer, battery):
        patch(module, "steady_state", span("battery.steady_state"))
    patch(optimizer, "SuEvaluator", lambda cls: _traced_evaluator(tracer, cls))
    patch(optimizer, "solve_p1", span("optimizer.solve_p1"))
    patch(optimizer, "objective_surface", span("optimizer.objective_surface"))
    patch(analysis, "analyze", span("analysis.analyze"))
    patch(sim, "simulate", span("sim.simulate", _count_skips))
    patch(sim, "compare", span("sim.compare", _count_checks))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# ------------------------------------------------------------------ folding

# Counts that must repeat exactly from one repetition (and run) to the next.
EXACT_COUNTS = ("policy.spend_levels", "rate.e1_args",
                "battery.gather_mb_computed", "battery.gather_mb_peak_computed",
                "optimizer.evaluations", "optimizer.evaluate_calls",
                "optimizer.cache_hits", "sim.probe_skips",
                "sim.checks_failed", "sim.checks_total")

# Counts derived from array shapes rather than counted at run time.
COMPUTED = ("rate.e1_args", "battery.gather_mb_computed",
            "battery.gather_mb_peak_computed")

# name -> (span names whose self time it sums, scale to the unit)
SELF_TIMES = {
    "policy.transmit_pmf_ms": (("policy.transmit_pmf",), 1e3),
    "battery.matrix_ms": (("battery.matrix",), 1e3),
    "battery.steady_state_ms": (("battery.steady_state",), 1e3),
    "rate.rate_lower_bound_ms": (("rate.rate_lower_bound",), 1e3),
    "rate.aic_outage_ms": (("rate.aic_contribution",
                            "rate.transmission_outage"), 1e3),
    "optimizer.self_s": (("optimizer.solve_p1",
                          "optimizer.objective_surface"), 1.0),
    "optimizer.evaluate_self_ms": (("optimizer.evaluate",), 1e3),
    "optimizer.evaluator_init_ms": (("optimizer.evaluator_init",), 1e3),
    "analysis.analyze_ms": (("analysis.analyze",), 1e3),
    "sim.simulate_s": (("sim.simulate",), 1.0),
    "sim.compare_ms": (("sim.compare",), 1e3),
}

CALLS = {
    "policy.transmit_pmf_calls": "policy.transmit_pmf",
    "battery.matrix_calls": "battery.matrix",
    "battery.steady_state_calls": "battery.steady_state",
    "rate.rate_lower_bound_calls": "rate.rate_lower_bound",
    "analysis.analyze_calls": "analysis.analyze",
    "sim.simulate_calls": "sim.simulate",
}


def layer_metrics(tracer: Tracer, walls: Dict[int, float]
                  ) -> Dict[int, Dict[str, float]]:
    """Per-repetition layer metrics from the spans and counts of each op.

    ``walls`` maps each traced repetition to its traced wall time [s].
    """
    spans = [s for s in tracer.spans if s is not None]
    covered: Dict[int, float] = defaultdict(float)
    for sid, parent, _, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_time: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    calls: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    span_count: Dict[int, int] = defaultdict(int)
    for sid, parent, op, name, start, end in spans:
        self_time[op][name] += (end - start) - covered[sid]
        calls[op][name] += 1
        span_count[op] += 1

    out = {}
    for op, wall in walls.items():
        counts = tracer.counts[op]
        m: Dict[str, float] = {name: float(counts[name]) for name in EXACT_COUNTS}
        for metric, (names, scale) in SELF_TIMES.items():
            m[metric] = scale * sum(self_time[op][n] for n in names)
        for metric, name in CALLS.items():
            m[metric] = float(calls[op][name])
        n_calls = counts["optimizer.evaluate_calls"]
        m["optimizer.cache_hit_ratio"] = (counts["optimizer.cache_hits"] / n_calls
                                          if n_calls else 0.0)
        uncached = [(tracer.spans[sid][5] - tracer.spans[sid][4]) * 1e3
                    for sid in tracer.uncached[op]]
        m["optimizer.evaluate_samples"] = float(len(uncached))
        m["optimizer.evaluate_ms_p50"] = (float(np.percentile(uncached, 50))
                                          if uncached else 0.0)
        m["optimizer.evaluate_ms_p99"] = (float(np.percentile(uncached, 99))
                                          if uncached else 0.0)
        layered = sum(t for name, t in self_time[op].items()
                      if name.split(".")[0] in PRICING_LAYERS)
        m["trace.layer_coverage"] = layered / wall if wall > 0 else 0.0
        m["trace.spans"] = float(span_count[op])
        out[op] = m
    return out
