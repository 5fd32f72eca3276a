"""Correctness gates of the benchmark workloads.

Each gate takes program outputs (and, where it needs one, an independent
re-pricing through ``ehcr.analysis``) and returns one :class:`Op` per
operation the workload attempted.  The gates are pure functions of their
arguments, so the self-tests can hand them deliberately wrong values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

# Re-pricing through a second code path must agree to this relative error.
REL_TOL = 1e-9
# Largest admissible ||Phi zeta - zeta||_inf of a stationary law.
RESIDUAL_TOL = 1e-9
# Slack for probabilities and loads assembled from sums of products.
ROUNDING = 1e-12


@dataclass(frozen=True)
class Op:
    """One attempted operation and whether its outputs held up.

    ``graded`` marks a simulator-vs-analytics grading row: its failure is a
    measured disagreement between two models of the system, counted in the
    failure ratio, not an error in the program's outputs.
    """

    name: str
    passed: bool
    detail: str = ""
    graded: bool = False


def _rel_gap(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _op(name: str, problems: List[str], graded: bool = False) -> Op:
    return Op(name, not problems, "; ".join(problems), graded)


def check_ladder(steps: Sequence[Tuple[float, object, object]],
                 reference_sum_rate: Optional[float] = None) -> List[Op]:
    """Gate a ladder of ``solve_p1`` results at ascending caps.

    ``steps`` holds ``(cap, OptimizationResult, NetworkAnalysis)`` where the
    analysis re-prices the returned params.  Every step must be feasible and
    agree with the analysis; the sum rate must not fall along the ladder
    (solve_p1's guarantee for reused evaluators) nor below the reference.
    """
    ops = []
    previous = -math.inf
    for cap, result, net in steps:
        problems = []
        if not (result.feasible and net.breakdown.aic_satisfied):
            problems.append(f"infeasible at cap {cap!r}")
        for field in ("sum_rate", "aic_lhs"):
            gap = _rel_gap(getattr(result, field), getattr(net.breakdown, field))
            if not gap <= REL_TOL:
                problems.append(f"{field} disagrees with analyze by {gap:.3g}")
        if result.sum_rate < previous:
            problems.append(f"sum rate fell from {previous!r} to {result.sum_rate!r}")
        if (reference_sum_rate is not None
                and not result.sum_rate >= reference_sum_rate * (1.0 - REL_TOL)):
            problems.append(f"sum rate {result.sum_rate!r} below the "
                            f"reference {reference_sum_rate!r}")
        previous = max(previous, result.sum_rate)
        ops.append(_op(f"solve cap={cap:.6g}", problems))
    return ops


def _point_problems(point, floor: float) -> List[str]:
    problems = []
    if not (math.isfinite(point.rate) and point.rate >= 0.0):
        problems.append(f"rate {point.rate!r}")
    if not point.interference >= floor * (1.0 - ROUNDING):
        problems.append(f"interference {point.interference!r} below the "
                        f"pilot floor {floor!r}")
    for field in ("battery_outage", "transmission_outage"):
        value = getattr(point, field)
        if not -ROUNDING <= value <= 1.0 + ROUNDING:
            problems.append(f"{field} {value!r} outside [0, 1]")
    return problems


def check_grid(points: Sequence[object], floor: float,
               repriced: Sequence[Tuple[object, object]]) -> List[Op]:
    """Gate every priced grid point, and re-price a few through ``analyze_su``.

    ``repriced`` pairs a grid ``SuPoint`` with the ``SuAnalysis`` of the same
    params; the two must agree and the analysis' stationary law must solve
    its own transition matrix.
    """
    ops = []
    for point in points:
        p = point.params
        ops.append(_op(f"point ({p.omega:.6g}, {p.theta:.6g})",
                       _point_problems(point, floor)))
    for point, su in repriced:
        problems = []
        pairs = (("rate", point.rate, su.rate.total),
                 ("interference", point.interference, su.interference),
                 ("avg_energy", point.avg_energy, su.chain.avg_energy),
                 ("battery_outage", point.battery_outage, su.chain.outage),
                 ("transmission_outage", point.transmission_outage,
                  su.transmission_outage))
        for field, got, want in pairs:
            gap = _rel_gap(got, want)
            if not gap <= REL_TOL:
                problems.append(f"{field} disagrees with analyze_su by {gap:.3g}")
        zeta = su.chain.steady_state
        residual = float(np.max(np.abs(su.chain.matrix @ zeta - zeta)))
        if not residual <= RESIDUAL_TOL:
            problems.append(f"stationary residual {residual:.3g}")
        p = point.params
        ops.append(_op(f"reprice ({p.omega:.6g}, {p.theta:.6g})", problems))
    return ops


def check_grading(label: str, report) -> List[Op]:
    """One operation per ``compare`` row of a simulator grading report.

    A row outside its tolerance is a graded failure.  A row with a
    non-finite deviation, or a run too short to grade, is an error.
    """
    ops = []
    for row in report.checks:
        where = "net" if row.su_index is None else f"su{row.su_index + 1}"
        name = f"{label} {where} {row.name}"
        if not report.sufficient:
            ops.append(Op(name, False, "run too short to grade"))
        elif not math.isfinite(row.deviation):
            ops.append(Op(name, False, f"deviation {row.deviation!r}"))
        else:
            ops.append(Op(name, row.passed,
                          f"dev={row.deviation:.3g} tol={row.tolerance:g}",
                          graded=True))
    return ops
