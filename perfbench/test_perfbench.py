"""Self-tests of the benchmark: metric names, repeatable counts, gates.

    python3 -m pytest perfbench

Uses shrunken copies of the workloads (12-cell batteries, coarse search
grids, short simulations) so the whole file runs in seconds.
"""
import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gates
import run
import tracing
import workloads
from program import analysis, optimizer
from ehcr.model import validate

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY_SEARCH = optimizer.SearchConfig(omega_points=5, theta_points=5,
                                     refine_levels=1, refine_points=3,
                                     top_candidates=1)


class TinyLadder(workloads.Ladder):
    def inputs(self, seed, search=None):
        return super().inputs(seed, TINY_SEARCH)


class TinyGrid(workloads.Grid):
    name = "tiny-grid"

    def inputs(self, seed, cells=None):
        return super().inputs(seed, cells=12)


class TinyGrade(workloads.Grade):
    name = "tiny-grade"

    def inputs(self, seed, slots=None):
        return super().inputs(seed, slots=5000)


TINY = {w.name: w for w in (TinyLadder("tiny-ladder", "test", (0.8, 1.2)),
                            TinyGrid(), TinyGrade())}


@pytest.fixture
def tiny_run(monkeypatch, tmp_path, capsys):
    """Run ``run.main`` on a tiny workload; return its parsed last line."""
    monkeypatch.setattr(workloads, "WORKLOADS", {**workloads.WORKLOADS, **TINY})
    monkeypatch.setattr(run, "setup_seconds", lambda name, seed: 0.25)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)

    def go(name, trace, seed=0):
        code = run.main(["--workload", name, "--seed", str(seed),
                         "--seconds", "0.01", "--trace", str(trace)])
        assert code == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return go


def _traced_counts(workload, inputs, reps=2):
    tracer = tracing.Tracer()
    for _ in range(reps):
        with tracing.instrument(tracer):
            workload.body(inputs)
    per_op = tracing.layer_metrics(tracer, {op: 1.0 for op in range(reps)})
    return [{n: m[n] for n in tracing.EXACT_COUNTS} for m in per_op.values()]


# ------------------------------------------------------------ metric names

def test_declared_metrics_have_valid_names_and_units():
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in declared]
    assert len(names) == len(set(names))
    for metric in declared:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64
        assert metric["unit"] == run.unit_of(metric["name"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_runs_print_every_declared_metric_with_its_unit(tiny_run, trace, section):
    result = tiny_run("tiny-grid", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_grading_failures_count_against_the_run(tiny_run):
    result = tiny_run("tiny-grade", 0)
    assert result["correct"]
    assert result["failed"] > 0
    pass_ratio = result["metrics"]["pass_ratio"]["value"]
    assert pass_ratio == pytest.approx(1 - result["failed"] / result["attempted"])


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-k80",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# ------------------------------------------------------------------ seeds

def test_same_seed_repeats_inputs_and_counts():
    for workload in workloads.WORKLOADS.values():
        assert workload.inputs(7) == workload.inputs(7)
    for workload in TINY.values():
        first, second = _traced_counts(workload, workload.inputs(3))
        assert first == second
        assert _traced_counts(workload, workload.inputs(3), reps=1)[0] == first


def test_traced_counts_see_each_layer():
    grid = _traced_counts(TINY["tiny-grid"], TINY["tiny-grid"].inputs(0), 1)[0]
    assert grid["policy.spend_levels"] > 0
    assert grid["rate.e1_args"] == 4 * grid["policy.spend_levels"]
    assert grid["battery.gather_mb_computed"] > 0
    assert grid["optimizer.evaluations"] == 6
    grade = _traced_counts(TINY["tiny-grade"], TINY["tiny-grade"].inputs(0), 1)[0]
    assert grade["sim.probe_skips"] > 0
    assert grade["sim.checks_total"] == 16


def test_different_seed_changes_generated_inputs():
    for name in ("grid-k400", "simulate-grade"):
        workload = workloads.WORKLOADS[name]
        assert workload.inputs(1) != workload.inputs(2)
    tiny = TINY["tiny-grade"]
    skips = [_traced_counts(tiny, tiny.inputs(seed), 1)[0]["sim.probe_skips"]
             for seed in (1, 2)]
    assert skips[0] != skips[1]


def test_tracing_leaves_outputs_unchanged():
    for workload in TINY.values():
        inputs = workload.inputs(0)
        plain = workload.fingerprint(workload.body(inputs))
        with tracing.instrument(tracing.Tracer()):
            traced = workload.fingerprint(workload.body(inputs))
        assert plain == traced


# ------------------------------------------------------------------ gates

@pytest.fixture(scope="module")
def ladder():
    workload = TINY["tiny-ladder"]
    inputs = workload.inputs(0)
    steps = workload.body(inputs)
    return [(cap, result, analysis.analyze(model, result.params))
            for cap, model, result in steps]


def test_ladder_gate_passes_real_outputs(ladder):
    top = ladder[-1][1].sum_rate
    ops = gates.check_ladder(ladder, reference_sum_rate=top * 0.5)
    assert all(op.passed for op in ops)


@pytest.mark.parametrize("tamper", [
    lambda r: dataclasses.replace(r, sum_rate=r.sum_rate * (1 + 1e-6)),
    lambda r: dataclasses.replace(r, aic_lhs=r.aic_lhs * (1 - 1e-6)),
    lambda r: dataclasses.replace(r, feasible=False),
])
def test_ladder_gate_flags_a_wrong_result(ladder, tamper):
    cap, result, net = ladder[0]
    ops = gates.check_ladder([(cap, tamper(result), net)] + ladder[1:])
    assert not ops[0].passed and not ops[0].graded


def test_ladder_gate_flags_a_falling_sum_rate_and_the_reference(ladder):
    assert not gates.check_ladder(ladder[::-1])[1].passed
    top = ladder[-1][1].sum_rate
    ops = gates.check_ladder(ladder, reference_sum_rate=top * (1 + 1e-6))
    assert not ops[-1].passed


@pytest.fixture(scope="module")
def grid():
    workload = TINY["tiny-grid"]
    inputs = workload.inputs(0)
    _, _, points, floor = workload.body(inputs)
    model = validate(inputs.config, (inputs.profile,))
    return model, points, floor


def test_grid_gate_passes_real_outputs(grid):
    model, points, floor = grid
    repriced = [(p, analysis.analyze_su(model, 0, p.params)) for p in points[:2]]
    assert all(op.passed for op in gates.check_grid(points, floor, repriced))


@pytest.mark.parametrize("tamper", [
    {"rate": math.nan}, {"rate": -1.0}, {"battery_outage": 1.5},
    {"transmission_outage": -0.1},
])
def test_grid_gate_flags_a_wrong_point(grid, tamper):
    _, points, floor = grid
    bad = dataclasses.replace(points[0], **tamper)
    assert not gates.check_grid([bad], floor, [])[0].passed


def test_grid_gate_flags_a_load_below_the_pilot_floor(grid):
    _, points, _ = grid
    assert not gates.check_grid(points[:1], points[0].interference * 2, [])[0].passed


def test_grid_gate_flags_a_wrong_repricing(grid):
    model, points, floor = grid
    other = analysis.analyze_su(model, 0, points[1].params)
    assert not gates.check_grid([], floor, [(points[0], other)])[0].passed
    su = analysis.analyze_su(model, 0, points[0].params)
    zeta = su.chain.steady_state
    shifted = dataclasses.replace(
        su, chain=dataclasses.replace(su.chain, steady_state=zeta[::-1].copy()))
    op = gates.check_grid([], floor, [(points[0], shifted)])[0]
    assert not op.passed and "residual" in op.detail


def test_grading_gate_separates_disagreement_from_errors():
    workload = TINY["tiny-grade"]
    report = workload.body(workload.inputs(0))[0][2]
    row = report.checks[0]
    failing = dataclasses.replace(row, deviation=row.tolerance * 2, passed=False)
    broken = dataclasses.replace(row, deviation=math.nan, passed=False)
    ops = gates.check_grading("x", dataclasses.replace(
        report, checks=(row, failing, broken)))
    assert [(op.passed, op.graded) for op in ops] == [
        (row.passed, True), (False, True), (False, False)]
    short = gates.check_grading("x", dataclasses.replace(report, sufficient=False))
    assert not any(op.passed or op.graded for op in short)
