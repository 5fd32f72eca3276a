"""Benchmark of the ehcr pricing loop.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see ``workloads.WORKLOADS``) in this process, repeating
its body from fresh evaluators until ``--seconds`` are used, then checks
the outputs.  Times are medians over repetitions, in reference seconds
(see ``reference.py``); the raw wall times go to the record.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` repetitions alternate untraced and traced with spans around
every layer function, and the last line carries the per-layer metrics.
Spans, metrics and the machine record are also written to
``.perfbench_out/`` at the root of the checkout.

The program under test is ``src/ehcr`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# BLAS and OpenMP pools are capped at the cores this process may use, so
# a run never oversubscribes the machine; set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 9
# How strongly a cold start (imports, mostly interpreted) follows the
# reference kernels' slowdowns; see reference.py.
SETUP_SENSITIVITY = (0.25, 0.25)

# The rate each workload reports in the human-readable summary, as a
# function of item_us (wall time per work item).
RATES = {"evals_per_s": (lambda us: 1e6 / us, "1/s"),
         "slot_us": (lambda us: us, "us")}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def unit_of(name: str) -> str:
    """Unit of a metric, read off its name."""
    if name.endswith(("_ms", "_ms_p50", "_ms_p99")):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb") or "_mb_" in name:
        return "MB"
    if name.endswith(("_ratio", "_coverage")):
        return "ratio"
    return "count"


def machine_record() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": NPROC, "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS}}


def setup_seconds(name: str, seed: int) -> float:
    """Median cold set-up time over fresh interpreters [reference s]."""
    import reference

    times = []
    before = reference.kernel_seconds()
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, check=True, timeout=120)
        after = reference.kernel_seconds()
        times.append(reference.to_reference(
            float(done.stdout.strip().splitlines()[-1]), before, after,
            SETUP_SENSITIVITY))
        before = after
    return statistics.median(times)


def measure(workload, inputs, budget: float, traced_block=None):
    """Repeat the body until ``budget`` seconds are used (at least once).

    The reference kernels are timed before the first repetition and after
    each one, and every repetition's time is converted to reference
    seconds with the kernel times on either side of it.  Another repetition
    starts only if half a median repetition still fits, so a run
    overshoots its budget by at most about half a repetition.  With
    ``traced_block`` (a factory of the context that traces one
    repetition), repetitions alternate untraced and traced, at least one
    of each, so slow drifts in machine speed fall on both alike.
    Returns the untraced and traced times in reference seconds, the raw
    untraced and traced wall times, the first output and the fingerprint
    of every output.
    """
    import reference

    walls = {False: [], True: []}
    raws = {False: [], True: []}
    prints, first = [], None
    traced = False
    start = time.perf_counter()
    before = reference.kernel_seconds()
    while True:
        with traced_block() if traced else nullcontext():
            t0 = time.perf_counter()
            out = workload.body(inputs)
            raw = time.perf_counter() - t0
        after = reference.kernel_seconds()
        walls[traced].append(reference.to_reference(
            raw, before, after, workload.sensitivity))
        raws[traced].append(raw)
        before = after
        prints.append(workload.fingerprint(out))
        if first is None:
            first = out
        elapsed = time.perf_counter() - start
        done = elapsed + 0.5 * statistics.median(raws[False] + raws[True]) > budget
        if done and (traced_block is None or walls[True]):
            return walls[False], walls[True], raws[False], raws[True], first, prints
        traced = traced_block is not None and not traced


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot load ehcr from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import tracing

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    machine = machine_record()
    problems = []

    tracer = tracing.Tracer() if args.trace else None
    if not args.trace:
        setup_s = setup_seconds(args.workload, args.seed)
    walls, traced, raw_walls, raw_traced, first, prints = measure(
        workload, inputs, args.seconds,
        (lambda: tracing.instrument(tracer)) if args.trace else None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if any(p != prints[0] for p in prints):
        problems.append("repetitions gave different outputs")
    ops = workload.check(inputs, first)
    attempted, failed = len(ops), sum(not op.passed for op in ops)
    if not all(op.passed or op.graded for op in ops):
        problems.append("a correctness gate failed")

    wall_s = statistics.median(walls)
    units = workload.units(first)
    item_us = wall_s / units * 1e6
    if args.trace:
        # span times are raw, so coverage is taken against raw wall times
        per_op = tracing.layer_metrics(tracer, dict(enumerate(raw_traced)))
        for name in tracing.EXACT_COUNTS:
            if len({m[name] for m in per_op.values()}) > 1:
                problems.append(f"count {name} did not repeat")
        fastest = min(per_op, key=lambda op: traced[op])
        values = dict(per_op[fastest])
        values["trace.overhead_ratio"] = statistics.median(traced) / wall_s - 1.0
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s, "item_us": item_us,
                  "peak_rss_mb": peak_rss_mb,
                  "pass_ratio": (attempted - failed) / attempted}
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in values.items()}

    # human-readable report; callers parse only the last line
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} untraced repetitions of {units} work items, "
          f"median {statistics.median(raw_walls):.4g} s raw, "
          f"{wall_s:.4g} reference s")
    print(f"  why: {workload.why}")
    rate_of_item, rate_unit = RATES[workload.rate_metric]
    summary = [("wall_s", wall_s, "s"),
               (workload.rate_metric, rate_of_item(item_us), rate_unit),
               ("peak_rss_mb", peak_rss_mb, "MB"),
               ("fail_ratio", failed / attempted, f"ratio ({failed}/{attempted})")]
    if not args.trace:
        summary.insert(0, ("setup_s", setup_s, "s"))
    for name, value, unit in summary:
        print(f"  {name:<12} {value:.6g} {unit}")
    if args.trace:
        for name, value in values.items():
            label = " (computed)" if name in tracing.COMPUTED else ""
            print(f"  {name:<34} {value:.6g} {unit_of(name)}{label}")
    for op in ops:
        if not op.passed:
            kind = "graded" if op.graded else "error"
            print(f"  FAIL ({kind}) {op.name}: {op.detail}")
    for problem in problems:
        print(f"  ERROR {problem}")
    print("machine " + json.dumps(machine))

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "machine": machine, "walls_s": walls,
              "raw_walls_s": raw_walls, "metrics": metrics,
              "failed_ops": [op.name for op in ops if not op.passed],
              "problems": problems}
    if tracer is not None:
        record["traced_walls_s"] = traced
        record["raw_traced_walls_s"] = raw_traced
        record["spans"] = tracer.table()
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
