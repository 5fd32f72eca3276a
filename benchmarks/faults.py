#!/usr/bin/env python3
"""Minor page faults of the pricing, in fresh processes with shifted heaps.

Usage::

    python3 benchmarks/faults.py [--src DIR] [--processes 10] [--reps 5]

Each process is a fresh interpreter, started one after another (never
in parallel, so they do not compete for memory).  Before it imports
``ehcr`` from ``DIR`` (default: this checkout's ``src/``), process i
of N allocates ``round(i * MAX_SHIFT / (N - 1))`` small objects and
keeps them alive: each is a ``bytes`` above CPython's 512-byte small
object limit, so it sits on the C heap and moves every later
allocation.

Each process runs with glibc's mmap and trim thresholds pinned at its
starting values (``MALLOC_PINS``, 128 KiB each, set in the children's
environment only).  Left dynamic, glibc raises both thresholds to the
size of the largest block freed so far, so whether the next large array
comes from a warm heap hole or from fresh pages depends on the order of
earlier frees, and the count measured that history rather than the
program.  Pinned, every allocation of 128 KiB or more is a mapping of
its own that faults in when touched and is unmapped when freed, and a
heap top of more than 128 KiB free is trimmed, so the count follows the
program's allocations: arrays it allocates afresh, transients, and work
arrays that grow.  The heap shift still decides where the smaller arrays
land and which heap tops are trimmed, so counts still differ from
process to process; compare medians.

Each process then counts minor faults (``getrusage``'s ``ru_minflt``)
over two workloads:

- ``solve_p1``: README's two-user policy search, one warm-up solve and
  then one counted solve, each from fresh evaluators;
- ``grid_k400``: the ``objective_surface`` of one user at K = 400 cells
  on 2 x 3 policy points, the grid of perfbench's ``grid-k400``
  workload, one warm-up repetition and then ``--reps`` counted ones,
  each from a fresh evaluator; the median is reported.

One line per process, then the median, minimum and maximum of each
column, then one JSON line with every count and the thresholds each
process ran under.  ``--quick`` runs a small
search and a K = 40 grid instead, to check the harness itself.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MAX_SHIFT = 12_000
SHIFT_BYTES = 600
GRID = {"cells": 400, "omegas": (0.3, 0.7), "thetas": (0.05, 0.2, 0.8)}
QUICK_CELLS = 40
# glibc's starting thresholds, fixed so that it never moves them
MALLOC_PINS = {"MALLOC_MMAP_THRESHOLD_": "131072",
               "MALLOC_TRIM_THRESHOLD_": "131072"}


def minor_faults(fn) -> int:
    """Minor faults this process takes while ``fn()`` runs."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def child(reps: int, quick: bool) -> dict:
    """Both workloads' counts in this process; ``ehcr`` must import."""
    from ehcr.model import SuProfile, SystemConfig, validate
    from ehcr.optimizer import (SearchConfig, SuEvaluator, objective_surface,
                                solve_p1)

    readme = validate(SystemConfig(interference_cap=1.0),
                      (SuProfile(), SuProfile(harvest_rate=10.0)))
    search = (SearchConfig(omega_points=3, theta_points=3, refine_levels=1,
                           refine_points=4) if quick else SearchConfig())
    cells = QUICK_CELLS if quick else GRID["cells"]
    grid = validate(SystemConfig(battery_cells=cells), (SuProfile(),))

    def solve():
        solve_p1(readme, search)

    def surface():
        objective_surface(grid, GRID["omegas"], GRID["thetas"],
                          evaluator=SuEvaluator(grid, 0))

    solve()
    counts = {"solve_p1": minor_faults(solve)}
    surface()
    counts["grid_k400"] = statistics.median(
        minor_faults(surface) for _ in range(reps))
    counts["malloc"] = {name: os.environ.get(name) for name in MALLOC_PINS}
    return counts


def run(src: Path, processes: int, reps: int, quick: bool = False) -> list:
    """Counts of each fresh process, heap shifts ascending."""
    rows = []
    for i in range(processes):
        shift = round(i * MAX_SHIFT / max(processes - 1, 1))
        argv = [sys.executable, __file__, "--src", str(src), "--reps",
                str(reps), "--child", str(shift)] + (["--quick"] * quick)
        out = subprocess.run(argv, capture_output=True, text=True,
                             check=True, env={**os.environ, **MALLOC_PINS}
                             ).stdout
        rows.append({"shift": shift, **json.loads(out.splitlines()[-1])})
    return rows


def summary(rows: list) -> dict:
    """Median, minimum and maximum of each count over the processes."""
    return {name: {"median": statistics.median(r[name] for r in rows),
                   "min": min(r[name] for r in rows),
                   "max": max(r[name] for r in rows)}
            for name in ("solve_p1", "grid_k400")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="directory holding the ehcr package")
    parser.add_argument("--processes", type=int, default=10)
    parser.add_argument("--reps", type=int, default=5,
                        help="counted grid repetitions per process")
    parser.add_argument("--quick", action="store_true",
                        help="small search and K = 40 grid")
    parser.add_argument("--child", type=int, metavar="SHIFT",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.processes < 1 or args.reps < 1:
        parser.error("--processes and --reps must be >= 1")
    if args.child is not None:
        # allocated before ehcr and numpy are imported, and kept alive
        shifted = [bytes(SHIFT_BYTES) for _ in range(args.child)]
        sys.path.insert(0, str(args.src.resolve()))
        print(json.dumps(child(args.reps, args.quick)))
        del shifted
        return 0
    rows = run(args.src.resolve(), args.processes, args.reps, args.quick)
    print(f"{'shift':>6} {'solve_p1':>9} {'grid_k400':>9}")
    for r in rows:
        print(f"{r['shift']:>6} {r['solve_p1']:>9} {r['grid_k400']:>9g}")
    stats = summary(rows)
    for name, s in stats.items():
        print(f"{name}: median {s['median']:g}, min {s['min']:g}, "
              f"max {s['max']:g} minor faults")
    print(json.dumps({"src": str(args.src), "rows": rows, "summary": stats}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
