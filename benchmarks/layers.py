#!/usr/bin/env python3
"""Per-layer times of the analytic chain, this checkout against a parent.

Usage::

    python3 benchmarks/layers.py --parent REV --out BENCH_8.json

``REV``'s ``src/`` is extracted with ``git archive`` into a temporary
directory.  Each of 11 rounds measures both trees in child processes
(this script with ``--child`` and ``PYTHONPATH`` set to the tree's
``src``), alternating which runs first, and the JSON keeps every round
plus the per-side medians.

For one user at the default configuration with K = 80 and K = 400 cells
and policy (0.45, 0.2), a child times the layers ``SuEvaluator.evaluate``
chains on a one-cutoff row: the spend law (``transmit_row``), the
transition matrix (from the row's spend moves), the steady state, the
rate bound, the interference and outage terms, and the uncached
``evaluate`` itself (microseconds per call, median of repetitions).  At
K = 80 it times the same layers on the 9-cutoff row at omega = 0.45
(keys ``k80_row9_<layer>_us``, microseconds per row), the shape of most
rows of the policy search.  It times an uncached row of cutoffs at
omega = 0.45 in microseconds per point: 9 cutoffs at K = 80 and 3 at
K = 400 (``SuEvaluator.evaluate_row``).  It also times
``rate._scaled_e1`` in nanoseconds per element on the arguments of the
largest call of a real rate bound: K = 80 at (0.15, 0.2) and K = 400 at
(0.7, 0.2).  End to end, it runs ``solve_p1`` on the README's two-user
model once and records its seconds and the points it priced, and times
``simulate`` of that model with both users at policy (0.45, 0.2) over
``SIM_SLOTS`` slots in microseconds per slot per user
(``readme_simulate_us_per_slot_user``).  It times ``simulate`` the same
way at the two points the ``simulate-grade`` benchmark runs, the default
(0.35, 0.2) over 75,000 slots and the low-harvest point over 12,500
(``grade_default_…`` and ``grade_low_harvest_simulate_us_per_slot_user``),
and at the default over 2M slots (``default_2m_…``).

The battery walk alone (``sim._walk_battery`` on the draws ``simulate``
passes it) is timed in each regime of ``WALKS``: where guessed paths
meet the true one within a few dozen slots (the default, the README's
second user, K = 400) and where they meet slowly (the low-harvest
point).  Between processes this machine's speed swings by more than the
differences at stake there, so one child (``--paired``) loads both trees
and calls their walks alternately, ``WALK_PAIRS`` times per regime; the
JSON's ``paired_walks`` keeps each side's median and the quartiles of
the change-over-parent ratios of the pairs.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
POLICY = (0.45, 0.2)
ROUNDS = 11
E1_POINTS = {"e1_k80_ns_per_arg": (80, (0.15, 0.2)),
             "e1_k400_ns_per_arg": (400, (0.7, 0.2))}
ROW_THETAS = {80: (0.02, 0.04, 0.07, 0.1, 0.15, 0.2, 0.3, 0.5, 0.8),
              400: (0.05, 0.2, 0.8)}
SIM_SLOTS = 100_000
DEFAULT_POINT = ({}, {}, (0.35, 0.2))
LOW_HARVEST = ({"battery_cells": 20, "probe_cells": 3}, {"harvest_rate": 0.8},
               (0.5, 0.1))
# simulate timings, (config, profile, policy) and slots
SIMULATIONS = {"grade_default": (DEFAULT_POINT, 75_000),
               "grade_low_harvest": (LOW_HARVEST, 12_500),
               "default_2m": (DEFAULT_POINT, 2_000_000)}
# battery-walk timings, (config, profile, policy) and slots
WALKS = {"default_75k": (DEFAULT_POINT, 75_000),
         "default_2m": (DEFAULT_POINT, 2_000_000),
         "readme_user2_100k": (({"interference_cap": 1.0},
                                {"harvest_rate": 10.0}, POLICY), 100_000),
         "k400_100k": (({"battery_cells": 400}, {}, POLICY), 100_000),
         "low_harvest_12k5": (LOW_HARVEST, 12_500),
         "low_harvest_200k": (LOW_HARVEST, 200_000)}
WALK_PAIRS = 21


def _per_call(fn, repeats: int = 7, min_time: float = 0.05) -> float:
    """Median seconds per call of ``fn`` over ``repeats`` timed loops."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - start >= min_time / 4:
            break
        number *= 2
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def measure() -> dict:
    """Times of the tree that ``ehcr`` is imported from."""
    import numpy as np

    from ehcr import rate
    from ehcr.battery import steady_state
    from ehcr.model import PolicyParams, SuProfile, SystemConfig, validate
    from ehcr.optimizer import SuEvaluator, solve_p1
    from ehcr.policy import transmit_row
    from ehcr.sim import simulate

    def evaluator(cells):
        model = validate(SystemConfig(battery_cells=cells), (SuProfile(),))
        return SuEvaluator(model, 0)

    def layers(ev, thetas):
        """Each layer of the analytic chain on one row of cutoffs."""
        cfg, prof = ev.config, ev.profile
        omega = POLICY[0]
        pmf = transmit_row(omega, thetas, cfg.probe_cells, cfg.battery_cells,
                           ev.gain)
        matrix_args = (pmf.idle_law, ev.sensing.pi_hat_idle,
                       ev.sensing.pi_hat_busy, pmf.moves)
        phi = ev._builder.matrix(*matrix_args)
        zeta = steady_state(phi)
        return pmf, {
            "spend_pmf": lambda: transmit_row(
                omega, thetas, cfg.probe_cells, cfg.battery_cells, ev.gain),
            "matrix": lambda: ev._builder.matrix(*matrix_args),
            "steady_state": lambda: steady_state(phi),
            "rate_bound": lambda: rate.rate_lower_bound(
                cfg, prof, ev.sensing, ev.estimation, pmf, zeta),
            "aic_outage": lambda: (
                rate.aic_contribution(cfg, prof, ev.sensing, pmf, zeta),
                rate.transmission_outage(zeta, pmf, ev.sensing,
                                         cfg.probe_cells)),
        }

    out = {}
    for cells in (80, 400):
        ev = evaluator(cells)
        omega = POLICY[0]

        def uncached():
            ev._cache.clear()
            ev.evaluate(*POLICY)

        thetas = ROW_THETAS[cells]

        def row():
            ev._cache.clear()
            ev.evaluate_row(omega, thetas)

        pmf, timed = layers(ev, [POLICY[1]])
        timed["evaluate_uncached"] = uncached
        for name, fn in timed.items():
            out[f"k{cells}_{name}_us"] = _per_call(fn) * 1e6
        if cells == 80:
            for name, fn in layers(ev, thetas)[1].items():
                out[f"k80_row{len(thetas)}_{name}_us"] = _per_call(fn) * 1e6
        out[f"k{cells}_row{len(thetas)}_us_per_point"] = (
            _per_call(row) / len(thetas) * 1e6)
        out[f"k{cells}_spend_levels"] = int(pmf.level_state.size)

    scaled_e1 = rate._scaled_e1
    for key, (cells, policy) in E1_POINTS.items():
        calls = []
        rate._scaled_e1 = lambda t: calls.append(np.array(t)) or scaled_e1(t)
        try:
            evaluator(cells).evaluate(*policy)
        finally:
            rate._scaled_e1 = scaled_e1
        args = max(calls, key=len)
        out[key] = _per_call(lambda: scaled_e1(args)) / args.size * 1e9
        out[key.replace("_ns_per_arg", "_args")] = int(args.size)

    readme = validate(SystemConfig(interference_cap=1.0),
                      (SuProfile(), SuProfile(harvest_rate=10.0)))
    start = time.perf_counter()
    result = solve_p1(readme)
    out["readme_solve_p1_s"] = time.perf_counter() - start
    out["readme_solve_p1_evaluations"] = result.evaluations
    policies = [PolicyParams(*POLICY)] * readme.n_users
    out["readme_simulate_us_per_slot_user"] = _per_call(
        lambda: simulate(readme, policies, SIM_SLOTS, seed=3),
        repeats=3) / (SIM_SLOTS * readme.n_users) * 1e6

    for name, ((config, profile, policy), slots) in SIMULATIONS.items():
        model = validate(SystemConfig(**config), (SuProfile(**profile),))
        params = [PolicyParams(*policy)]
        out[f"{name}_simulate_us_per_slot_user"] = _per_call(
            lambda: simulate(model, params, slots, seed=3),
            repeats=3) / slots * 1e6
    return out


def _load(src: str):
    """``ehcr.model`` and ``ehcr.sim`` of the tree at `src`.  The package
    leaves ``sys.modules`` again, so another tree loads beside it."""
    sys.path.insert(0, src)
    try:
        from ehcr import model, sim
    finally:
        sys.path.remove(src)
        for name in [n for n in sys.modules if n.split(".")[0] == "ehcr"]:
            del sys.modules[name]
    return model, sim


def measure_walks(parent_src: str, change_src: str) -> dict:
    """Both trees' battery walks, called alternately on the same draws."""
    trees = {"parent": _load(parent_src), "change": _load(change_src)}
    out = {}
    for name, ((config, profile, policy), slots) in WALKS.items():
        walks = {}
        for side, (model, sim) in trees.items():
            drawn = []
            walk = sim._walk_battery
            sim._walk_battery = lambda *args: drawn.append(args) or walk(*args)
            try:
                sim.simulate(model.validate(model.SystemConfig(**config),
                                            (model.SuProfile(**profile),)),
                             [model.PolicyParams(*policy)], slots, seed=3)
            finally:
                sim._walk_battery = walk
            walks[side] = (walk, drawn[0])
        times = {side: [] for side in walks}
        order = ("parent", "change")
        for i in range(WALK_PAIRS):
            for side in order if i % 2 == 0 else reversed(order):
                walk, args = walks[side]
                start = time.perf_counter()
                walk(*args)
                times[side].append(time.perf_counter() - start)
        ratios = [c / p for c, p in zip(times["change"], times["parent"])]
        q1, mid, q3 = statistics.quantiles(ratios, n=4)
        out[name] = {"parent_ms": statistics.median(times["parent"]) * 1e3,
                     "change_ms": statistics.median(times["change"]) * 1e3,
                     "change_over_parent": mid, "ratio_q1": q1,
                     "ratio_q3": q3, "pairs": WALK_PAIRS}
    return out


def _run_child(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, "--child"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _extract_src(rev: str, into: Path) -> Path:
    tar = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def _machine() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="git revision to compare against")
    parser.add_argument("--out", help="JSON file to write (default: stdout)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--paired", nargs=2, metavar=("PARENT", "CHANGE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure()))
        return 0
    if args.paired:
        print(json.dumps(measure_walks(*args.paired)))
        return 0
    if not args.parent:
        parser.error("--parent is required")
    rev = subprocess.run(["git", "-C", str(REPO), "rev-parse", args.parent],
                         capture_output=True, text=True,
                         check=True).stdout.strip()
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": _extract_src(rev, Path(tmp)),
                 "change": REPO / "src"}
        for i in range(ROUNDS):
            order = ("parent", "change")
            for side in order if i % 2 == 0 else reversed(order):
                runs[side].append(_run_child(trees[side]))
        paired = json.loads(subprocess.run(
            [sys.executable, __file__, "--paired", str(trees["parent"]),
             str(trees["change"])], capture_output=True, text=True,
            check=True).stdout)
    medians = {side: {key: statistics.median(run[key] for run in rs)
                      for key in rs[0]} for side, rs in runs.items()}
    report = {
        "command": " ".join(["python3", "benchmarks/layers.py"]
                            + (argv if argv is not None else sys.argv[1:])),
        "parent_rev": rev,
        "policy": list(POLICY),
        "machine": _machine(),
        "rounds": ROUNDS,
        "median": medians,
        "change_over_parent": {key: medians["change"][key]
                               / medians["parent"][key]
                               for key in medians["parent"]},
        "runs": runs,
        "paired_walks": paired,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
