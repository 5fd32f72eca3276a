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
(``readme_simulate_us_per_slot_user``).
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
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure()))
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
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
