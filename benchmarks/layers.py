#!/usr/bin/env python3
"""Per-layer times of the analytic chain, this checkout against a parent.

Usage::

    python3 benchmarks/layers.py --parent REV --out BENCH_20.json

``REV``'s ``src/`` is extracted with ``git archive`` into a temporary
directory, and both trees are loaded into this one process (``_load``).
Every row is timed one way (``pair``): its callable is built once per
tree, the loop count is calibrated once on the parent's, and then the
two sides are called alternately, ``PAIRS`` times.  The JSON keeps, per
row, each side's median and the median and quartiles of the per-pair
change/parent ratio.

For one user at the default configuration with K = 80 and K = 400 cells
and policy (0.45, 0.2), the rows time the layers an uncached one-cutoff
row runs, each on the evaluator's level skeleton, scatter index and
workspace as ``SuEvaluator.price_row`` runs it: the spend law
(``transmit_row``), then those of ``price_row``: the steady state
(``censoring``: ``TransitionBuilder.steady_state``, which censors the
spend scatter), the level integrals (``rate.level_gains``) and the
terms the steady state weights (``level_weights``, ``rate_sum``,
``interference_load`` and ``transmission_outage``), plus the uncached
``evaluate`` itself, in microseconds per call.  At K = 80 the same layers are timed on the
9-cutoff row at omega = 0.45 (``k80_row9_<layer>_us``), the shape of
most rows of the policy search.  At K = 400 the steady state and the
level integrals are also timed at the two spend fractions of
perfbench's ``grid-k400`` rows, 0.3 and 0.7
(``k400_omega30_<layer>_us``), where levels spend few and many cells,
and the steady state at a harvest rate of 0.8
(``k400_harvest08_censoring_us``), where the censored blocks are
narrowest.
An uncached row of cutoffs at omega = 0.45 is timed in microseconds per
point: 9 cutoffs at K = 80 and 3 at K = 400
(``SuEvaluator.evaluate_row``).  ``rate._scaled_e1`` is timed in
nanoseconds per element on the arguments of its largest call in pricing
K = 80 at (0.15, 0.2) and K = 400 at (0.7, 0.2), as the level integrals
call it: into an output array of its own, on a warm workspace.  (Called
without one, it allocates its masks and scratch on every call, and at
K = 400's 53,600 arguments that allocation cost more than the
arithmetic.)  ``counts`` also has
the level integrals' antiderivative passes (``rate._antiderivative``
calls) of one README ``solve_p1`` and of one repetition of perfbench's
``grid-k400`` body (the K = 400 surface on omega 0.3, 0.7 and cutoffs
0.05, 0.2, 0.8, from a fresh evaluator).

End to end: ``solve_p1`` on the README's two-user model in seconds (its
priced points go to ``counts``), and ``simulate`` in microseconds per
slot per user: the README model with both users at (0.45, 0.2) over
``SIM_SLOTS`` slots, the two points the ``simulate-grade`` benchmark
runs (the default (0.35, 0.2) over 75,000 slots and the low-harvest
point over 12,500) and the default over 2M slots.  The battery walk
alone (``sim._walk_battery`` on the draws ``simulate`` passes it) is
timed in milliseconds in each regime of ``WALKS``: where guessed paths
meet the true one within a few dozen slots (the default, the README's
second user, K = 400) and where they meet slowly (the low-harvest
point).
"""
from __future__ import annotations

import argparse
import importlib
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
from types import SimpleNamespace

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
MODULES = ("model", "policy", "rate", "optimizer", "sim")
# calibrated loops run at least SAMPLE_S
SAMPLE_S = 0.05
PAIRS = 21
POLICY = (0.45, 0.2)
# the spend fractions of perfbench's grid-k400 rows
GRID_OMEGAS = (0.3, 0.7)
# the low harvest rate of the K = 400 steady-state row
LOW_RATE = 0.8
E1_POINTS = {"e1_k80": (80, (0.15, 0.2)), "e1_k400": (400, (0.7, 0.2))}
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


def _layers(m, ev, thetas, omega=POLICY[0]):
    """The layers an uncached row of ``thetas`` at ``omega`` runs, each
    called as ``SuEvaluator.price_row`` calls it: on the evaluator's level
    skeleton and workspace.  Each layer rewrites the same work arrays with
    the same values, so the inputs of the others stay valid."""
    cfg, prof, sensing, work = ev.config, ev.profile, ev.sensing, ev._work
    rate = m.rate
    skeleton = ev._level_skeleton(omega)

    def spend_pmf():
        return m.policy.transmit_row(omega, thetas, cfg.probe_cells,
                                     cfg.battery_cells, ev.gain, skeleton,
                                     work)

    def censoring():
        return ev._builder.steady_state(
            pmf.idle_law, sensing.pi_hat_idle, sensing.pi_hat_busy,
            skeleton, work)

    def level_gains():
        return rate.level_gains(cfg, prof, sensing, ev.estimation, pmf, work)

    def user_terms():
        weights = rate.level_weights(zeta, pmf)
        rate.rate_sum(cfg, sensing, pmf, gains, weights, work)
        rate.interference_load(cfg, prof, sensing, pmf, weights, work)
        rate.transmission_outage(zeta, pmf, sensing, cfg.probe_cells)

    pmf = spend_pmf()
    gains = level_gains()
    zeta = censoring()
    return pmf, {
        "spend_pmf": spend_pmf,
        "censoring": censoring,
        "level_gains": level_gains,
        "rate_load_outage": user_terms,
    }


def _model(m, config, profiles):
    return m.model.validate(m.model.SystemConfig(**config),
                            tuple(m.model.SuProfile(**p) for p in profiles))


def rows(m, counts: dict):
    """``(name, callable, scale)`` of every row on the tree ``m``; a call's
    seconds times ``scale`` is the row's unit.  Built lazily, one row at a
    time; the counts the rows meet go to ``counts``."""
    evaluator = m.optimizer.SuEvaluator
    for cells in (80, 400):
        ev = evaluator(_model(m, {"battery_cells": cells}, [{}]), 0)
        pmf, timed = _layers(m, ev, [POLICY[1]])
        counts[f"k{cells}_spend_levels"] = int(pmf.level_state.size)
        for name, fn in timed.items():
            yield f"k{cells}_{name}_us", fn, 1e6

        def uncached(ev=ev):
            ev._cache.clear()
            ev.evaluate(*POLICY)

        yield f"k{cells}_evaluate_uncached_us", uncached, 1e6
        thetas = ROW_THETAS[cells]
        if cells == 80:
            for name, fn in _layers(m, ev, thetas)[1].items():
                yield f"k80_row{len(thetas)}_{name}_us", fn, 1e6
        else:
            for omega in GRID_OMEGAS:
                timed = _layers(m, ev, [POLICY[1]], omega)[1]
                for name in ("censoring", "level_gains"):
                    yield (f"k400_omega{round(100 * omega)}_{name}_us",
                           timed[name], 1e6)
            low = evaluator(_model(m, {"battery_cells": cells},
                                   [{"harvest_rate": LOW_RATE}]), 0)
            yield (f"k400_harvest{round(10 * LOW_RATE):02d}_censoring_us",
                   _layers(m, low, [POLICY[1]])[1]["censoring"], 1e6)

        def row(ev=ev, thetas=thetas):
            ev._cache.clear()
            ev.evaluate_row(POLICY[0], thetas)

        yield f"k{cells}_row{len(thetas)}_us_per_point", row, 1e6 / len(thetas)

    scaled_e1 = m.rate._scaled_e1
    for key, (cells, policy) in E1_POINTS.items():
        calls = []
        m.rate._scaled_e1 = (lambda t, *args: calls.append(t.copy())
                             or scaled_e1(t, *args))
        try:
            evaluator(_model(m, {"battery_cells": cells}, [{}]), 0).evaluate(
                *policy)
        finally:
            m.rate._scaled_e1 = scaled_e1
        args = max(calls, key=lambda t: t.size)
        counts[f"{key}_args"] = int(args.size)
        yield (f"{key}_ns_per_arg",
               lambda a=args, out=args.copy(), work=m.rate.Workspace():
               scaled_e1(a, out, work), 1e9 / args.size)

    readme = _model(m, {"interference_cap": 1.0}, [{}, {"harvest_rate": 10.0}])
    grid = _model(m, {"battery_cells": 400}, [{}])
    antiderivative = m.rate._antiderivative
    passes = []
    m.rate._antiderivative = (lambda *args: passes.append(None)
                              or antiderivative(*args))
    try:
        counts["readme_solve_p1_evaluations"] = (
            m.optimizer.solve_p1(readme).evaluations)
        counts["readme_solve_p1_passes"] = len(passes)
        passes.clear()
        m.optimizer.objective_surface(
            grid, GRID_OMEGAS, ROW_THETAS[400],
            evaluator=m.optimizer.SuEvaluator(grid, 0))
        counts["grid_k400_passes"] = len(passes)
    finally:
        m.rate._antiderivative = antiderivative
    yield "readme_solve_p1_s", lambda: m.optimizer.solve_p1(readme), 1.0
    simulations = {"readme": (readme, [POLICY] * 2, SIM_SLOTS)}
    for name, ((config, profile, policy), slots) in SIMULATIONS.items():
        simulations[name] = _model(m, config, [profile]), [policy], slots
    for name, (model, policies, slots) in simulations.items():
        params = [m.model.PolicyParams(*p) for p in policies]
        yield (f"{name}_simulate_us_per_slot_user",
               lambda a=(model, params, slots): m.sim.simulate(*a, seed=3),
               1e6 / (slots * len(params)))

    walk = m.sim._walk_battery
    for name, ((config, profile, policy), slots) in WALKS.items():
        drawn = []
        m.sim._walk_battery = lambda *a: drawn.append(a) or walk(*a)
        try:
            m.sim.simulate(_model(m, config, [profile]),
                           [m.model.PolicyParams(*policy)], slots, seed=3)
        finally:
            m.sim._walk_battery = walk
        yield f"walk_{name}_ms", lambda a=drawn[0]: walk(*a), 1e3


def _loop(fn, number: int) -> float:
    start = time.perf_counter()
    for _ in range(number):
        fn()
    return time.perf_counter() - start


def pair(fns: dict, scale: float = 1.0, pairs: int = PAIRS) -> dict:
    """Time ``fns["parent"]`` and ``fns["change"]`` alternately.

    The loop count is doubled until the parent's loop takes ``SAMPLE_S``;
    each side then runs that loop once per pair, the first side
    alternating.  Per-call medians are in seconds times ``scale``.
    """
    number, took = 1, _loop(fns["parent"], 1)
    while took < SAMPLE_S:
        number *= 2
        took = _loop(fns["parent"], number)
    fns["change"]()
    times = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else reversed(SIDES):
            times[side].append(_loop(fns[side], number) / number * scale)
    ratios = [c / p for c, p in zip(times["change"], times["parent"])]
    q1, mid, q3 = statistics.quantiles(ratios, n=4)
    return {"parent": statistics.median(times["parent"]),
            "change": statistics.median(times["change"]),
            "change_over_parent": mid, "ratio_q1": q1, "ratio_q3": q3,
            "pairs": pairs, "loops": number}


def _load(src: str) -> SimpleNamespace:
    """The modules of ``ehcr`` the rows need, from the tree at `src`.  The
    package leaves ``sys.modules`` again, and an ``ehcr`` loaded before
    returns to it, so another tree loads beside it."""
    ours = [n for n in sys.modules if n.split(".")[0] == "ehcr"]
    saved = {name: sys.modules.pop(name) for name in ours}
    sys.path.insert(0, src)
    try:
        return SimpleNamespace(**{name: importlib.import_module(f"ehcr.{name}")
                                  for name in MODULES})
    finally:
        sys.path.remove(src)
        for name in [n for n in sys.modules if n.split(".")[0] == "ehcr"]:
            del sys.modules[name]
        sys.modules.update(saved)


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
    parser.add_argument("--parent", required=True,
                        help="git revision to compare against")
    parser.add_argument("--out", help="JSON file to write (default: stdout)")
    args = parser.parse_args(argv)
    rev = subprocess.run(["git", "-C", str(REPO), "rev-parse", args.parent],
                         capture_output=True, text=True,
                         check=True).stdout.strip()
    counts = {side: {} for side in SIDES}
    timed = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": _load(str(_extract_src(rev, Path(tmp)))),
                 "change": _load(str(REPO / "src"))}
    for (name, parent, scale), (_, change, _) in zip(
            *(rows(trees[side], counts[side]) for side in SIDES)):
        timed[name] = pair({"parent": parent, "change": change}, scale)
    report = {
        "command": " ".join(["python3", "benchmarks/layers.py"]
                            + (argv if argv is not None else sys.argv[1:])),
        "parent_rev": rev,
        "policy": list(POLICY),
        "machine": _machine(),
        "rows": timed,
        "counts": counts,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
