"""Command-line front end: config files in, CSV artifacts out.

Four subcommands cover the workflows: `analyze` prices a fixed policy,
`optimize` searches for the best one, `simulate` grades the analytics
against a Monte Carlo run, and `sweep` walks one parameter axis.  Every
run drops a manifest next to its outputs so results are reproducible
from the artifacts alone; reruns with identical inputs are byte
identical.

Exit codes: 0 success, 2 config/validation error, 3 infeasible
optimization, 4 simulation-vs-analytic comparison failure.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import os
import re
import sys
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import __version__
from .analysis import NetworkAnalysis, analyze
from .model import (NetworkModel, PolicyParams, SuProfile, SystemConfig,
                    ValidationError, validate)
from .optimizer import (SearchConfig, SuEvaluator, SuPoint, check_search,
                        solve_p1)
from .policy import check_params
from .sim import compare, simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_MISMATCH = 4


def _keys(*records: type) -> Dict[str, type]:
    """Each field of ``records`` as a config key, with the type it parses
    to: ``int`` or ``bool`` where the field is annotated so, ``float``
    otherwise."""
    kinds = {int: int, "int": int, bool: bool, "bool": bool}
    return {f.name: kinds.get(f.type, float)
            for record in records for f in dataclasses.fields(record)}


_SYSTEM_KEYS = _keys(SystemConfig)
_POLICY_KEYS = _keys(PolicyParams)
_SU_KEYS = _keys(SuProfile, PolicyParams)
_SEARCH_KEYS = _keys(SearchConfig)

SWEEP_AXES = ("tau_s", "alpha_t", "omega", "theta", "K", "rho", "I_av")


class ConfigError(ValidationError):
    """Config file or flags could not be turned into a valid model."""


@dataclasses.dataclass
class LoadedConfig:
    """Everything a subcommand needs, resolved from one config file."""

    model: NetworkModel
    policies: List[Optional[PolicyParams]]
    search: SearchConfig
    snapshot: Dict[str, Dict[str, object]]

    def require_policies(self) -> List[PolicyParams]:
        missing = [i + 1 for i, p in enumerate(self.policies) if p is None]
        if missing:
            raise ConfigError(
                [f"[su.{i}] needs omega and theta for this command"
                 for i in missing])
        return list(self.policies)  # type: ignore[return-value]


def _at(text: str, section: str, key: str) -> str:
    """`` (line N)`` for the line that sets ``key`` in ``[section]``, else ``""``.

    The option name is the text before a line's first ``=`` or ``:``,
    compared in lower case as configparser reads it.
    """
    current = None
    for n, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            current = stripped[1:].split("]", 1)[0].strip()
        elif current == section:
            name = re.match(r"([^=:]*)[=:]", stripped)
            if name and name.group(1).strip().lower() == key:
                return f" (line {n})"
    return ""


def _parse(raw: str, kind: type) -> object:
    """``raw`` as a float, for an ``int`` field as an int when the value
    is integral, for a ``bool`` field as configparser reads a boolean
    (1/yes/true/on, 0/no/false/off); ValueError otherwise (NaN and inf
    included)."""
    if kind is bool:
        state = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
        if state is None:
            raise ValueError(f"{raw!r} is not a boolean")
        return state
    value = float(raw)
    if kind is float:
        return value
    if not value.is_integer():
        raise ValueError(f"{raw!r} is not an integer")
    return int(value)


def _read_section(parser: configparser.ConfigParser, section: str,
                  keys: Dict[str, type], text: str,
                  problems: List[str]) -> Dict[str, object]:
    values: Dict[str, object] = {}
    for key, raw in parser.items(section):
        at = _at(text, section, key)
        if key not in keys:
            problems.append(f"[{section}] unknown key {key!r}{at}")
            continue
        try:
            values[key] = _parse(raw, keys[key])
        except ValueError:
            kind = {int: " as an integer",
                    bool: " as a boolean"}.get(keys[key], "")
            problems.append(
                f"[{section}] {key}: cannot parse {raw!r}{kind}{at}")
    return values


def load_config(path: str) -> LoadedConfig:
    """Parse and validate a run configuration.

    Sections: [system] for shared constants, [su.1]..[su.N] for per-user
    statistics plus an optional (omega, theta) policy, [search] for
    optimizer knobs, the only place the search grid is set.  All values
    are plain numbers in SI base units, except the boolean
    ``ideal_sensing``.
    Raises ConfigError listing every problem found, with line numbers
    where they can be attributed.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError([str(exc)]) from exc

    problems: List[str] = []
    system_vals = {}
    if parser.has_section("system"):
        system_vals = _read_section(parser, "system", _SYSTEM_KEYS, text,
                                    problems)

    su_sections = sorted(
        (s for s in parser.sections() if s.startswith("su.")),
        key=lambda s: s[3:])
    indices = []
    for section in su_sections:
        tail = section[3:]
        # the index must read back as the section's name: su.01 is not su.1
        if not (tail.isdecimal() and tail == str(int(tail))):
            problems.append(f"[{section}] user sections are [su.1]..[su.N]")
        else:
            indices.append(int(tail))
    if not indices:
        problems.append("no [su.N] sections: at least one user is required")
    elif sorted(indices) != list(range(1, len(indices) + 1)):
        problems.append("user sections must be numbered consecutively "
                        f"from 1, got {sorted(indices)}")

    profiles: List[SuProfile] = []
    policies: List[Optional[PolicyParams]] = []
    su_snapshot: Dict[str, Dict[str, object]] = {}
    for idx in sorted(set(indices)):
        section = f"su.{idx}"
        vals = _read_section(parser, section, _SU_KEYS, text, problems)
        policy_vals = {k: vals.pop(k) for k in _POLICY_KEYS if k in vals}
        profiles.append(SuProfile(**vals))
        policies.append(PolicyParams(**policy_vals)
                        if len(policy_vals) == 2 else None)
        if len(policy_vals) == 1:
            problems.append(f"[{section}] omega and theta go together; "
                            f"got only {list(policy_vals)[0]!r}")
        elif policy_vals:
            try:
                check_params(policies[-1])
            except ValueError as exc:
                key = str(exc).split()[0]
                problems.append(f"[{section}] {exc}{_at(text, section, key)}")
        su_snapshot[section] = {**vals, **policy_vals}

    search_vals: Dict[str, object] = {}
    if parser.has_section("search"):
        search_vals = _read_section(parser, "search", _SEARCH_KEYS, text,
                                    problems)
    search = SearchConfig(**search_vals)  # type: ignore[arg-type]
    try:
        check_search(search)
    except ValueError as exc:
        key = str(exc).split()[0]
        problems.append(f"[search] {exc}{_at(text, 'search', key)}")

    known = {"system", "search"} | set(su_sections)
    for section in parser.sections():
        if section not in known:
            problems.append(f"unknown section [{section}]")

    if problems:
        raise ConfigError(problems)

    config = SystemConfig(**system_vals)
    try:
        model = validate(config, profiles)
    except ValidationError as exc:
        # each problem starts with its field, after "profile N: " for [su.N]
        located = []
        for problem in exc.errors:
            section, message = "system", problem
            if problem.startswith("profile "):
                tag, message = problem.split(": ", 1)
                section = "su." + tag[len("profile "):]
            located.append(problem + _at(text, section, message.split()[0]))
        raise ConfigError(located) from exc

    snapshot = {"system": dataclasses.asdict(config), **su_snapshot,
                "search": dataclasses.asdict(search)}
    return LoadedConfig(model=model, policies=policies, search=search,
                        snapshot=snapshot)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    return str(value)


def _format_column(column: Sequence[object]) -> List[str]:
    """Every cell of one column as ``_fmt`` writes it.

    Float and integer arrays are formatted a whole column at a time, with
    no per-cell type test; any other column goes through ``_fmt``.
    """
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        column = column.tolist()
        if kind == "f":
            return [format(v, ".12g") for v in column]
        if kind in "iu":
            return list(map(str, column))
    return [_fmt(cell) for cell in column]


def _write_csv(path: str, header: Sequence[str],
               columns: Iterable[Sequence[object]]) -> None:
    """One table, given column by column, as CSV."""
    cells = [_format_column(column) for column in columns]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells))


def _write_manifest(out_dir: str, command: str, loaded: LoadedConfig,
                    outputs: Sequence[str], **extras: object) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": loaded.snapshot,
        "outputs": sorted(outputs),
    }
    manifest.update(extras)
    path = os.path.join(out_dir, "run_manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


_METRIC_COLUMNS = ("omega", "theta", "rate_lb", "interference",
                   "avg_energy", "battery_outage", "transmission_outage")


def _points(analysis: NetworkAnalysis) -> List[SuPoint]:
    """Each user's metrics in an analysis, as the policy search reports them."""
    return [SuPoint(params=su.params, rate=su.rate.total,
                    interference=su.interference,
                    avg_energy=su.chain.avg_energy,
                    battery_outage=su.chain.outage,
                    transmission_outage=su.transmission_outage)
            for su in analysis.sus]


def _write_metrics(path: str, points: Sequence[SuPoint], sum_rate: float,
                   aic_lhs: float) -> None:
    """One row of ``_METRIC_COLUMNS`` per user, then the network total."""
    rows: List[List[object]] = [
        ["su%d" % i, p.params.omega, p.params.theta, p.rate, p.interference,
         p.avg_energy, p.battery_outage, p.transmission_outage]
        for i, p in enumerate(points, start=1)]
    rows.append(["total", None, None, sum_rate, aic_lhs, None, None, None])
    _write_csv(path, ("su",) + _METRIC_COLUMNS, zip(*rows))


def cmd_analyze(args: argparse.Namespace, loaded: LoadedConfig) -> int:
    policies = loaded.require_policies()
    analysis = analyze(loaded.model, policies)
    points = _points(analysis)
    outputs = ["metrics.csv", "zeta.csv"]
    _write_metrics(os.path.join(args.out, "metrics.csv"), points,
                   analysis.breakdown.sum_rate, analysis.breakdown.aic_lhs)
    zeta_rows = [["su%d" % (su.index + 1), level, prob]
                 for su in analysis.sus
                 for level, prob in enumerate(su.chain.steady_state)]
    _write_csv(os.path.join(args.out, "zeta.csv"),
               ("su", "level", "probability"), zip(*zeta_rows))
    if args.dump_matrix:
        for su in analysis.sus:
            name = "matrix_su%d.csv" % (su.index + 1)
            outputs.append(name)
            _write_csv(os.path.join(args.out, name),
                       ["to\\from"] + [str(j) for j in
                                       range(su.chain.matrix.shape[1])],
                       [np.arange(su.chain.matrix.shape[0])]
                       + list(su.chain.matrix.T))
    _write_manifest(args.out, "analyze", loaded, outputs)
    for i, point in enumerate(points, start=1):
        print(f"su{i}: rate_lb={point.rate:.6g} bit/s "
              f"interference={point.interference:.6g} W "
              f"avg_energy={point.avg_energy:.6g} cells")
    print(f"total: rate_lb={analysis.breakdown.sum_rate:.6g} bit/s "
          f"aic_lhs={analysis.breakdown.aic_lhs:.6g} W "
          f"satisfied={analysis.breakdown.aic_satisfied}")
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace, loaded: LoadedConfig) -> int:
    result = solve_p1(loaded.model, loaded.search)
    _write_metrics(os.path.join(args.out, "optimum.csv"), result.per_su,
                   result.sum_rate, result.aic_lhs)
    _write_manifest(args.out, "optimize", loaded, ["optimum.csv"],
                    feasible=result.feasible,
                    evaluations=result.evaluations, sweeps=result.sweeps)
    status = "feasible" if result.feasible else "INFEASIBLE"
    print(f"optimum ({status}): rate_lb={result.sum_rate:.6g} bit/s "
          f"aic_lhs={result.aic_lhs:.6g} W "
          f"cap={loaded.model.config.interference_cap:.6g} W")
    for i, point in enumerate(result.per_su):
        print(f"  su{i + 1}: omega={point.params.omega:.6g} "
              f"theta={point.params.theta:.6g} rate={point.rate:.6g}")
    if not result.feasible:
        print("no policy satisfies the interference cap; "
              "least-loading point reported", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace, loaded: LoadedConfig) -> int:
    if args.slots < 1:
        raise ConfigError([f"--slots must be >= 1, got {args.slots}"])
    if args.seed < 0:
        raise ConfigError([f"--seed must be >= 0, got {args.seed}"])
    policies = loaded.require_policies()
    analysis = analyze(loaded.model, policies)
    trace = simulate(loaded.model, policies, slots=args.slots,
                     seed=args.seed, assume_idle_gains=args.assume_idle_gains)
    report = compare(trace, analysis)
    rows = [[("net" if c.su_index is None else "su%d" % (c.su_index + 1)),
             c.name, c.simulated, c.analytic, c.deviation, c.tolerance,
             c.kind, c.passed, c.se] for c in report.checks]
    outputs = ["compare.csv"]
    _write_csv(os.path.join(args.out, "compare.csv"),
               ("scope", "quantity", "simulated", "analytic", "deviation",
                "tolerance", "kind", "passed", "se"), zip(*rows))
    if args.dump_trace:
        for su in trace.sus:
            name = "trace_su%d.csv" % (su.index + 1)
            outputs.append(name)
            # flags as 0/1 ints
            columns = (np.arange(su.slots), su.busy.view(np.int8),
                       su.sensed_busy.view(np.int8), su.state_before,
                       su.probed.view(np.int8), su.gain, su.spent,
                       su.harvested, su.state_after, su.rate_sample,
                       su.interference_sample)
            _write_csv(os.path.join(args.out, name),
                       ("slot", "busy", "sensed_busy", "state_before",
                        "probed", "gain", "spent", "harvested",
                        "state_after", "rate_sample",
                        "interference_sample"), columns)
    _write_manifest(args.out, "simulate", loaded, outputs, seed=args.seed,
                    slots=args.slots, assume_idle_gains=args.assume_idle_gains,
                    passed=report.passed)
    for line in report.lines():
        print(line)
    skips = sum(su.probe_skips for su in trace.sus)
    if skips:
        print(f"note: {skips} sensed-idle slots lacked the probe reserve "
              "and were skipped")
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _sweep_model(loaded: LoadedConfig, axis: str,
                 value: float) -> NetworkModel:
    config = loaded.model.config
    profiles = loaded.model.profiles
    if axis in ("alpha_t", "K") and not float(value).is_integer():
        # an int field takes integral values only, as in a config file
        raise ConfigError([f"{axis} must be an integer; got {value:.12g}"])
    if axis == "tau_s":
        config = dataclasses.replace(config, sensing_duration=value)
    elif axis == "alpha_t":
        config = dataclasses.replace(config, probe_cells=int(value))
    elif axis == "K":
        config = dataclasses.replace(config, battery_cells=int(value))
    elif axis == "I_av":
        config = dataclasses.replace(config, interference_cap=value)
    elif axis == "rho":
        profiles = tuple(dataclasses.replace(p, harvest_rate=value)
                         for p in profiles)
    return validate(config, profiles)


def _sweep_policies(policies: List[PolicyParams], axis: str,
                    value: float) -> List[PolicyParams]:
    if axis in ("omega", "theta"):
        policies = [dataclasses.replace(p, **{axis: value}) for p in policies]
    try:
        for policy in policies:
            check_params(policy)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    return policies


def cmd_sweep(args: argparse.Namespace, loaded: LoadedConfig) -> int:
    if args.points < 2:
        raise ConfigError([f"--points must be >= 2, got {args.points}"])
    if args.optimize and args.axis in ("omega", "theta"):
        raise ConfigError(["--optimize chooses the policy, so it cannot "
                           f"sweep the policy axis {args.axis}"])
    values = np.linspace(args.sweep_from, args.to, args.points)
    n_users = loaded.model.n_users
    header: List[str] = [args.axis, "status", "rate_lb", "aic_lhs"]
    for i in range(1, n_users + 1):
        header += [f"rate_su{i}", f"omega_su{i}", f"theta_su{i}",
                   f"avg_energy_su{i}", f"battery_outage_su{i}",
                   f"transmission_outage_su{i}"]

    # a missing policy fails the whole sweep, not each of its points
    policies = None if args.optimize else loaded.require_policies()
    # Physics is unchanged along these axes, so evaluators can be shared.
    shared_evaluators = None
    if args.optimize and args.axis in ("I_av",):
        shared_evaluators = [SuEvaluator(loaded.model, i)
                             for i in range(n_users)]

    rows: List[List[object]] = []
    for value in values:
        try:
            model = _sweep_model(loaded, args.axis, value)
            if args.optimize:
                result = solve_p1(model, loaded.search,
                                  evaluators=shared_evaluators)
                status = "ok" if result.feasible else "infeasible"
                sum_rate, aic_lhs = result.sum_rate, result.aic_lhs
                points = result.per_su
            else:
                analysis = analyze(
                    model, _sweep_policies(policies, args.axis, value))
                status, points = "ok", _points(analysis)
                sum_rate = analysis.breakdown.sum_rate
                aic_lhs = analysis.breakdown.aic_lhs
        except ValidationError as exc:  # ConfigError included
            note = str(exc).replace(",", ";")
            rows.append([value, f"invalid: {note}"]
                        + [None] * (len(header) - 2))
            continue
        row: List[object] = [value, status, sum_rate, aic_lhs]
        for p in points:
            row += [p.rate, p.params.omega, p.params.theta, p.avg_energy,
                    p.battery_outage, p.transmission_outage]
        rows.append(row)

    _write_csv(os.path.join(args.out, "sweep.csv"), header, zip(*rows))
    _write_manifest(args.out, "sweep", loaded, ["sweep.csv"],
                    axis=args.axis, sweep_from=args.sweep_from, to=args.to,
                    points=args.points, optimize=args.optimize)
    ok = sum(1 for r in rows if r[1] == "ok")
    print(f"swept {args.axis} over [{args.sweep_from:g}, {args.to:g}] "
          f"({args.points} points, {ok} valid) -> sweep.csv")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehcr",
        description="Energy-harvesting cognitive-radio uplink: analytic "
                    "metrics, policy optimization, Monte Carlo checks.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, metavar="PATH",
                       help="run configuration (INI; see docs)")
        p.add_argument("--out", default=".", metavar="DIR",
                       help="directory for CSV outputs and the manifest")

    p_an = sub.add_parser("analyze", help="price the configured policies")
    common(p_an)
    p_an.add_argument("--dump-matrix", action="store_true",
                      help="also write each user's transition matrix")
    p_an.set_defaults(func=cmd_analyze)

    p_opt = sub.add_parser("optimize", help="search for the best policies")
    common(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("simulate",
                           help="Monte Carlo run graded against analytics")
    common(p_sim)
    p_sim.add_argument("--slots", type=int, default=1_000_000, metavar="N",
                       help="number of simulated frames")
    p_sim.add_argument("--seed", type=int, default=0, metavar="N")
    p_sim.add_argument("--dump-trace", action="store_true",
                       help="also write per-slot records per user")
    p_sim.add_argument("--assume-idle-gains", action="store_true",
                       help="draw fed-back gains from the idle-band law "
                            "even on missed detections, like the analytic "
                            "chain does")
    p_sim.set_defaults(func=cmd_simulate)

    p_sw = sub.add_parser("sweep", help="walk one parameter axis")
    common(p_sw)
    p_sw.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sw.add_argument("--from", dest="sweep_from", type=float,
                      required=True, metavar="F")
    p_sw.add_argument("--to", type=float, required=True, metavar="T")
    p_sw.add_argument("--points", type=int, default=21, metavar="N")
    p_sw.add_argument("--optimize", action="store_true",
                      help="re-optimize policies at every grid point")
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        loaded = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        return args.func(args, loaded)
    except ValidationError as exc:  # ConfigError included
        for problem in exc.errors:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
