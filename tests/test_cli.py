"""Command-line workflows: config parsing, artifacts, exit codes."""
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ehcr
from ehcr import __version__
from ehcr.analysis import analyze
from ehcr.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_MISMATCH, EXIT_OK,
                      _write_csv, load_config, main)
from ehcr.model import NetworkModel, PolicyParams, SuProfile, SystemConfig
from ehcr.optimizer import SearchConfig

BASE_CONFIG = """\
[system]
battery_cells = 12
interference_cap = 0.5

[su.1]
harvest_rate = 6.0
omega = 0.6
theta = 0.1
"""

# a small grid for the policy searches of the optimize and sweep tests
SMALL_SEARCH = """
[search]
omega_points = 5
theta_points = 5
refine_levels = 1
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_analyze_writes_metrics_zeta_and_manifest(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert "total: rate_lb=" in capsys.readouterr().out

    model = NetworkModel(config=SystemConfig(battery_cells=12,
                                             interference_cap=0.5),
                         profiles=(SuProfile(harvest_rate=6.0),))
    ref = analyze(model, [PolicyParams(0.6, 0.1)]).sus[0]
    rows = _read_csv(out / "metrics.csv")
    assert rows[0][:4] == ["su", "omega", "theta", "rate_lb"]
    su1 = rows[1]
    assert su1[0] == "su1"
    assert float(su1[3]) == pytest.approx(ref.rate.total, rel=1e-10)
    assert float(su1[4]) == pytest.approx(ref.interference, rel=1e-10)
    assert float(su1[5]) == pytest.approx(ref.chain.avg_energy, rel=1e-10)

    zeta = _read_csv(out / "zeta.csv")
    assert len(zeta) == 1 + 13      # header + levels 0..12
    probs = [float(r[2]) for r in zeta[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert manifest["version"] == __version__
    assert manifest["outputs"] == ["metrics.csv", "zeta.csv"]
    assert manifest["config"]["system"]["battery_cells"] == 12


def test_analyze_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG)
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name in ("metrics.csv", "zeta.csv", "run_manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_analyze_can_dump_the_transition_matrix(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out),
                 "--dump-matrix"]) == EXIT_OK
    rows = _read_csv(out / "matrix_su1.csv")
    assert rows[0][0] == "to\\from"
    assert len(rows) == 1 + 13
    for j in range(13):   # columns are current levels and must sum to one
        assert sum(float(rows[i][j + 1]) for i in range(1, 14)) \
            == pytest.approx(1.0, abs=1e-9)


def test_ideal_sensing_flag_zeroes_the_interference_column(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG.replace(
        "[system]", "[system]\nideal_sensing = true"))
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = _read_csv(out / "metrics.csv")
    assert rows[1][4] == "0"    # su1 interference
    assert rows[-1][4] == "0"   # network total
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["system"]["ideal_sensing"] is True
    assert "ideal_sensing" not in manifest


@pytest.mark.parametrize("raw,value", [("1", True), ("On", True),
                                       ("no", False), ("FALSE", False)])
def test_ideal_sensing_parses_as_configparser_booleans(tmp_path, raw, value):
    cfg = _write(tmp_path, BASE_CONFIG.replace(
        "[system]", f"[system]\nideal_sensing = {raw}"))
    assert load_config(cfg).model.config.ideal_sensing is value


@pytest.mark.parametrize("raw", ["2", "0.0", "nan", "maybe"])
def test_non_boolean_ideal_sensing_points_to_its_line(tmp_path, capsys, raw):
    cfg = _write(tmp_path, BASE_CONFIG.replace(
        "[system]", f"[system]\nideal_sensing = {raw}"))
    assert main(["analyze", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: [system] ideal_sensing: cannot parse {raw!r} "
        "as a boolean (line 2)\n")


def test_every_record_field_is_a_config_key(tmp_path):
    """Each field of the four records, set off its default, loads back
    and lands in the manifest's config snapshot."""
    config = SystemConfig(
        slot_duration=20e-3, sensing_duration=2e-3, probing_duration=0.2e-3,
        sampling_frequency=50e3, bandwidth=20e3, energy_unit=0.02,
        battery_cells=16, probe_cells=2, prior_idle=0.6,
        target_detection=0.9, pu_power=2.0, pu_ap_channel_var=0.5,
        interference_cap=0.7, ideal_sensing=True)
    profile = SuProfile(su_ap_var=1.5, pu_su_var=0.8, su_pu_var=1.2,
                        sensing_noise=0.9, ap_noise=1.1, harvest_rate=5.0)
    policy = PolicyParams(omega=0.4, theta=0.3)
    search = SearchConfig(omega_points=5, theta_points=6, theta_floor=2e-3,
                          theta_cap=3.0, refine_levels=2, refine_points=5,
                          top_candidates=2)
    sections = {"system": dataclasses.asdict(config),
                "su.1": {**dataclasses.asdict(profile),
                         **dataclasses.asdict(policy)},
                "search": dataclasses.asdict(search)}
    for record in (config, profile, policy, search):
        for f in dataclasses.fields(record):
            assert getattr(record, f.name) != f.default, f.name
    text = "".join(f"[{name}]\n"
                   + "".join(f"{k} = {v!r}\n" for k, v in values.items())
                   for name, values in sections.items())
    cfg = _write(tmp_path, text)

    loaded = load_config(cfg)
    assert loaded.model.config == config
    assert loaded.model.profiles == (profile,)
    assert loaded.policies == [policy]
    assert loaded.search == search

    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"] == sections


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.ini")
    assert main(["analyze", "--config", missing,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def test_analyze_requires_a_policy(tmp_path, capsys):
    cfg = _write(tmp_path, "[su.1]\nharvest_rate = 6.0\n")
    # a sweep that analyzes fixed policies needs them before its first point
    for command in (["analyze"], ["sweep", "--axis", "rho", "--from", "1",
                                  "--to", "3", "--points", "3"]):
        assert main(command + ["--config", cfg,
                               "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "needs omega and theta" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("tail", ["01", "\u0661", "\u00b2"])
def test_user_sections_are_named_by_their_index(tmp_path, capsys, tail):
    # a leading zero, an Arabic-Indic one and a superscript two
    cfg = _write(tmp_path, BASE_CONFIG.replace("[su.1]", f"[su.{tail}]"))
    assert main(["analyze", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert (f"[su.{tail}] user sections are [su.1]..[su.N]"
            in capsys.readouterr().err)


def test_simulate_rejects_a_negative_seed(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                 "--slots", "10", "--seed", "-1"]) == EXIT_CONFIG
    assert (capsys.readouterr().err
            == "config error: --seed must be >= 0, got -1\n")
    assert not (tmp_path / "run_manifest.json").exists()


def test_impossible_durations_are_reported(tmp_path, capsys):
    text = BASE_CONFIG.replace("[system]",
                               "[system]\nsensing_duration = 20e-3")
    cfg = _write(tmp_path, text)
    assert main(["analyze", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "tau_d" in capsys.readouterr().err


def test_unknown_key_points_to_its_line(tmp_path, capsys):
    cfg = _write(tmp_path, "[system]\nbattery_cells = 12\nbogus = 3\n"
                 "\n[su.1]\nharvest_rate = 6.0\n")
    assert main(["analyze", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown key 'bogus'" in err
    assert "(line 3)" in err
    # a removed search knob is no longer a key
    cfg = _write(tmp_path, BASE_CONFIG + "\n[search]\nmax_sweeps = 5\n")
    assert main(["analyze", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown key 'max_sweeps'" in err
    assert "(line 11)" in err


def test_refine_points_below_four_points_to_its_line(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG + "\n[search]\nrefine_levels = 2\n"
                 "refine_points = 3\n")
    for command in (["analyze"], ["optimize"]):
        assert main(command + ["--config", cfg,
                               "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[search] refine_points must be >= 4" in err
        assert "(line 12)" in err


@pytest.mark.parametrize("raw,cells", [("80", 80), ("80.0", 80),
                                       ("1e2", 100)])
def test_integral_battery_cells_parse_as_ints(tmp_path, raw, cells):
    cfg = _write(tmp_path, BASE_CONFIG.replace("battery_cells = 12",
                                               f"battery_cells = {raw}"))
    config = load_config(cfg).model.config
    assert config.battery_cells == cells
    assert type(config.battery_cells) is int


@pytest.mark.parametrize("raw", ["80.7", "inf", "-inf", "nan"])
def test_non_integral_battery_cells_point_to_their_line(tmp_path, capsys, raw):
    cfg = _write(tmp_path, BASE_CONFIG.replace("battery_cells = 12",
                                               f"battery_cells = {raw}"))
    assert main(["analyze", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: [system] battery_cells: cannot parse {raw!r} "
        "as an integer (line 2)\n")


@pytest.mark.parametrize("old,new,message", [
    ("interference_cap = 0.5", "bandwidth = nan",
     "bandwidth must be finite (line 3)"),
    ("interference_cap = 0.5", "slot_duration = inf",
     "slot_duration must be finite (line 3)"),
    ("interference_cap = 0.5", "sampling_frequency = nan",
     "sampling_frequency must be finite (line 3)"),
    ("harvest_rate = 6.0", "harvest_rate = inf",
     "profile 1: harvest_rate must be finite (line 6)"),
])
def test_non_finite_model_values_point_to_their_line(tmp_path, capsys,
                                                     old, new, message):
    cfg = _write(tmp_path, BASE_CONFIG.replace(old, new))
    assert main(["analyze", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("line,message", [
    ("theta_floor = 0", "theta_floor must be finite and > 0"),
    ("theta_floor = nan", "theta_floor must be finite and > 0"),
    ("theta_cap = nan", "theta_cap must be finite and > 0"),
    ("theta_cap = inf", "theta_cap must be finite and > 0"),
    ("theta_cap = 0.001", "theta_cap must exceed theta_floor"),
    ("theta_cap = 0.01\ntheta_floor = 0.5",
     "theta_cap must exceed theta_floor"),
    ("theta_points = 0", "theta_points must be >= 1"),
    ("omega_points = 0", "omega_points must be >= 1"),
    ("refine_levels = -1", "refine_levels must be >= 0"),
    ("top_candidates = -2", "top_candidates must be >= 0"),
])
def test_unusable_search_values_point_to_their_line(tmp_path, capsys,
                                                    line, message):
    cfg = _write(tmp_path, BASE_CONFIG + f"\n[search]\n{line}\n")
    assert main(["optimize", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: [search] {message} (line 11)\n")


@pytest.mark.parametrize("command", ["analyze", "optimize", "simulate",
                                     "sweep"])
def test_settings_have_no_command_line_flags(capsys, command):
    # ideal sensing is a [system] key and the grid is set in [search] only
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out
    for flag in ("--ideal-sensing", "--grid-omega", "--grid-theta",
                 "--refine"):
        assert flag not in usage


def test_out_of_range_policy_points_to_its_line(tmp_path, capsys):
    # configparser also reads `key: value` and option names in any case
    for spelling in ("omega = 1.5", "omega: 1.5", "Omega = 1.5"):
        text = BASE_CONFIG.replace("omega = 0.6", spelling)
        text += "\n[su.2]\nharvest_rate = 4.0\nomega = 0.5\ntheta = -1\n"
        cfg = _write(tmp_path, text)
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[su.1] omega must lie in [0, 1] (line 7)" in err, spelling
        assert "[su.2] theta must be >= 0 (line 13)" in err


@pytest.mark.parametrize("command", [["analyze"], ["simulate", "--slots", "10"]])
def test_nan_cutoff_is_a_config_error(tmp_path, capsys, command):
    cfg = _write(tmp_path, BASE_CONFIG.replace("theta = 0.1", "theta = nan"))
    assert main(command + ["--config", cfg,
                           "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "theta must be >= 0 (line 8)" in capsys.readouterr().err


def test_load_config_collects_every_problem(tmp_path):
    cfg = _write(tmp_path, "[system]\nbattery_cells = zero\nbogus = 3\n"
                 "\n[su.1]\nomega = 0.5\n")
    with pytest.raises(Exception) as info:
        load_config(cfg)
    problems = info.value.errors
    assert len(problems) == 3
    assert any("cannot parse 'zero'" in p for p in problems)
    assert any("unknown key" in p for p in problems)
    assert any("omega and theta go together" in p for p in problems)


def test_optimize_writes_the_optimum(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG + SMALL_SEARCH)
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert "optimum (feasible)" in capsys.readouterr().out
    rows = _read_csv(out / "optimum.csv")
    assert rows[-1][0] == "total"
    assert float(rows[-1][4]) <= 0.5    # load within the configured cap
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["feasible"] is True
    assert manifest["evaluations"] > 0
    # the manifest records the search that ran
    search = manifest["config"]["search"]
    assert (search["omega_points"], search["theta_points"],
            search["refine_levels"]) == (5, 5, 1)


def test_optimize_signals_an_unreachable_cap(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG.replace("interference_cap = 0.5",
                                               "interference_cap = 0.02")
                 + SMALL_SEARCH)
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg,
                 "--out", str(out)]) == EXIT_INFEASIBLE
    assert "no policy satisfies" in capsys.readouterr().err
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["feasible"] is False


def test_simulate_grades_a_long_run_clean(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--slots", "500000", "--seed", "3"]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    rows = _read_csv(out / "compare.csv")
    assert rows[0] == ["scope", "quantity", "simulated", "analytic",
                       "deviation", "tolerance", "kind", "passed", "se"]
    assert all(r[7] == "true" for r in rows[1:])
    # every scalar row carries its batch-means standard error; zeta has none
    assert "zeta" in [r[1] for r in rows[1:]]
    for r in rows[1:]:
        assert r[8] == "" if r[1] == "zeta" else math.isfinite(float(r[8]))
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["passed"] is True
    assert manifest["seed"] == 3


def test_simulate_flags_a_noisy_short_run(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--slots", "1500", "--seed", "0"]) == EXIT_MISMATCH
    assert "FAIL" in capsys.readouterr().out


def test_simulate_refuses_tiny_samples(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--slots", "500", "--seed", "0"]) == EXIT_MISMATCH
    assert "INSUFFICIENT" in capsys.readouterr().out


def test_simulate_can_dump_the_trace(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out),
          "--slots", "1200", "--seed", "0", "--dump-trace"])
    rows = _read_csv(out / "trace_su1.csv")
    assert len(rows) == 1 + 1200
    assert rows[0][:3] == ["slot", "busy", "sensed_busy"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "trace_su1.csv" in manifest["outputs"]


def _write_csv_per_cell(path, header, rows):
    """The CSV writer that formats one cell at a time."""
    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            if math.isinf(value):
                return "inf" if value > 0 else "-inf"
            return format(value, ".12g")
        if value is None:
            return ""
        return str(value)

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])


def test_column_writer_matches_the_per_cell_writer(tmp_path):
    rng = np.random.default_rng(4)
    n = 500
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    floats[:6] = (np.inf, -np.inf, 0.0, -0.0, 1e300, 5e-324)
    columns = [np.arange(n), floats, rng.integers(-9, 80, n),
               rng.random(n) < 0.5, (rng.random(n) < 0.5).view(np.int8),
               rng.integers(0, 2 ** 40, n).astype(np.uint64),
               # mixed Python cells, as the small tables pass them
               [None, True, False, 3, -2.5, float("inf"), "a,b", 'q"t',
                np.float64(0.1), "su1"] * (n // 10)]
    header = ["i", "f", "k", "flag", "bit", "big", "mixed"]
    _write_csv(str(tmp_path / "columns.csv"), header, columns)
    _write_csv_per_cell(str(tmp_path / "cells.csv"), header,
                        zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                              for c in columns)))
    got = (tmp_path / "columns.csv").read_bytes()
    assert got == (tmp_path / "cells.csv").read_bytes()
    assert b"0,inf," in got and b"1,-inf," in got and b",true," in got


def test_sweep_walks_a_policy_axis(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--axis", "omega", "--from", "0.2", "--to", "0.8",
                 "--points", "4"]) == EXIT_OK
    assert "swept omega" in capsys.readouterr().out
    rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 1 + 4
    assert all(r[1] == "ok" for r in rows[1:])
    assert [float(r[0]) for r in rows[1:]] == [0.2, 0.4, 0.6, 0.8]


@pytest.mark.parametrize("axis", ["omega", "theta"])
def test_sweep_rejects_optimizing_a_policy_axis(tmp_path, capsys, axis):
    # the search picks omega and theta itself, so every row would repeat
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", axis,
                 "--from", "0.1", "--to", "0.9", "--points", "3",
                 "--optimize"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: --optimize chooses the policy, so it cannot sweep "
        f"the policy axis {axis}\n")
    assert not (out / "sweep.csv").exists()


def test_sweep_marks_impossible_rows_instead_of_dying(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--axis", "tau_s", "--from", "1e-3", "--to", "15e-3",
                 "--points", "3"]) == EXIT_OK
    rows = _read_csv(out / "sweep.csv")
    statuses = [r[1] for r in rows[1:]]
    assert statuses[0] == "ok"
    assert statuses[-1].startswith("invalid:")
    assert "tau_d" in statuses[-1]


def test_sweep_marks_out_of_range_policies_invalid(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--axis", "omega", "--from", "0.5", "--to", "1.5",
                 "--points", "3"]) == EXIT_OK
    rows = _read_csv(out / "sweep.csv")
    assert [r[1] for r in rows[1:]] == [
        "ok", "ok", "invalid: omega must lie in [0; 1]"]


@pytest.mark.parametrize("axis, stop, points, kept", [
    ("K", "19", 4, ["10", "13", "16", "19"]),
    ("K", "20", 4, ["10", "20"]),
    ("alpha_t", "3", 5, ["0", "3"])])
def test_sweep_marks_off_integer_points_of_an_integer_axis_invalid(
        tmp_path, axis, stop, points, kept):
    # rounding would price a point other than the one its row names
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    start = "10" if axis == "K" else "0"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", axis,
                 "--from", start, "--to", stop,
                 "--points", str(points)]) == EXIT_OK
    rows = _read_csv(out / "sweep.csv")[1:]
    assert [r[0] for r in rows if r[1] == "ok"] == kept
    for r in rows:
        if r[0] not in kept:
            assert r[1] == f"invalid: {axis} must be an integer; got {r[0]}"
            assert r[2:] == [""] * (len(r) - 2)


def test_sweep_optimizing_over_the_cap_never_degrades(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG + SMALL_SEARCH)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--axis", "I_av", "--from", "0.05", "--to", "0.3",
                 "--points", "3", "--optimize"]) == EXIT_OK
    rows = _read_csv(out / "sweep.csv")
    rates = [float(r[2]) for r in rows[1:]]
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


def test_version_banner_via_module_invocation():
    # the child imports ehcr from where this process did, installed or not
    src = os.path.dirname(os.path.dirname(ehcr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ehcr", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"ehcr {__version__}"
