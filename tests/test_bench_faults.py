"""``benchmarks/faults.py``: fresh processes, one per heap shift, with
glibc's thresholds pinned."""
import importlib.util
import os
from pathlib import Path

import ehcr

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "faults.py"


def _bench():
    spec = importlib.util.spec_from_file_location("faults", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fresh_processes_report_faults_per_workload():
    faults = _bench()
    src = Path(os.path.dirname(os.path.dirname(ehcr.__file__)))
    rows = faults.run(src, processes=2, reps=1, quick=True)
    # the heap shifts span the range, one process each, in order
    assert [r["shift"] for r in rows] == [0, faults.MAX_SHIFT]
    for row in rows:
        assert set(row) == {"shift", "solve_p1", "grid_k400", "malloc"}
        assert all(row[name] >= 0 for name in ("solve_p1", "grid_k400"))
        # each child ran with glibc's thresholds pinned, whatever the
        # parent's environment holds
        assert row["malloc"] == faults.MALLOC_PINS
    stats = faults.summary(rows)
    for name in ("solve_p1", "grid_k400"):
        assert stats[name]["min"] <= stats[name]["median"] <= stats[name]["max"]
