"""``benchmarks/layers.py``: its paired timer, run A against A."""
import importlib.util
import os
import sys
from pathlib import Path

import ehcr

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


def _bench():
    spec = importlib.util.spec_from_file_location("layers", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_timer_reports_side_medians_and_ratio_quartiles():
    layers = _bench()
    tree = layers._load(os.path.dirname(os.path.dirname(ehcr.__file__)))
    # the tree loads beside the package this process imported
    assert sys.modules["ehcr"] is ehcr and tree.rate is not ehcr.rate
    rows = layers.rows(tree, {})
    name, fn, scale = next(rows)
    assert name == "k80_spend_pmf_us"
    # the steady-state row calls the tree's censoring as price_row does
    name, censoring, _ = next(rows)
    assert name == "k80_censoring_us"
    assert censoring().shape == (1, 81)
    got = layers.pair({"parent": fn, "change": fn}, scale, pairs=3)
    assert got["pairs"] == 3 and got["loops"] >= 1
    assert got["parent"] > 0.0 and got["change"] > 0.0
    assert 0.0 < got["ratio_q1"] <= got["change_over_parent"] <= got["ratio_q3"]
    # one callable on both sides: the ratio can only be noise
    assert 0.2 < got["change_over_parent"] < 5.0
