"""Cephes ports against scipy.special, bit for bit, and a scipy-free import."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.special import gammaln, ndtr, ndtri

import ehcr
from ehcr import special


def _neighbours(points):
    """Each point with the doubles on either side of it."""
    points = np.asarray(points, dtype=float)
    return np.concatenate([points, np.nextafter(points, -np.inf),
                           np.nextafter(points, np.inf)])


def _assert_bitwise(port, reference, args):
    got = np.array([port(float(a)) for a in args])
    want = reference(args)
    both_nan = np.isnan(got) & np.isnan(want)
    differ = (got.view(np.uint64) != want.view(np.uint64)) & ~both_nan
    assert not differ.any(), list(zip(args[differ][:5], got[differ][:5],
                                      want[differ][:5]))


def test_log_factorial_matches_gammaln():
    # includes the branch edges at x = n + 1 = 13, 1000 and 1e8
    n = np.concatenate([np.arange(20001), [10**8 - 2, 10**8 - 1, 10**8,
                                           10**12]])
    got = np.array([special.log_factorial(int(k)) for k in n])
    assert np.array_equal(got.view(np.uint64),
                          gammaln(n + 1.0).view(np.uint64))


def test_ndtr_matches_scipy():
    root2 = math.sqrt(2.0)
    edges = [1.0, 8.0, root2, 8.0 * root2, math.sqrt(2.0 * special.MAXLOG)]
    args = np.concatenate([
        np.linspace(-40.0, 40.0, 70001),
        _neighbours(edges), -_neighbours(edges),
        [0.0, -0.0, np.inf, -np.inf, np.nan]])
    _assert_bitwise(special.ndtr, ndtr, args)


def test_ndtri_matches_scipy():
    edges = [special.EXP_M2, 1.0 - special.EXP_M2, math.exp(-32.0), 0.5]
    args = np.concatenate([
        np.linspace(0.0, 1.0, 70001),
        np.geomspace(1e-300, 0.5, 3000),
        1.0 - np.geomspace(1e-16, 0.5, 300),
        _neighbours(edges),
        [5e-324, 2.2250738585072014e-308, np.nextafter(1.0, 0.0),
         0.0, 1.0, -1.0, 2.0, np.nan]])
    _assert_bitwise(special.ndtri, ndtri, args)


def test_import_leaves_scipy_unloaded():
    src = str(Path(ehcr.__file__).resolve().parents[1])
    code = ("import sys, ehcr; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
