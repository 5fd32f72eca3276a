#!/usr/bin/env python3
"""Fit the polynomial pieces behind ``ehcr.rate._scaled_e1``.

``_scaled_e1`` evaluates exp(t)*E1(t) with three fitted polynomials that
together cover every t > 0:

* t < 2: exp(t) * (P(t) - ln t), where P(t) = E1(t) + ln t = -gamma +
  Ein(t) is entire, so E1 needs no special function; -gamma is P's
  constant coefficient.  ``_E1_NEAR`` holds P.
* 2 <= t < 8 and t >= 8: P(1/t) / t, where P fits t*exp(t)*E1(t) in 1/t
  over [1/8, 1/2] and [0, 1/8] (x = 2/t over [1/4, 1] and [0, 1/4]).
  t*exp(t)*E1(t) tends to 1 as 1/t -> 0, and ``mpmath.chebyfit`` samples
  only interior nodes, so 1/t = 0 is never evaluated.  The two P share
  one degree and are the columns of ``_E1_INV``; ``_scaled_e1`` evaluates
  each piece in its own Horner pass on that column's coefficients
  (``_E1_MID`` and ``_E1_FAR``).

Every P interpolates at Chebyshev nodes in mpmath at 40 digits
(``mpmath.chebyfit``) and is rounded to double monomial coefficients,
highest power first, for Horner evaluation.  The degrees are the lowest
at which every piece keeps its relative error against ``mpmath.e1``
below a third of 1e-13: 12 for t < 2 (11 gives 5.8e-13), and 16 for
both pieces above (15 gives 1.3e-13 on [2, 8)).  The error report stops
the far piece at t = 1e15, past which P(1/t) is its constant term to
within rounding.

Usage::

    python3 tools/fit_scaled_e1.py          # rate.py's literals, errors
    python3 tools/fit_scaled_e1.py --check  # exit 1 if rate.py differs

``--check`` refits and fails if any committed coefficient differs from
the refitted one by more than 1e-15 relative.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from ehcr import rate  # noqa: E402

DIGITS = 40
CHECK_RTOL = 1e-15
NEAR_DEGREE = 12
INV_DEGREE = 16
# the error report samples the far piece up to here
REPORT_END = 1e15


def _inverse_ranges() -> list:
    """The t range of every column of ``_E1_INV``."""
    edges = (rate._NEAR_END, rate._MID_END, mp.inf)
    return [(float(lo), float(hi)) for lo, hi in zip(edges, edges[1:])]


def fit() -> dict:
    """The coefficient arrays ``_scaled_e1`` reads, by name in rate.py."""
    def scaled(v):
        t = 1 / v
        return t * mp.exp(t) * mp.e1(t)

    with mp.workdps(DIGITS):
        near = mp.chebyfit(lambda t: mp.e1(t) + mp.log(t),
                           [mp.mpf(0), mp.mpf(rate._NEAR_END)],
                           NEAR_DEGREE + 1)
        columns = [mp.chebyfit(scaled, [1 / mp.mpf(hi), 1 / mp.mpf(lo)],
                               INV_DEGREE + 1)
                   for lo, hi in _inverse_ranges()]
    return {"_E1_NEAR": np.array([float(c) for c in near]),
            "_E1_INV": np.array([[float(c) for c in col]
                                 for col in columns]).T}


def check(pieces: dict) -> list:
    """Names whose committed coefficients differ from the refitted ones."""
    bad = []
    for name, want in pieces.items():
        got = np.asarray(getattr(rate, name), dtype=float)
        if got.shape != want.shape or not np.allclose(
                got, want, rtol=CHECK_RTOL, atol=0.0):
            bad.append(name)
    return bad


def _literal(pieces: dict) -> str:
    """The coefficient assignments as ``rate.py`` carries them."""
    near = pieces["_E1_NEAR"]
    rows = [", ".join(repr(float(c)) for c in near[i:i + 3]) + ","
            for i in range(0, near.size, 3)]
    text = "_E1_NEAR = _as_arrays((\n"
    text += "".join(f"    {row}\n" for row in rows) + "))\n"
    text += "_E1_INV = np.array([\n"
    text += "".join("    (" + ", ".join(repr(float(c)) for c in row) + "),\n"
                    for row in pieces["_E1_INV"])
    return text + "])"


def max_errors(pieces: dict, points: int = 2000) -> dict:
    """Largest relative error of ``_scaled_e1`` with ``pieces``, per range."""
    ranges = [(1e-8, rate._NEAR_END)] + _inverse_ranges()
    saved = rate._E1_NEAR, rate._E1_MID, rate._E1_FAR
    rate._E1_NEAR = rate._as_arrays(pieces["_E1_NEAR"])
    rate._E1_MID, rate._E1_FAR = (rate._as_arrays(column)
                                  for column in pieces["_E1_INV"].T)
    try:
        errors = {}
        for lo, hi in ranges:
            hi = min(hi, REPORT_END)
            t = np.geomspace(lo, hi, points, endpoint=False)
            got = rate._scaled_e1(t)
            with mp.workdps(30):
                want = np.array([float(mp.exp(v) * mp.e1(v))
                                 for v in map(mp.mpf, t)])
            errors[f"{lo:g} <= t < {hi:g}"] = float(
                np.max(np.abs(got / want - 1.0)))
        return errors
    finally:
        rate._E1_NEAR, rate._E1_MID, rate._E1_FAR = saved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against rate.py instead of printing")
    args = parser.parse_args(argv)
    pieces = fit()
    if args.check:
        bad = check(pieces)
        for name in bad:
            print(f"{name}: rate.py differs from the refit by more than "
                  f"{CHECK_RTOL:g} relative", file=sys.stderr)
        if not bad:
            print("rate.py matches the refit")
        return 1 if bad else 0
    print(_literal(pieces))
    for label, err in max_errors(pieces).items():
        print(f"# max relative error, {label}: {err:.2g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
