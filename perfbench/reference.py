"""The reference kernels that turn wall time into reference seconds.

The CPU speed of a shared machine wanders: on the 2-vCPU VM these
workloads were sized on, the same repetition took anywhere from 1x to
1.8x its fastest time, switching within seconds, and the mix of fast and
slow phases moved the median of a 20 s run by 20%.  Two fixed kernels
slow with it: the loop kernel, a pure-Python battery walk made of the
slot simulator's per-slot operations (numpy element reads and writes,
scalar math, branches), and the stream kernel, a numpy pass over an
array larger than L2 (the matrix layers' kind of code).  Both are timed
on either side of every timed piece of work; each one's time over its
median time is that kernel's slowdown at that moment.

Workloads do not slow by the kernels' factors, and not all alike: in
one stretch where a pure-Python loop swung 1.7x, the policy search swung
1.3x and the simulator 1.8x.  So each workload states how strongly its
time follows each kernel, as exponents on the two kernels' slowdowns
(its ``sensitivity``), and a repetition's time is divided by the
product.  The simulator follows the loop kernel fully: (1, 0).  The
search, the sweep and the K=400 grid mix interpreter and numpy time and
follow a quarter of each swing in log terms: (0.25, 0.25).  Over ten
runs of each workload this gave a run-to-run spread (quartile distance
over median) of 0.035-0.096, where raw wall time gave 0.09-0.23.  The
result is in reference seconds: the time the work takes when the
kernels run at ``LOOP_S`` and ``STREAM_S``.

Import after the BLAS thread caps are set: this imports numpy.  The
kernels' arrays (9 MB) stay allocated, so they add a constant to the
benchmark's peak RSS instead of a peak of their own.
"""
import math
import statistics
import time
from typing import Tuple

import numpy as np

# Median times of the two kernels on that VM [s].
LOOP_S = 0.05
STREAM_S = 0.04
# Kernel pairs timed on each side of a piece of work.
RUNS = 2

_SLOTS = 20_000
_rng = np.random.default_rng(0)
_BUSY = _rng.random(_SLOTS) < 0.3
_MISSED = _rng.random(_SLOTS) < 0.1
_UNIFORM = _rng.random(_SLOTS)
_HARVEST = _rng.poisson(2.0, _SLOTS).astype(np.int64)
_LEVEL_IN = np.zeros(_SLOTS, dtype=np.int64)
_LEVEL_OUT = np.zeros(_SLOTS, dtype=np.int64)
_PROBED = np.zeros(_SLOTS, dtype=bool)
_GAIN = np.zeros(_SLOTS)
_SPENT = np.zeros(_SLOTS, dtype=np.int64)
_RATE = np.zeros(_SLOTS)
_STREAM = np.linspace(0.0, 1.0, 1 << 20)


def _slot_loop() -> None:
    """A battery walk with the slot simulator's per-slot operations:
    numpy element reads and writes, scalar math and a few branches."""
    level = 10
    for t in range(_SLOTS):
        _LEVEL_IN[t] = level
        out = 0
        if not _BUSY[t] and level >= 3:
            _PROBED[t] = True
            gain = -(1.0, 0.5)[int(_MISSED[t])] * math.log1p(-_UNIFORM[t])
            _GAIN[t] = gain
            spend = min(int(gain * 4.0), level - 3)
            _SPENT[t] = spend
            out = 3 + spend
            if spend:
                _RATE[t] = math.log2(1.0 + gain * spend)
        level = min(max(level - out, 0) + _HARVEST[t], 20)
        _LEVEL_OUT[t] = level


def _stream() -> float:
    return sum(float(_STREAM.sum()) for _ in range(80))


def _seconds(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def kernel_seconds(runs: int = RUNS) -> Tuple[float, float]:
    """Mean times of the loop and the stream kernel over ``runs`` [s]."""
    loop, stream = [], []
    for _ in range(runs):
        loop.append(_seconds(_slot_loop))
        stream.append(_seconds(_stream))
    return statistics.fmean(loop), statistics.fmean(stream)


def to_reference(wall: float, before: Tuple[float, float],
                 after: Tuple[float, float],
                 sensitivity: Tuple[float, float]) -> float:
    """``wall`` in reference seconds.

    ``before`` and ``after`` are the kernel times either side of the work,
    ``sensitivity`` the exponents on the two kernels' slowdowns.
    """
    slowdown = 1.0
    for b, a, ref, exponent in zip(before, after, (LOOP_S, STREAM_S),
                                   sensitivity):
        slowdown *= (0.5 * (b + a) / ref) ** exponent
    return wall / slowdown
