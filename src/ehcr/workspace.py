"""Work arrays a priced stack reuses from one call to the next.

Pricing a stack of policies at K = 400 battery cells runs through
several arrays of a megabyte or more (the spend scatter its steady state
censors, the per-level spend laws and integrals).
Allocated afresh for every stack, glibc hands much of that memory back
to the kernel between stacks and the next stack faults it in again.  A
:class:`Workspace` keeps each such array alive instead: a function that
takes ``work`` asks it for ``work.empty(name, shape)`` and gets a view
of the array kept under ``name``.  A caller that passes no workspace
gets arrays of its own.

Temporaries share one array, :data:`SCRATCH`: a function holds at most
one scratch view at a time and none past its return, so the spend law's
CDFs, the level integrals' gathers, the spend scatter of the steady
state and the rate and load products all reuse the same memory.
"""
from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

# Name of the temporaries' shared array (see the module docstring).
SCRATCH = "scratch"


class Workspace:
    """Named flat arrays, each reused from request to request.

    ``empty(name, shape)`` returns an uninitialised view of the first
    ``prod(shape)`` entries of the array kept under ``name``.  The array
    is allocated on the first request and reallocated, to the size asked
    for, only when a request needs more entries.  Every view of one name
    shares memory: what a view holds is valid until the next request of
    that name.  The arrays are freed with the workspace.
    """

    def __init__(self):
        self._arrays: Dict[Tuple[str, type], np.ndarray] = {}

    def empty(self, name: str, shape: Tuple[int, ...],
              dtype: type = float) -> np.ndarray:
        size = math.prod(shape)
        flat = self._arrays.get((name, dtype))
        if flat is None or flat.size < size:
            flat = self._arrays[name, dtype] = np.empty(size, dtype)
        return flat[:size].reshape(shape)
