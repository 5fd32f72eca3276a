"""Threshold transmission policy and its per-state spend distribution.

Given the fed-back gain estimate and the current battery level, the user
spends an integer number of cells on data: a fraction ``omega`` of the
battery, derated by how far the gain sits above the cutoff ``theta``,
minus the cells already reserved for probing.  The spend is a step
function of the gain, so a state's levels tile the gain axis: under the
exponential-mixture gain law a level's chance is the CDF difference of
consecutive lower edges, and that of spending nothing the CDF at the
state's first edge.  The rate expressions integrate over the same edges.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import PolicyParams
from .probing import GainDistribution, conditional_cdfs

# Upward nudge applied before flooring so values sitting a hair below an
# integer (from decimal omega*k products) land on it; breakpoint
# denominators within DENOM_EPS of zero mean the level is unreachable.
FLOOR_NUDGE = 1e-9
DENOM_EPS = 1e-12


def check_params(params: PolicyParams) -> None:
    """Reject a policy outside omega in [0, 1], theta >= 0 (NaN included).

    Each message starts with the name of the offending parameter.
    """
    if not 0.0 <= params.omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")
    if not params.theta >= 0.0:
        raise ValueError("theta must be >= 0")


def derating(gain: np.ndarray | float, theta: float) -> np.ndarray:
    """Spent share of the omega-fraction at fed-back gain(s) `gain`.

    ``max(1 - theta/gain, 0)`` for positive gains and 0 otherwise; at
    ``theta = 0`` every positive gain gives exactly 1.
    """
    gain = np.asarray(gain, dtype=float)
    # theta/gain on positive gains, 1 elsewhere so that those read 0
    frac = np.divide(theta, gain, out=np.ones_like(gain), where=gain > 0.0)
    np.subtract(1.0, frac, out=frac)
    return np.maximum(frac, 0.0, out=frac)


def transmit_units(state: int, gain: float, params: PolicyParams,
                   probe_cells: int) -> int:
    """Cells spent on data at battery level `state` for a fed-back `gain`."""
    check_params(params)
    if state <= probe_cells:
        return 0
    frac = float(derating(gain, params.theta))
    level = int(np.floor(params.omega * state * frac + FLOOR_NUDGE))
    return max(level - probe_cells, 0)


class LevelSkeleton(NamedTuple):
    """Theta-free part of one spend fraction's spend levels.

    A :class:`PolicyPmf` built from it shares these arrays, so keeping it
    across the stacks of a row holds no extra memory.
    """

    level_state: np.ndarray  # battery level k of each spend level
    level_units: np.ndarray  # spend i of each level


def level_skeleton(omega: float, probe_cells: int, cells: int) -> LevelSkeleton:
    """Spend levels of ``omega`` before any cutoff scales their gain edges.

    A row priced in several stacks of cutoffs builds it once and passes
    it to :func:`transmit_row` for each stack.
    """
    ks = np.arange(cells + 1)
    caps = np.floor(omega * ks + FLOOR_NUDGE).astype(int) - probe_cells
    caps = np.clip(caps, 0, None)
    total = int(caps.sum())
    k_idx = np.repeat(ks, caps)
    starts = np.concatenate(([0], np.cumsum(caps)[:-1]))
    return LevelSkeleton(k_idx, np.arange(total) - np.repeat(starts, caps) + 1)


def _edges(thetas: np.ndarray, komega: np.ndarray, d: np.ndarray,
           top: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Lower and upper gain edges of every level, one row per cutoff.

    The lower edge theta*k*omega/d inverts the derating factor at the
    level's floor step; a denominator within DENOM_EPS of zero means the
    level is never reached, so its edge is +inf.  Within a state d falls
    by exactly 1 per level (subtracting these integers from a float below
    2^53 is exact), so a level's upper edge theta*k*omega/(d - 1) is the
    next level's lower edge bit for bit, and +inf at the state's top.
    """
    lo = np.where(d > DENOM_EPS,
                  thetas[..., None] * komega / np.where(d > 0, d, 1.0), np.inf)
    hi = np.roll(lo, -1, axis=-1)
    hi[..., top] = np.inf
    return lo, hi


@dataclass(frozen=True)
class PolicyPmf:
    """Spend laws of one spend fraction at a row of cutoffs.

    Spend level l takes ``level_units[l]`` cells from battery level
    ``level_state[l]`` when the fed-back gain lands in
    ``[level_lo[b, l], level_hi[b, l])`` at cutoff ``theta[b]``.
    ``level_mass[b, eps, l]`` is that chance under the idle (eps = 0) or
    busy (eps = 1) gain law, and ``zero_mass[b, eps, k]`` the chance of
    spending nothing at battery level k.  The level skeleton depends on
    ``omega`` only; the leading axis of every other array runs over the
    cutoffs.  The rate bound integrates over the same gain intervals.
    """

    omega: float
    theta: np.ndarray        # (cutoffs,)
    level_state: np.ndarray  # battery level k of each spend level
    level_units: np.ndarray  # spend i of each level
    level_lo: np.ndarray     # (cutoffs, levels) lower gain edge
    level_hi: np.ndarray     # (cutoffs, levels) upper gain edge (may be +inf)
    level_mass: np.ndarray   # (cutoffs, 2, levels)
    zero_mass: np.ndarray    # (cutoffs, 2, cells+1)
    cells: int
    probe_cells: int

    @property
    def moves(self) -> Tuple[np.ndarray, np.ndarray]:
        """(battery level, spend) of every level, then the zero spend of every state."""
        ks = np.arange(self.cells + 1)
        return (np.concatenate((self.level_state, ks)),
                np.concatenate((self.level_units, np.zeros_like(ks))))

    @property
    def idle_law(self) -> np.ndarray:
        """Masses of :attr:`moves` under the idle gain law (eps = 0)."""
        return np.concatenate((self.level_mass[:, 0, :],
                               self.zero_mass[:, 0, :]), axis=-1)


def transmit_row(omega: float, thetas: Sequence[float], probe_cells: int,
                 cells: int, dist: GainDistribution,
                 skeleton: Optional[LevelSkeleton] = None) -> PolicyPmf:
    """Spend laws of one spend fraction at a row of cutoffs.

    One CDF pass prices both gain laws at every level's lower edge.  A
    level's mass is the CDF at its upper edge (the next level's lower
    edge, or 1 at its state's top) minus the CDF at its own; a spending
    state's zero mass is the CDF at its first lower edge, which also
    covers gains below the cutoff, and a state that never spends has zero
    mass 1.  ``skeleton`` is ``omega``'s :func:`level_skeleton`, built
    here when not given.
    """
    thetas = np.asarray(thetas, dtype=float)
    # the smallest cutoff stands for them all
    check_params(PolicyParams(omega, float(np.min(thetas, initial=0.0))))
    if skeleton is None:
        skeleton = level_skeleton(omega, probe_cells, cells)
    k_idx, i_idx = skeleton
    # every state from the first that spends up to K spends, its levels
    # contiguous from spend 1; a state's top level comes just before the
    # next state's first, and the last level wraps onto the first
    first = i_idx == 1
    top = np.roll(first, -1)
    komega = omega * k_idx
    lo, hi = _edges(thetas, komega, komega - probe_cells - i_idx, top)
    # (cutoff, law, level)
    cdf = conditional_cdfs(dist, lo).swapaxes(0, 1)
    mass = np.roll(cdf, -1, axis=-1)
    mass[..., top] = 1.0
    mass -= cdf
    zero = np.ones((thetas.size, 2, cells + 1))
    zero[..., k_idx[first]] = cdf[..., first]
    return PolicyPmf(omega=omega, theta=thetas, level_state=k_idx,
                     level_units=i_idx, level_lo=lo, level_hi=hi,
                     level_mass=mass, zero_mass=zero, cells=cells,
                     probe_cells=probe_cells)
