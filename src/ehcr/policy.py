"""Threshold transmission policy and its per-state spend distribution.

Given the fed-back gain estimate and the current battery level, the user
spends an integer number of cells on data: a fraction ``omega`` of the
battery, derated by how far the gain sits above the cutoff ``theta``,
minus the cells already reserved for probing.  Because the spend is a
step function of the gain, its distribution under the exponential-mixture
gain law reduces to CDF differences over per-level gain intervals; those
intervals are what the analytic rate expressions integrate over as well.
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

# The passes over a row's gain edges (the spend law's CDFs here, the rate
# bound's antiderivatives) take at most this many flattened (cutoff,
# level) entries at a time, each under both laws at both edges, so every
# temporary of a pass holds at most 2^14 doubles (128 KB).  On the K=80
# search 2^11 measured slower, and 2^13 raised the peak memory.
BLOCK_ENTRIES = 2 ** 12


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


def _edges(thetas: np.ndarray, komega: np.ndarray,
           d_lo: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gain edges theta*k*omega/d of every level, one row per cutoff.

    The edges invert the derating factor at each floor step; a
    non-positive inverted denominator means the level never loses to the
    next one, so its upper edge is +inf.
    """
    d_hi = d_lo - 1.0
    num = thetas[..., None] * komega
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(d_lo > DENOM_EPS, num / np.where(d_lo > 0, d_lo, 1.0), np.inf)
        hi = np.where(d_hi > DENOM_EPS, num / np.where(d_hi > 0, d_hi, 1.0), np.inf)
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

    Positive levels get the mixture-component probability of their gain
    interval, both components at both edges in one CDF pass per block
    of levels; the zero level takes whatever remains, which also covers
    gains below the cutoff.  ``skeleton`` is ``omega``'s
    :func:`level_skeleton`, built here when not given.
    """
    thetas = np.asarray(thetas, dtype=float)
    # the smallest cutoff stands for them all
    check_params(PolicyParams(omega, float(np.min(thetas, initial=0.0))))
    if skeleton is None:
        skeleton = level_skeleton(omega, probe_cells, cells)
    k_idx, i_idx = skeleton
    komega = omega * k_idx
    lo, hi = _edges(thetas, komega, komega - probe_cells - i_idx)
    flat_lo, flat_hi = lo.reshape(-1), hi.reshape(-1)
    mass = np.empty((2, flat_lo.size))
    for start in range(0, flat_lo.size, BLOCK_ENTRIES):
        cut = slice(start, start + BLOCK_ENTRIES)
        cdf = conditional_cdfs(dist, np.stack((flat_hi[cut], flat_lo[cut])))
        mass[:, cut] = np.where(flat_lo[cut] >= flat_hi[cut], 0.0,
                                np.maximum(cdf[:, 0] - cdf[:, 1], 0.0))
    # (law, cutoff, level) to (cutoff, law, level), laid out contiguously
    # for the scatter below
    mass = np.ascontiguousarray(
        mass.reshape(2, thetas.size, k_idx.size).swapaxes(0, 1))
    # every state from the first that spends up to K spends, its levels
    # contiguous from spend 1; a state's masses are summed over a row
    # zero-padded to every spend 1..K, so the sum is that of its dense
    # spend row whatever the stack holds
    start = int(k_idx[0]) if k_idx.size else cells + 1
    slots = (k_idx - start) * cells + i_idx - 1
    rows = np.zeros((thetas.size, 2, (cells + 1 - start) * cells))
    rows[..., slots] = mass
    zero = np.ones((thetas.size, 2, cells + 1))
    zero[..., start:] = np.maximum(
        1.0 - rows.reshape(thetas.size, 2, -1, cells).sum(axis=-1), 0.0)
    return PolicyPmf(omega=omega, theta=thetas, level_state=k_idx,
                     level_units=i_idx, level_lo=lo, level_hi=hi,
                     level_mass=mass, zero_mass=zero, cells=cells,
                     probe_cells=probe_cells)
