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

from .battery import scatter_index
from .model import PolicyParams
from .probing import GainDistribution, conditional_cdfs
from .workspace import SCRATCH, Workspace

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

    ``moves`` lists every spend level, then every battery level's zero
    spend, as (battery level, spend); ``scatter`` is their
    :func:`~ehcr.battery.scatter_index` and ``caps`` each battery level's
    largest spend, which bounds how far above each block
    :meth:`~ehcr.battery.TransitionBuilder.steady_state`'s censoring
    reaches.  Within a battery level the levels run from spend 1
    (``first``) up to its top level (``top``).
    A :class:`PolicyPmf` built from it shares these arrays, so a row
    priced in several stacks computes them once.
    """

    moves: Tuple[np.ndarray, np.ndarray]
    scatter: np.ndarray
    caps: np.ndarray    # (cells + 1,) largest spend of each battery level
    first: np.ndarray   # (levels,) bool: spend 1 of its battery level
    top: np.ndarray     # (levels,) bool: last level of its battery level

    @property
    def level_state(self) -> np.ndarray:
        """Battery level k of each spend level."""
        return self.moves[0][:self.top.size]

    @property
    def level_units(self) -> np.ndarray:
        """Spend i of each spend level."""
        return self.moves[1][:self.top.size]


def level_skeleton(omega: float, probe_cells: int, cells: int) -> LevelSkeleton:
    """Spend levels of ``omega`` before any cutoff scales their gain edges.

    A row priced in several stacks of cutoffs builds it once and passes
    it to :func:`transmit_row` for each stack.
    """
    ks = np.arange(cells + 1)
    caps = np.floor(omega * ks + FLOOR_NUDGE).astype(int) - probe_cells
    caps = np.clip(caps, 0, None)
    total = int(caps.sum())
    starts = np.concatenate(([0], np.cumsum(caps)[:-1]))
    # every move, then the zero spend of every state, built in place
    moves = (np.empty(total + cells + 1, dtype=int),
             np.empty(total + cells + 1, dtype=int))
    state, units = moves[0][:total], moves[1][:total]
    state[:] = np.repeat(ks, caps)
    # spend 1, 2, ... counted from each state's first level
    np.take(starts, state, out=units)
    np.subtract(np.arange(1, total + 1), units, out=units)
    moves[0][total:] = ks
    moves[1][total:] = 0
    # every state from the first that spends up to K spends, its levels
    # contiguous from spend 1; a state's top level comes just before the
    # next state's first, and the last level wraps onto the first
    first = units == 1
    return LevelSkeleton(moves, scatter_index(moves, cells), caps, first,
                         np.roll(first, -1))


def _lower_edges(omega: float, thetas: np.ndarray, probe_cells: int,
                state: np.ndarray, units: np.ndarray, out: np.ndarray,
                denominators: np.ndarray) -> np.ndarray:
    """Lower gain edge of the levels (``state``, ``units``) at every cutoff.

    The lower edge theta*k*omega/d inverts the derating factor at the
    level's floor step; a denominator within DENOM_EPS of zero means the
    level is never reached, so its edge is +inf.  Within a state d falls
    by exactly 1 per level (subtracting these integers from a float below
    2^53 is exact), so a level's upper edge theta*k*omega/(d - 1) is the
    next level's lower edge bit for bit, and +inf at the state's top.
    Writes (cutoffs, levels) edges into ``out``; ``denominators`` is a
    (2, levels) work array.
    """
    komega, d = denominators
    np.multiply(omega, state, out=komega)
    np.subtract(komega, probe_cells, out=d)
    d -= units
    np.multiply(thetas[:, None], komega, out=out)
    unreachable = d <= DENOM_EPS
    np.copyto(d, 1.0, where=d <= 0.0)
    out /= d
    np.copyto(out, np.inf, where=unreachable)
    return out


@dataclass(frozen=True)
class PolicyPmf:
    """Spend laws of one spend fraction at a row of cutoffs.

    Spend level l takes ``level_units[l]`` cells from battery level
    ``level_state[l]`` when the fed-back gain lands in
    ``[level_lo[b, l], level_hi[b, l])`` at cutoff ``theta[b]``.
    ``level_mass[b, eps, l]`` is that chance under the idle (eps = 0) or
    busy (eps = 1) gain law, and ``zero_mass[b, eps, k]`` the chance of
    spending nothing at battery level k; both are views of ``masses``,
    in the order of :attr:`moves`.  The level skeleton depends on
    ``omega`` only; the leading axis of every other array runs over the
    cutoffs.  The rate bound integrates over the same gain intervals; a
    level's upper edge is the next level's lower edge, +inf at its
    state's top (:attr:`level_hi`, computed on demand).  A pmf that
    :func:`transmit_row` wrote into a :class:`~ehcr.workspace.Workspace`
    holds arrays that the workspace's next row overwrites.
    """

    omega: float
    theta: np.ndarray        # (cutoffs,)
    skeleton: LevelSkeleton
    level_lo: np.ndarray     # (cutoffs, levels) lower gain edge
    masses: np.ndarray       # (cutoffs, 2, levels + cells + 1)
    cells: int
    probe_cells: int

    @property
    def level_state(self) -> np.ndarray:
        """Battery level k of each spend level."""
        return self.skeleton.level_state

    @property
    def level_units(self) -> np.ndarray:
        """Spend i of each spend level."""
        return self.skeleton.level_units

    @property
    def level_hi(self) -> np.ndarray:
        """(cutoffs, levels) upper gain edge, a new array (may be +inf)."""
        hi = np.empty_like(self.level_lo)
        hi[:, :-1] = self.level_lo[:, 1:]
        hi[:, self.skeleton.top] = np.inf
        return hi

    @property
    def level_mass(self) -> np.ndarray:
        """(cutoffs, 2, levels) chance of each spend level, per law."""
        return self.masses[..., :self.skeleton.top.size]

    @property
    def zero_mass(self) -> np.ndarray:
        """(cutoffs, 2, cells + 1) chance of spending nothing, per law."""
        return self.masses[..., self.skeleton.top.size:]

    @property
    def moves(self) -> Tuple[np.ndarray, np.ndarray]:
        """(battery level, spend) of every level, then the zero spend of every state."""
        return self.skeleton.moves

    @property
    def idle_law(self) -> np.ndarray:
        """Masses of :attr:`moves` under the idle gain law (eps = 0)."""
        return self.masses[:, 0, :]


def transmit_row(omega: float, thetas: Sequence[float], probe_cells: int,
                 cells: int, dist: GainDistribution,
                 skeleton: Optional[LevelSkeleton] = None,
                 work: Optional[Workspace] = None) -> PolicyPmf:
    """Spend laws of one spend fraction at a row of cutoffs.

    One CDF pass prices both gain laws at every level's lower edge.  A
    level's mass is the CDF at its upper edge (the next level's lower
    edge, or 1 at its state's top) minus the CDF at its own; a spending
    state's zero mass is the CDF at its first lower edge, which also
    covers gains below the cutoff, and a state that never spends has zero
    mass 1.  ``skeleton`` is ``omega``'s :func:`level_skeleton`, built
    here when not given.  The row's arrays are requested from ``work``
    (new arrays without one).
    """
    thetas = np.asarray(thetas, dtype=float)
    # the smallest cutoff stands for them all
    check_params(PolicyParams(omega, float(np.min(thetas, initial=0.0))))
    if skeleton is None:
        skeleton = level_skeleton(omega, probe_cells, cells)
    work = work or Workspace()
    first, top = skeleton.first, skeleton.top
    levels = top.size
    masses = work.empty("policy.masses", (thetas.size, 2, levels + cells + 1))
    # the masses' memory holds the denominators until the masses are
    # written
    lo = _lower_edges(omega, thetas, probe_cells, skeleton.level_state,
                     skeleton.level_units,
                     work.empty("policy.lo", (thetas.size, levels)),
                     masses.reshape(-1)[:2 * levels].reshape(2, levels))
    # (cutoff, law, level)
    cdf = work.empty(SCRATCH, (thetas.size, 2, levels))
    conditional_cdfs(dist, lo, out=cdf.swapaxes(0, 1))
    mass, zero = masses[..., :levels], masses[..., levels:]
    mass[..., :-1] = cdf[..., 1:]
    mass[..., top] = 1.0
    mass -= cdf
    zero.fill(1.0)
    zero[..., skeleton.level_state[first]] = cdf[..., first]
    return PolicyPmf(omega=omega, theta=thetas, skeleton=skeleton,
                     level_lo=lo, masses=masses, cells=cells,
                     probe_cells=probe_cells)
