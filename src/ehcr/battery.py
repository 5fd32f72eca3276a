"""Battery-level Markov chain: transition structure and steady state.

The battery is a birth-death-with-jumps chain over {0..K} cells.  In a
sensed-idle frame the user burns the probe reserve plus the policy spend
and then harvests; in a sensed-busy frame it only harvests.  A frame
therefore takes level j to a pre-harvest shift s (s = j in a busy frame,
s = j - reserve - spend in an idle one, negative on a deficit) and then
to clip(s + H, 0, K): harvest overflow piles up on the full state, and a
deficit below the reserve eats into the harvest before the level clamps
at empty (the slot simulator instead skips the probe there).  Each
column of the transition matrix is the next-level distribution given
the current level.

The matrix is a product of the harvest law's clamp-shift table with a
(shift x level) scatter of the policy's moves.  Column j's moves land
on shifts j - reserve - cap(j) up to j - reserve (its spends, cap(j) the
largest) and on j (its busy frame), and a harvest never lowers a level,
so the scatter is a band and the product's rows below a column's lowest
shift are zero.  :meth:`TransitionBuilder.matrix` multiplies the band
only, a block of :data:`BAND_COLUMNS` columns at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .workspace import SCRATCH, Workspace


# Columns per product of TransitionBuilder.matrix: K = 80 runs two blocks,
# K = 400 nine.
BAND_COLUMNS = 48


class ChainNotErgodicError(RuntimeError):
    """Steady state is not unique/reachable for this chain."""


class TransitionBuilder:
    """Precomputed clamp-shift distributions for one harvest law.

    Row ``s + reserve`` of the table is the distribution of
    ``clip(s + H, 0, K)`` where ``H`` is the harvested-cell count, for
    every pre-harvest shift ``s`` a policy move can reach: from
    ``-reserve`` (a level at or below the reserve that spends nothing)
    up to ``K`` (a full battery in a busy frame).  Building the table
    once lets many policies be priced against the same harvest law with
    one matrix product each.

    The table is checked once: a sensed-busy frame must be able to raise
    every level below K, that is, the chance of harvesting nothing must
    stay below 1 in floating point.  Then every level reaches K through
    busy frames, so every chain :meth:`matrix` builds has one closed
    class and one steady state (Levin, Peres & Wilmer, *Markov Chains and
    Mixing Times*, 2nd ed., ch. 1), whatever the policy.  A harvest law
    that fails raises :class:`ChainNotErgodicError`.
    """

    def __init__(self, harvest: np.ndarray, cells: int, probe_cells: int):
        harvest = np.asarray(harvest, dtype=float)
        if harvest.shape != (cells + 1,):
            raise ValueError("harvest pmf must have cells+1 entries")
        self.cells = cells
        self.probe_cells = probe_cells
        k = cells
        shifts = np.arange(-probe_cells, k + 1)
        # interior levels map one-to-one onto harvest outcomes H = m - s:
        # a Toeplitz band, read as sliding windows over the padded pmf
        padded = np.concatenate((np.zeros(k), harvest, np.zeros(probe_cells)))
        table = sliding_window_view(padded, k + 1)[::-1].copy()
        # level 0 absorbs every outcome H <= -s, level K every H >= K - s
        at_most = np.concatenate(([0.0], np.cumsum(harvest[:-1]), [1.0]))
        at_least = np.concatenate(
            ([1.0], np.cumsum(harvest[::-1])[::-1][1:], [0.0]))
        table[:, 0] = at_most[np.clip(1 - shifts, 0, k + 1)]
        table[:, k] = at_least[np.clip(k - shifts, 0, k + 1)]
        # row j + reserve holds level j's busy-frame move; its mass at or
        # below j must stay under 1 for every j < K.  A harvest never
        # lowers a level, so that mass is the diagonal entry alone
        stay = np.diagonal(table[probe_cells:probe_cells + k, :k])
        if not np.all(stay < 1.0):
            raise ChainNotErgodicError(
                "chain not ergodic: a sensed-busy frame cannot raise level "
                f"{int(np.argmax(stay >= 1.0))}, harvest[0] = "
                f"{float(harvest[0])!r}")
        self._table = table
        # flat index of each level's busy-frame move (shift j, level j)
        js = np.arange(k + 1)
        self._busy = (js + probe_cells) * (k + 1) + js

    def matrix(self, idle_law: np.ndarray, idle_prob: float,
               busy_prob: float, moves, scatter: Optional[np.ndarray] = None,
               caps: Optional[np.ndarray] = None,
               work: Optional[Workspace] = None) -> np.ndarray:
        """Column-stochastic transition matrix of each stacked spend law.

        ``moves = (state, units)`` lists spend moves: ``idle_law[..., m]``
        is the chance, in a sensed-idle frame, that battery level
        ``state[m]`` spends ``units[m]`` data cells (a policy law's
        :attr:`~ehcr.policy.PolicyPmf.moves`, one row of its ``idle_law``
        per cutoff).  Sensed-busy frames harvest without spending.  Every
        move's mass is scattered onto its pre-harvest shift in a
        (shift x level) matrix M, and the transition matrix is
        ``table.T @ M``; leading axes of the law give one matrix each.
        ``scatter`` is :func:`scatter_index` of ``moves`` and ``caps``
        their :func:`spend_caps`, computed here when not given.  A move
        that spends more than its level holds has a shift below the table
        and raises ``ValueError``.  ``busy_prob`` must be positive: busy
        frames are what give the chain one closed class.

        The product runs on M's band, one block of :data:`BAND_COLUMNS`
        columns [c0, c1) at a time.  Column j's moves sit on rows
        j - caps[j] up to j + reserve, and j - caps[j] never falls as j
        grows, so the block multiplies M's rows [c0 - caps[c0],
        c1 + reserve) only.  A harvest never lowers a level, so the
        result's rows below the block's lowest shift c0 - caps[c0] -
        reserve are the dense product's +0.0, written as such.  Each
        block sums the dense product's nonzero terms: at K = 80, where
        every product's inner dimension fits one BLAS panel, the two agree
        bit for bit, and at K = 400 entries differ by a few 1e-17.

        M and the result are requested from ``work`` (M as its
        :data:`~ehcr.workspace.SCRATCH`), so the result is a view that
        the workspace's next matrix overwrites; without a workspace they
        are new arrays.
        """
        if not busy_prob > 0.0:
            raise ChainNotErgodicError(
                "chain not ergodic: no sensed-busy frames (busy_prob <= 0)")
        k, reserve = self.cells, self.probe_cells
        law = np.asarray(idle_law, dtype=float)
        work = work or Workspace()
        if scatter is None:
            scatter = scatter_index(moves, k)
        if caps is None:
            caps = spend_caps(moves, k)
        lead = law.shape[:-1]
        mix = work.empty(SCRATCH, lead + (k + 1 + reserve, k + 1))
        mix.fill(0.0)
        flat = mix.reshape(lead + (-1,))
        flat[..., scatter] = idle_prob * law
        flat[..., self._busy] += busy_prob
        out = work.empty("battery.matrix", lead + (k + 1,) * 2)
        for c0 in range(0, k + 1, BAND_COLUMNS):
            c1, r0 = c0 + BAND_COLUMNS, c0 - int(caps[c0])
            # next levels below the block's lowest shift
            m0 = max(r0 - reserve, 0)
            if m0:
                out[..., :m0, c0:c1] = 0.0
            np.matmul(self._table[r0:c1 + reserve, m0:].T,
                      mix[..., r0:c1 + reserve, c0:c1],
                      out=out[..., m0:, c0:c1])
        return out


def scatter_index(moves, cells: int) -> np.ndarray:
    """Flat index of each spend move in :meth:`TransitionBuilder.matrix`'s
    (shift x level) scatter of a ``cells``-cell battery.

    A sensed-idle move of level ``state`` that spends ``units`` cells lands
    on row ``state - units`` (its pre-harvest shift plus the reserve).  A
    move that spends more than its level holds raises ``ValueError``.
    """
    state, units = moves
    index = state - units
    if np.any(index < 0):
        raise ValueError("a spend move exceeds its battery level")
    index *= cells + 1
    index += state
    return index


def spend_caps(moves, cells: int) -> np.ndarray:
    """Per-level spend caps of ``moves`` for :meth:`TransitionBuilder.matrix`.

    Level j's cap is the largest spend of its moves (0 without any),
    raised where needed so that j - cap never falls as j grows.
    """
    state, units = moves
    caps = np.zeros(cells + 1, dtype=int)
    np.maximum.at(caps, state, units)
    levels = np.arange(cells + 1)
    # the band's lowest row, j - cap, as a minimum over every later level
    low = np.minimum.accumulate((levels - caps)[::-1])[::-1]
    return levels - low


def steady_state(matrix: np.ndarray,
                 work: Optional[Workspace] = None) -> np.ndarray:
    """Stationary distribution of a column-stochastic chain, or of each in a stack.

    Solved in closed form by replacing one redundant balance constraint
    with normalization, one stacked solve for all chains.  The law is
    unique exactly when the chain has one closed communicating class,
    which every :class:`TransitionBuilder` matrix has by construction, so
    it is not searched for here.  A singular system or a fixed-point
    residual above 1e-9 in any chain of the stack raises
    :class:`ChainNotErgodicError`.  The balance system is built in
    ``work``'s :data:`~ehcr.workspace.SCRATCH`; the returned law is a new
    array.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[-1]
    stack = matrix.reshape(-1, n, n)
    # matrix - I + 1, built with one temporary instead of three
    system = (work or Workspace()).empty(SCRATCH, stack.shape)
    np.copyto(system, stack)
    system.reshape(-1, n * n)[:, ::n + 1] -= 1.0
    system += 1.0
    try:
        z = np.linalg.solve(system, np.ones(stack.shape[:-1] + (1,)))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ChainNotErgodicError("chain not ergodic: singular balance system") from exc

    z = np.clip(z, 0.0, None)
    z /= z.sum(axis=-1, keepdims=True)
    resid = np.abs(np.matmul(stack, z[..., None])[..., 0] - z).max(axis=-1)
    if np.any(resid > 1e-9):
        raise ChainNotErgodicError(
            f"chain not ergodic: fixed-point residual {resid.max():.2e}")
    return z.reshape(matrix.shape[:-1])


def battery_outage(dist: np.ndarray, probe_cells: int) -> np.ndarray:
    """Probability the battery cannot even cover the probe reserve (per law)."""
    return np.asarray(dist)[..., :probe_cells + 1].sum(axis=-1)


def avg_energy(dist: np.ndarray) -> np.ndarray:
    """Mean battery level in cells (per law, for stacked laws)."""
    dist = np.asarray(dist)
    return dot_last(dist, np.arange(dist.shape[-1], dtype=float))


def dot_last(a: np.ndarray, b: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Dot product over the last axis, one per stacked row.

    The products are laid out row by row and each row is summed on its
    own, so a row's result does not depend on the other rows or on where
    the arrays sit in memory (``np.dot`` and stacked BLAS products vary
    with the operands' alignment).  ``out``, a C-contiguous array of the
    broadcast shape (``a`` itself, say), holds the products.
    """
    return np.multiply(a, b, out=out, order="C").sum(axis=-1)


@dataclass(frozen=True)
class BatteryChain:
    """Transition matrix with its solved steady state and summary scalars."""

    matrix: np.ndarray
    steady_state: np.ndarray
    avg_energy: float   # mean level [cells]
    outage: float       # Pr{level <= probe reserve}
