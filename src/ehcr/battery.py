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

The matrix is ``T.T @ M``: the harvest law's clamp-shift table T times a
(shift x level) scatter M of the policy's moves, in which column j's
moves land on shifts j - reserve - cap(j) up to j - reserve (its spends,
cap(j) the largest) and on j (its busy frame).  The moves are those of a
spend fraction's :class:`~ehcr.policy.LevelSkeleton`, which reads off
each move's place in M and each level's cap, and guarantees what the
chain relies on unchecked: no shift lies below -reserve, and j - cap(j)
never falls as j grows.

The steady state never forms that matrix.  :meth:`TransitionBuilder.
steady_state` censors the chain on ever higher levels, a block B of
levels at a time from level 0 up (the state reduction of Grassmann,
Taksar & Heyman, *Oper. Res.* 33(5), 1985, in blocks as Meyer's
stochastic complementation, *SIAM Rev.* 31(2), 1989), and works on M
and T straight away: censoring B out of a chain ``T.T @ M`` leaves the
chain ``T.T @ M'``, where only the columns of the levels above B that
can fall into B change.  Each block's diagonal is its levels' exit
masses, each the sum of that level's moves to the block's other levels
and of its mass above the block (read off T's tail sums), so no entry
is formed by subtraction and even masses far below rounding keep their
relative accuracy.  Within a block the system is solved by LU, which
loses digits where the block is nearly closed, as at low harvest: the
block width is the largest power of two at most 4x the mean harvest, at
most :data:`BLOCK_LEVELS`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .policy import LevelSkeleton
from .workspace import SCRATCH, Workspace


# Most levels censored per block of TransitionBuilder.steady_state.  With
# the width rule (see the module docstring) every entry stayed within
# 1.5e-13 relative of a long-double solve over 900 random settings (K <=
# 160, mean harvest 0.4 to 40); blocks of 48 were off by 1.2e-10 at K = 400,
# reserve 3 and a mean harvest of 4.  A single cutoff at K = 400 and spend
# fractions 0.3 and 0.7 took 5.0 ms in all with 16, 5.0-5.1 ms with 32 or
# 48 and 7.1 ms with 8.
BLOCK_LEVELS = 16


_NO_EXIT = "chain not ergodic: a level of the chain has no exit mass"


class ChainNotErgodicError(RuntimeError):
    """Steady state is not unique/reachable for this chain."""


class TransitionBuilder:
    """Precomputed clamp-shift distributions for one harvest law.

    Row ``s + reserve`` of the table is the distribution of
    ``clip(s + H, 0, K)`` where ``H`` is the harvested-cell count, for
    every pre-harvest shift ``s`` a policy move can reach: from
    ``-reserve`` (a level at or below the reserve that spends nothing)
    up to ``K`` (a full battery in a busy frame).  Building the table
    once lets many policies be priced against the same harvest law.  The
    steady state's blocks of levels and their panels (each block's
    columns of the table, then the chance of landing above the block)
    are built here too.

    The table is checked once: a sensed-busy frame must be able to raise
    every level below K, that is, the chance of harvesting nothing must
    stay below 1 in floating point.  Then every level reaches K through
    busy frames, so every chain :meth:`matrix` builds has one closed
    class and one steady state (Levin, Peres & Wilmer, *Markov Chains and
    Mixing Times*, 2nd ed., ch. 1), whatever the policy, and every level
    can leave every block of levels below K.  A harvest law that fails
    raises :class:`ChainNotErgodicError`.
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
        # blocks [b0, b1) of levels below K, each as wide as the largest
        # power of two at most 4x the mean harvest, within [1, BLOCK_LEVELS];
        # block i's panel, rows b0 + i .. b1 + i of _panels, holds the
        # table's columns b0 .. b1-1 and then each shift's chance of landing
        # at b1 or above
        four_means, width = 4.0 * float(harvest @ js), 1
        while width < BLOCK_LEVELS and 2 * width <= four_means:
            width *= 2
        self._width = width
        self._starts = np.arange(0, k, width)
        self._ends = np.append(self._starts[1:], k)
        self._panels = np.empty((k + self._ends.size, shifts.size))
        for i, (b0, b1) in enumerate(zip(self._starts.tolist(),
                                         self._ends.tolist())):
            self._panels[b0 + i:b1 + i] = table[:, b0:b1].T
            self._panels[b1 + i] = at_least[np.clip(b1 - shifts, 0, k + 1)]

    def _scatter(self, idle_law: np.ndarray, idle_prob: float,
                 busy_prob: float, skeleton: LevelSkeleton,
                 work: Workspace) -> np.ndarray:
        """(shift x level) scatter M of each stacked spend law, in ``work``'s
        :data:`~ehcr.workspace.SCRATCH`."""
        if not busy_prob > 0.0:
            raise ChainNotErgodicError(
                "chain not ergodic: no sensed-busy frames (busy_prob <= 0)")
        k, reserve = self.cells, self.probe_cells
        law = np.asarray(idle_law, dtype=float)
        mix = work.empty(SCRATCH, law.shape[:-1] + (k + 1 + reserve, k + 1))
        mix.fill(0.0)
        flat = mix.reshape(law.shape[:-1] + (-1,))
        flat[..., skeleton.scatter] = idle_prob * law
        flat[..., self._busy] += busy_prob
        return mix

    def matrix(self, idle_law: np.ndarray, idle_prob: float,
               busy_prob: float, skeleton: LevelSkeleton) -> np.ndarray:
        """Column-stochastic transition matrix of each stacked spend law.

        ``idle_law[..., m]`` is the chance, in a sensed-idle frame, that
        battery level ``state[m]`` spends ``units[m]`` data cells, where
        ``(state, units)`` are ``skeleton.moves`` (a policy row's
        :attr:`~ehcr.policy.PolicyPmf.idle_law`, one row per cutoff).
        Sensed-busy frames harvest without spending.  Every move's mass is
        scattered onto its pre-harvest shift in a (shift x level) matrix
        M, and the transition matrix is ``table.T @ M``; leading axes of
        the law give one matrix each.  ``busy_prob`` must be positive:
        busy frames are what give the chain one closed class.

        Pricing never needs the matrix (see :meth:`steady_state`); it is
        a new array, built for what reports or checks it.
        """
        return np.matmul(self._table.T, self._scatter(
            idle_law, idle_prob, busy_prob, skeleton, Workspace()))

    def steady_state(self, idle_law: np.ndarray, idle_prob: float,
                     busy_prob: float, skeleton: LevelSkeleton,
                     work: Optional[Workspace] = None) -> np.ndarray:
        """Stationary law of each stacked spend law's chain (a new array).

        Takes :meth:`matrix`'s arguments and never builds the matrix.
        Each block B = [b0, b1) of levels below K is censored out of the
        chain in turn, from level 0 up.  R = [b1, e) holds the levels
        above B that can fall into it, those whose lowest next level
        j - reserve - caps[j] lies below b1, ``caps`` being the skeleton's;
        the skeleton guarantees that this bound never falls as j grows,
        and it depends on the spend fraction only, so a stack's blocks do
        not depend on its cutoffs.  With Q = panel(B) @ M[:b1 + reserve,
        B ∪ R] (the chain's rows B, then each column's mass at b1 or
        above), A is -Q[B, B] with each diagonal entry replaced by its
        column's exit mass (Q's other rows of that column, summed), H =
        A^-1 Q[B, R], and M[:, R] += M[:, B] @ H.  H is kept in M's spent
        columns B.  Back-substitution starts from level K at 1, sets
        zeta_B = H @ zeta_R block by block, and normalizes.

        Every level can leave every block (:class:`TransitionBuilder`'s
        check), so every exit mass is positive; one that is not, in any
        chain of the stack, raises :class:`ChainNotErgodicError`.  M and
        the block arrays are requested from ``work``.
        """
        k, reserve = self.cells, self.probe_cells
        work = work or Workspace()
        mix = self._scatter(idle_law, idle_prob, busy_prob, skeleton, work)
        lead = mix.shape[:-2]
        mix = mix.reshape((-1,) + mix.shape[-2:])
        n = mix.shape[0]
        starts, ends = self._starts, self._ends
        # one past the last level that can fall below each block's end
        tops = np.maximum(np.searchsorted(
            np.arange(k + 1) - reserve - skeleton.caps, ends), ends)
        blocks = list(zip(starts.tolist(), ends.tolist(), tops.tolist()))
        # flat work arrays, sized for any spend fraction so that they never
        # grow: a block's product spans at most K + 1 columns, and its fill
        # (b1 + reserve) x (e - b1) entries, with e <= K + 1
        block = work.empty("battery.block",
                           (n * (self._width + 1) * (k + 1),))
        fills = work.empty("battery.fill", (n * (k + 1 + reserve) ** 2 // 4,))
        exits = np.empty((n, k))
        for i, (b0, b1, e) in enumerate(blocks):
            w, c, top = b1 - b0, e - b0, b1 + reserve
            q = block[:n * (w + 1) * c].reshape(n, w + 1, c)
            np.matmul(self._panels[b0 + i:b1 + i + 1, :top],
                      mix[:, :top, b0:e], out=q)
            # the exit mass of column j: its rows other than j, summed
            q.reshape(n, -1)[:, :w * (c + 1):c + 1] = 0.0
            np.add.reduce(q[:, :, :w], axis=1, out=exits[:, b0:b1])
            if e > b1:
                a = np.negative(q[:, :w, :w])
                a.reshape(n, -1)[:, ::w + 1] = exits[:, b0:b1]
                try:
                    h = np.matmul(np.linalg.inv(a), q[:, :w, w:])
                except np.linalg.LinAlgError as exc:
                    # only a column with no exit mass makes A singular
                    raise ChainNotErgodicError(_NO_EXIT) from exc
                fill = fills[:n * top * (e - b1)].reshape(n, top, e - b1)
                np.matmul(mix[:, :top, b0:b1], h, out=fill)
                mix[:, :top, b1:e] += fill
                mix[:, :e - b1, b0:b1] = h.transpose(0, 2, 1)
        if not exits.min() > 0.0:
            raise ChainNotErgodicError(_NO_EXIT)
        zeta = np.empty((n, k + 1))
        zeta[:, k] = 1.0
        for b0, b1, e in reversed(blocks):
            if e > b1:
                np.matmul(zeta[:, None, b1:e], mix[:, :e - b1, b0:b1],
                          out=zeta[:, None, b0:b1])
            else:
                # nothing above falls back into the block: it is transient
                zeta[:, b0:b1] = 0.0
        zeta /= zeta.sum(axis=-1, keepdims=True)
        return zeta.reshape(lead + (k + 1,))


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
