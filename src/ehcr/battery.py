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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .policy import PolicyPmf
from .sensing import SensingStats


class ChainNotErgodicError(RuntimeError):
    """Steady state is not unique/reachable for this chain."""


class TransitionBuilder:
    """Precomputed clamp-shift distributions for one harvest law.

    Row ``s`` of the table is the distribution of ``clip(s + H, 0, K)``
    where ``H`` is the harvested-cell count, for every shift ``s`` from
    ``shift_min = -K - reserve`` up to ``K``.  Building the table once lets
    many policies be priced against the same harvest law with one matrix
    product each.
    """

    def __init__(self, harvest: np.ndarray, cells: int, probe_cells: int):
        harvest = np.asarray(harvest, dtype=float)
        if harvest.shape != (cells + 1,):
            raise ValueError("harvest pmf must have cells+1 entries")
        self.cells = cells
        self.probe_cells = probe_cells
        self.shift_min = -cells - probe_cells
        k = cells
        shifts = np.arange(self.shift_min, k + 1)
        # interior levels map one-to-one onto harvest outcomes H = m - s:
        # a Toeplitz band, read as sliding windows over the padded pmf
        padded = np.concatenate((np.zeros(k), harvest,
                                 np.zeros(shifts.size - k - 1)))
        table = sliding_window_view(padded, k + 1)[::-1].copy()
        # level 0 absorbs every outcome H <= -s, level K every H >= K - s
        at_most = np.concatenate(([0.0], np.cumsum(harvest[:-1]), [1.0]))
        at_least = np.concatenate(
            ([1.0], np.cumsum(harvest[::-1])[::-1][1:], [0.0]))
        table[:, 0] = at_most[np.clip(1 - shifts, 0, k + 1)]
        table[:, k] = at_least[np.clip(k - shifts, 0, k + 1)]
        self._table = table

    def matrix(self, idle_law: np.ndarray, idle_prob: float,
               busy_prob: float, moves=None) -> np.ndarray:
        """Column-stochastic transition matrix of each stacked spend law.

        ``moves = (state, units)`` lists spend moves: ``idle_law[..., m]``
        is the chance, in a sensed-idle frame, that battery level
        ``state[m]`` spends ``units[m]`` data cells (a policy law's
        :attr:`~ehcr.policy.PolicyPmf.moves`, one row of its ``idle_law``
        per cutoff).  Without ``moves`` the law is a dense
        ``psi_idle[..., j, i]`` over every level j and spend i.
        Sensed-busy frames harvest without spending.  Every move's mass
        is scattered onto its pre-harvest shift in a (shift x level)
        matrix M, and the transition matrix is ``table.T @ M`` over the
        shifts that occur; leading axes of the law give one matrix each.
        """
        k = self.cells
        law = np.asarray(idle_law, dtype=float)
        if moves is None:
            law = law.reshape(law.shape[:-2] + (-1,))
            state = np.repeat(np.arange(k + 1), k + 1)
            units = np.tile(np.arange(k + 1), k + 1)
        else:
            state, units = moves
        shifts = state - self.probe_cells - units
        lowest = min(0, int(shifts.min())) if shifts.size else 0
        mix = np.zeros(law.shape[:-1] + (k + 1 - lowest, k + 1))
        mix[..., shifts - lowest, state] = idle_prob * law
        js = np.arange(k + 1)
        mix[..., js - lowest, js] += busy_prob
        return self._table[lowest - self.shift_min:].T @ mix


def build_transition_matrix(pmf: PolicyPmf, sensing: SensingStats,
                            harvest: np.ndarray) -> np.ndarray:
    """Battery transition matrix for one policy, sensing point and harvest law."""
    builder = TransitionBuilder(harvest, pmf.cells, pmf.probe_cells)
    return builder.matrix(pmf.idle_law, sensing.pi_hat_idle,
                          sensing.pi_hat_busy, pmf.moves)


def steady_state(matrix: np.ndarray) -> np.ndarray:
    """Stationary distribution of a column-stochastic chain, or of each in a stack.

    Solved in closed form by replacing one redundant balance constraint
    with normalization, one stacked solve for all chains.  The law is
    unique exactly when the chain has one closed communicating class,
    that is when every state reaches one state of it; a backward search
    over the positive entries checks that every state reaches the most
    likely level.  A singular system, a fixed-point residual above 1e-9
    or a state that cannot reach that level means the chain has no
    unique reachable steady state.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[-1]
    stack = matrix.reshape(-1, n, n)
    # matrix - I + 1, built with one temporary instead of three
    system = stack.copy()
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

    # column j steps to row m when matrix[m, j] > 0, so a frontier row's
    # positive columns are the states one step behind it
    for steps, law in zip(stack > 0.0, z):
        reached = np.zeros(n, dtype=bool)
        frontier = np.array([np.argmax(law)])
        reached[frontier] = True
        while frontier.size:
            behind = steps[frontier].any(axis=0) & ~reached
            reached |= behind
            frontier = np.flatnonzero(behind)
        if not reached.all():
            raise ChainNotErgodicError(
                "chain not ergodic: more than one closed class")
    return z.reshape(matrix.shape[:-1])


def battery_outage(dist: np.ndarray, probe_cells: int):
    """Probability the battery cannot even cover the probe reserve.

    A float for one law; an array for laws stacked on leading axes.
    """
    dist = np.asarray(dist)
    return _scalar(dist[..., :probe_cells + 1].sum(axis=-1))


def avg_energy(dist: np.ndarray):
    """Mean battery level in cells (per law, for stacked laws)."""
    dist = np.asarray(dist)
    return dot_last(dist, np.arange(dist.shape[-1], dtype=float))


def dot_last(a: np.ndarray, b: np.ndarray):
    """Dot product over the last axis, one per stacked row.

    The products are laid out row by row and each row is summed on its
    own, so a row's result does not depend on the other rows or on where
    the arrays sit in memory (``np.dot`` and stacked BLAS products vary
    with the operands' alignment).  A float for 1-D operands.
    """
    return _scalar(np.multiply(a, b, order="C").sum(axis=-1))


def _scalar(value: np.ndarray):
    """A 0-d result as a Python float; anything else unchanged."""
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class BatteryChain:
    """Transition matrix with its solved steady state and summary scalars."""

    matrix: np.ndarray
    steady_state: np.ndarray
    avg_energy: float   # mean level [cells]
    outage: float       # Pr{level <= probe reserve}

    @classmethod
    def build(cls, pmf: PolicyPmf, sensing: SensingStats,
              harvest: np.ndarray) -> "BatteryChain":
        phi = build_transition_matrix(pmf, sensing, harvest)
        zeta = steady_state(phi)
        return cls(matrix=phi, steady_state=zeta,
                   avg_energy=avg_energy(zeta),
                   outage=battery_outage(zeta, pmf.probe_cells))
