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
from typing import List, Tuple

import numpy as np

from .model import PolicyParams
from .probing import GainDistribution, gain_cdf

# Upward nudge applied before flooring so values sitting a hair below an
# integer (from decimal omega*k products) land on it; breakpoint
# denominators within DENOM_EPS of zero mean the level is unreachable.
FLOOR_NUDGE = 1e-9
DENOM_EPS = 1e-12


def check_params(params: PolicyParams) -> None:
    """Reject a policy outside omega in [0, 1], theta >= 0."""
    if not 0.0 <= params.omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")
    if params.theta < 0.0:
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


def gain_breakpoints(state: int, params: PolicyParams,
                     probe_cells: int) -> List[Tuple[int, float, float]]:
    """Gain intervals [lo, hi) on which the spend equals each level i >= 1.

    Returns (i, lo, hi) triples; ``hi`` is +inf on the top level.  States
    at or below the probe reserve have no positive levels and return [].
    """
    k_idx, i_idx, lo, hi = spend_levels(params, probe_cells, state)
    keep = k_idx == state
    return [(int(i), float(a), float(c))
            for i, a, c in zip(i_idx[keep], lo[keep], hi[keep])]


def spend_levels(params: PolicyParams, probe_cells: int,
                 cells: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flattened (state, level, gain-lo, gain-hi) arrays for every spend level.

    Level i is chosen at state k when the gain lands in [lo, hi); the
    boundaries follow from inverting the derating factor at each floor
    step.  A non-positive inverted denominator means the level never
    loses to the next one, so its upper edge is +inf.
    """
    check_params(params)
    ks = np.arange(cells + 1)
    caps = np.floor(params.omega * ks + FLOOR_NUDGE).astype(int) - probe_cells
    caps = np.clip(caps, 0, None)
    total = int(caps.sum())
    if total == 0:
        z = np.zeros(0)
        return z.astype(int), z.astype(int), z, z
    k_idx = np.repeat(ks, caps)
    starts = np.concatenate(([0], np.cumsum(caps)[:-1]))
    i_idx = np.arange(total) - np.repeat(starts, caps) + 1
    komega = params.omega * k_idx
    d_lo = komega - probe_cells - i_idx
    d_hi = d_lo - 1.0
    num = params.theta * komega
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(d_lo > DENOM_EPS, num / np.where(d_lo > 0, d_lo, 1.0), np.inf)
        hi = np.where(d_hi > DENOM_EPS, num / np.where(d_hi > 0, d_hi, 1.0), np.inf)
    return k_idx, i_idx, lo, hi


@dataclass(frozen=True)
class PolicyPmf:
    """Spend distribution per occupancy state and battery level.

    ``psi[eps, k, i]`` is Pr{spend = i cells | battery k, occupancy eps,
    sensed idle}.  The flattened level arrays mirror :func:`spend_levels`
    so rate computations can reuse the same intervals.
    """

    psi: np.ndarray          # (2, cells+1, cells+1)
    level_state: np.ndarray  # battery level k of each spend level
    level_units: np.ndarray  # spend i of each level
    level_lo: np.ndarray     # lower gain edge of each level
    level_hi: np.ndarray     # upper gain edge (may be +inf)
    cells: int
    probe_cells: int
    params: PolicyParams


def transmit_pmf(params: PolicyParams, probe_cells: int, cells: int,
                 dist: GainDistribution) -> PolicyPmf:
    """Distribution of the data spend under each occupancy state.

    Positive levels get the mixture-component probability of their gain
    interval; the zero level takes whatever remains, which also covers
    gains below the cutoff.
    """
    k_idx, i_idx, lo, hi = spend_levels(params, probe_cells, cells)
    psi = np.zeros((2, cells + 1, cells + 1))
    for eps in (0, 1):
        if k_idx.size:
            q = np.asarray(gain_cdf(dist, hi, eps)) - np.asarray(gain_cdf(dist, lo, eps))
            q = np.where(lo >= hi, 0.0, np.maximum(q, 0.0))
            psi[eps, k_idx, i_idx] = q
        psi[eps, :, 0] = np.maximum(1.0 - psi[eps, :, 1:].sum(axis=1), 0.0)
    return PolicyPmf(psi=psi, level_state=k_idx, level_units=i_idx,
                     level_lo=lo, level_hi=hi, cells=cells,
                     probe_cells=probe_cells, params=params)
