"""Ergodic rate lower bound, interference load and transmission outage.

The per-frame spectral efficiency is log2(1 + g * b) with an exponential
gain g and a per-level SNR slope b, so every expectation reduces to a
closed-form antiderivative built from the exponential integral.  Summing
those pieces over battery levels (weighted by the steady state) and over
spend levels gives the achievable-rate lower bound; the same spend
distribution under a busy band prices the interference inflicted on the
primary.

The rate bound has two halves.  :func:`level_gains` is its policy side:
the gain integral of every spend level under each channel law, which
reads the row's gain edges and the channel statistics but not the
battery, so users with identical channel statistics can share it.  It
prices both gain laws at both edges of every spend level in one
antiderivative pass per block of levels.  A level's upper edge is the
next level's lower edge, so the terms that depend on the edge alone,
t = edge/mean and exp(-t), are computed once per edge and law and read
at both.  :func:`rate_sum` is the user
side: it weights those integrals by the steady-state chance of each
level's battery state (:func:`level_weights`, one gather that
:func:`interference_load` reads too).

The rate bound's scaled exponential integral exp(t)*E1(t) never calls a
special function.  It is three polynomials fitted offline by
``tools/fit_scaled_e1.py`` (mpmath at 40 digits): E1(t) = P(t) - ln t
with P = -gamma + Ein for t < 2, and t*exp(t)*E1(t) as a polynomial in
1/t on [2, 8) and on [8, inf).  The relative error is at most 2.2e-14
below 2, 2.8e-14 on [2, 8) and 1.2e-15 from 8 on (1e-13 is tested).
Most of the rate bound's arguments lie below 2, so that piece runs in
place over every argument and only the others are gathered.  The terms
below take a policy row (:func:`~ehcr.policy.transmit_row`)
and give one value per cutoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .battery import dot_last
from .model import SuProfile, SystemConfig
from .policy import PolicyPmf
from .probing import EstimationStats
from .sensing import SensingStats
from .workspace import SCRATCH, Workspace

ArrayLike = Union[float, np.ndarray]

_LN2 = math.log(2.0)
# exp(-t) underflows to zero here, making the whole antiderivative zero
_EXP_UNDERFLOW = 745.0

# (cutoff, level) entries per antiderivative pass of the rate bound: a
# block is whole rows of cutoffs, or a run of one row's levels when a row
# is longer.  Both laws at both edges make each of the pass's work arrays
# 2^14 doubles (128 KB): its output, kept in the evaluator's workspace,
# and its gathers, which take the workspace's scratch, so no block
# allocates them.  With the arrays owned, 2^11 read about 7% slower on
# README solve_p1 and the K=400 grid, while 2^13 and one pass per row were
# no faster on the search and each doubling added about 0.7 MB to its
# peak memory (two evaluators).
BLOCK_ENTRIES = 2 ** 12

# _scaled_e1 uses E1(t) = P(t) - ln t below _NEAR_END and P(1/t)/t from
# there on, with one P below _MID_END and another from there
_NEAR_END = 2.0
_MID_END = 8.0


def _as_arrays(coeffs) -> tuple:
    """Coefficients as 0-d arrays.

    numpy adds a 0-d array to an array in about three quarters of the
    time it takes to add a Python float.  Most rate-bound calls at K=80
    have a few hundred arguments, where that per-operation cost is most
    of a Horner step.
    """
    return tuple(np.array(c) for c in coeffs)


# Coefficients of _scaled_e1's polynomials, highest power first, written
# by tools/fit_scaled_e1.py; `python3 tools/fit_scaled_e1.py --check`
# refits them.  t < 2: P(t) = E1(t) + ln t = -gamma + Ein(t).  Then one
# column each for 2 <= t < 8 and t >= 8: P(1/t) = t*exp(t)*E1(t).
_E1_NEAR = _as_arrays((
    -7.03577695135723e-11, 1.7737566544720701e-09, -2.600893404864189e-08,
    3.0301385381037893e-07, -3.095715783915787e-06, 2.834028810258314e-05,
    -0.0002314785300317828, 0.0016666653294609987, -0.010416666276641994,
    0.05555555548770149, -0.2499999999938552, 0.999999999999781,
    -0.5772156649015315,
))
_E1_INV = np.array([
    (1069.314542107882, 1640028825.1707764),
    (-5865.303790836217, -1901316737.0916362),
    (15058.014036764453, 1029341048.3733859),
    (-24060.967060914292, -347974334.6269594),
    (26850.576983956267, 83237648.72009674),
    (-22269.97139557881, -15251269.134332856),
    (14276.930604977502, 2289981.370445055),
    (-7274.954272121505, -302645.3220977584),
    (3015.34702888036, 38159.992669103834),
    (-1040.7355607182449, -4980.353726894698),
    (308.2214676083982, 718.7762187785576),
    (-81.9691212417221, -119.98213210857354),
    (21.05176829211902, 23.99982487960917),
    (-5.820612861725447, -5.999998943764702),
    (1.9921004838166707, 1.99999999660645),
    (-0.9997784159302694, -0.9999999999956376),
    (0.9999970473069972, 0.9999999999999991),
])
# the two columns as 0-d arrays, so each piece runs its own Horner pass
# on scalar coefficients
_E1_MID, _E1_FAR = (_as_arrays(column) for column in _E1_INV.T)


def _horner(coeffs, u: np.ndarray, out: Optional[np.ndarray] = None
            ) -> np.ndarray:
    """Polynomial with scalar coefficients, highest power first, at every u."""
    acc = np.multiply(u, coeffs[0], out=out)
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= u
        acc += c
    return acc


def _scaled_e1(t: np.ndarray, out: Optional[np.ndarray] = None,
               work: Optional[Workspace] = None) -> np.ndarray:
    """exp(t) * E1(t) for t > 0, stable for arbitrarily large t.

    Below t = 2, exp(t) * (P(t) - ln t) with P(t) = -gamma + Ein(t)
    (degree 12).  From t = 2 on, P(1/t) / t with P fitted to
    t*exp(t)*E1(t) on [2, 8) and on [8, inf) (degree 16 each); +inf
    gives 0.  Most arguments of the rate bound lie below 2, so that
    formula runs over the whole array in place, and only the arguments
    from 2 on are gathered, each range into one contiguous array, and
    scattered back over it; a range with no argument is skipped.
    Relative error against ``mpmath.e1``: at most 2.2e-14 below 2,
    2.8e-14 on [2, 8) and 1.2e-15 from 8 on.  ``out`` (contiguous, ``t``
    itself allowed) takes the result; the masks and, in ``work``'s
    scratch, the gathers and the formula's work arrays are requested
    from ``work``.
    """
    shape = np.shape(t)
    # the masks below gather and scatter fastest on a flat array
    t = np.asarray(t, dtype=float).reshape(-1)
    out = np.empty_like(t) if out is None else out.reshape(-1)
    work = work or Workspace()
    near, mid, far = work.empty("rate.e1_pieces", (3,) + t.shape, bool)
    np.less(t, _NEAR_END, out=near)
    np.less(t, _MID_END, out=mid)
    # a NaN falls to the far piece, as it compares false everywhere
    np.logical_not(mid, out=far)
    np.logical_xor(mid, near, out=mid)
    # the polynomial and the exponential of the formula below 2, then the
    # arguments from 2 on, gathered before that formula overwrites t; the
    # polynomial's memory takes their results next
    counts = np.count_nonzero(mid), np.count_nonzero(far)
    size = t.size
    scratch = work.empty(SCRATCH, (2 * size + sum(counts),))
    poly, grow = scratch[:size], scratch[size:2 * size]
    gathered = scratch[2 * size:]
    pieces, start = [], 0
    for piece, coeffs, count in zip((mid, far), (_E1_MID, _E1_FAR), counts):
        if count:
            part = slice(start, start + count)
            np.compress(piece, t, out=gathered[part])
            pieces.append((piece, coeffs, part))
            start += count
    with np.errstate(over="ignore", invalid="ignore"):
        _horner(_E1_NEAR, t, out=poly)
        np.exp(t, out=grow)
        np.log(t, out=out)
        np.subtract(poly, out, out=poly)
        np.multiply(poly, grow, out=out)
    for piece, coeffs, part in pieces:
        v = np.reciprocal(gathered[part], out=gathered[part])
        acc = _horner(coeffs, v, out=poly[part])
        acc *= v
        out[piece] = acc
    return out.reshape(shape)


def _antiderivative(x: np.ndarray, t: np.ndarray, snr: np.ndarray,
                    inv: np.ndarray, keep: np.ndarray, out: np.ndarray,
                    work: Workspace, pairs=None) -> np.ndarray:
    """:func:`antiderivative_m` at every edge ``x``, written into ``out``.

    ``t`` holds x/mean, computed by the caller so that edges that several
    entries share compute it once; ``pairs`` (identity when not given)
    maps ``t``'s layout onto the entries, and ``t`` is overwritten with
    exp(-t) once the entries have read it.  ``inv`` is 1/(snr*mean).
    Every argument broadcasts to ``out``.  An entry with x/mean >
    _EXP_UNDERFLOW (+inf edges included) or false in ``keep`` (snr > 0,
    say) is priced like any other and zeroed at the end, so no warning it
    raises on the way is reported.  The log term is built in ``work``'s
    scratch once :func:`_scaled_e1` is done with it, so no argument may
    live there.
    """
    pairs = pairs or (lambda a: a)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        live = np.less_equal(pairs(t), _EXP_UNDERFLOW,
                             out=work.empty("rate.live", out.shape, bool))
        live &= keep
        # -exp(-t) * (exp(T) E1(T) + log1p(snr x)) / ln 2 at T = t + 1/(snr
        # mean), step by step in place; products commute and the sign
        # moves onto ln 2, which changes no bit
        np.add(pairs(t), inv, out=out)
        np.negative(t, out=t)
        np.exp(t, out=t)
        e1 = _scaled_e1(out, out, work)
        log_term = np.multiply(x, snr, out=work.empty(SCRATCH, out.shape))
        np.log1p(log_term, out=log_term)
        e1 += log_term
        np.multiply(e1, pairs(t), out=out)
        out /= -_LN2
        np.copyto(out, 0.0, where=np.logical_not(live, out=live))
    return out


def antiderivative_m(x: ArrayLike, snr_scale: ArrayLike,
                     mean_gain: ArrayLike) -> np.ndarray:
    """Antiderivative of log2(1 + snr_scale*g) under an exponential gain law.

    Evaluated so that the integral over [a, b) is M(b) - M(a); M(+inf) is 0
    and a zero slope contributes nothing.  Uses the scaled exponential
    integral so huge 1/(snr*mean) exponents never overflow.  The edge, the
    slope and the gain mean broadcast against each other, so one call
    prices several laws; every entry goes through the same elementwise
    steps whatever it is stacked with.
    """
    mean_gain = np.asarray(mean_gain, dtype=float)
    if np.any(mean_gain <= 0.0):
        raise ValueError("mean_gain must be > 0")
    x = np.asarray(x, dtype=float)
    snr = np.asarray(snr_scale, dtype=float)
    out = np.empty(np.broadcast_shapes(x.shape, snr.shape, mean_gain.shape))
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.divide(1.0, snr * mean_gain)
    t = np.divide(x, mean_gain, out=np.empty(np.broadcast_shapes(
        x.shape, mean_gain.shape)))
    return _antiderivative(x, t, snr, inv, snr > 0.0, out, Workspace())


@dataclass(frozen=True)
class PerSuRate:
    """Rate lower bound of one user, split by the true occupancy state.

    :func:`rate_sum` gives an array over the row's cutoffs in each field;
    :class:`~ehcr.analysis.SuAnalysis` holds one cutoff's floats.
    """

    total: float      # bits/s
    idle_part: float  # contribution from truly idle frames
    busy_part: float  # contribution from busy-but-missed frames


def _edge_pairs(terms: np.ndarray) -> np.ndarray:
    """(..., 2, rows, levels) view of contiguous (..., rows, levels + 1)
    edge terms: each level's lower edge, then its upper edge, the next
    lower one.  Built straight from the strides, which costs a
    fraction of ``sliding_window_view``'s microseconds per block."""
    *lead, rows, width = terms.shape
    strides = terms.strides
    return np.ndarray((*lead, 2, rows, width - 1), terms.dtype, terms, 0,
                      strides[:-2] + strides[-1:] + strides[-2:])


def _interval_integrals(pmf: PolicyPmf, unit_power: float, laws: np.ndarray,
                        work: Workspace) -> np.ndarray:
    """Gain integral over [lo, hi) of every (cutoff, level) entry, per law.

    ``laws`` holds one (error-gain mean, noise, gain mean) row per law.
    Returns (laws, cutoffs, levels): M(hi) - M(lo) clipped at 0, in
    ``work``'s ``rate.gains`` array.  A level's upper edge is the next
    level's lower edge, +inf at its state's top (every row's last level
    is one), so each block of (cutoff, level) entries computes t =
    edge/mean and exp(-t) once per lower edge and law, plus the edge
    after each row's last level, and reads both edges as views of them;
    M at a top's upper edge is zeroed like any other dead entry.  A
    level's SNR slope (power over self-interference plus noise) and
    1/(slope * mean) depend on its spend alone, so they are computed once
    per spend and law and gathered per run of levels.  Both edges
    under every law go through one :func:`_antiderivative` pass per
    block of at most :data:`BLOCK_ENTRIES` entries, so equal edges (every
    level below the top at theta = 0, both +inf on an unreachable level)
    price M(x) - M(x) = 0 exactly.
    """
    lo, units, top = pmf.level_lo, pmf.level_units, pmf.skeleton.top
    cutoffs, levels = lo.shape
    out = work.empty("rate.gains", (len(laws), cutoffs, levels))
    if not out.size:
        return out
    err, noise, means = (laws[:, i, None] for i in range(3))
    # slopes and their 1/(slope * mean) by spend 0..K
    power = np.arange(pmf.cells + 1) * unit_power
    slopes = err * power
    slopes += noise
    np.divide(power, slopes, out=slopes)
    with np.errstate(divide="ignore"):
        inverses = np.divide(1.0, slopes * means)
    rows = max(1, BLOCK_ENTRIES // levels)
    cols = min(levels, BLOCK_ENTRIES)
    for c0 in range(0, levels, cols):
        cut = slice(c0, c0 + cols)
        n = units[cut].size
        snr = np.take(slopes, units[cut], axis=1, mode="clip",
                      out=work.empty("rate.snr", (len(laws), n)))
        inv = np.take(inverses, units[cut], axis=1, mode="clip",
                      out=work.empty("rate.inv", (len(laws), n)))
        # (law, edge, level): a positive slope counts at both edges, and
        # at the upper one only below its state's top
        keep = work.empty("rate.keep", (len(laws), 2, n), bool)
        np.greater(snr, 0.0, out=keep[:, 0])
        np.logical_not(top[cut], out=keep[:, 1])
        keep[:, 1] &= keep[:, 0]
        for r0 in range(0, cutoffs, rows):
            block = lo[r0:r0 + rows, cut]
            edges = work.empty("rate.edges", (len(block), n + 1))
            edges[:, :-1] = block
            # past the block's last level: the row's next lower edge, or
            # +inf (a top, zeroed) where the row ends
            edges[:, -1] = (lo[r0:r0 + rows, cut.stop] if cut.stop < levels
                            else np.inf)
            t = np.divide(edges, means[..., None], out=work.empty(
                "rate.t", (len(laws),) + edges.shape))
            m = _antiderivative(
                _edge_pairs(edges), t, snr[:, None, None, :],
                inv[:, None, None, :], keep[:, :, None, :],
                work.empty("rate.m", (len(laws), 2) + block.shape), work,
                _edge_pairs)
            gain = np.subtract(m[:, 1], m[:, 0],
                               out=out[:, r0:r0 + rows, cut])
            np.maximum(gain, 0.0, out=gain)
    return out


def level_weights(stationary: np.ndarray, pmf: PolicyPmf) -> np.ndarray:
    """Steady-state chance of every spend level's battery state, per cutoff.

    One contiguous (cutoffs, levels) gather, read by both the rate sum
    and the interference load.
    """
    return np.take(stationary, pmf.level_state, axis=-1)


def level_gains(config: SystemConfig, profile: SuProfile,
                sensing: SensingStats, est: EstimationStats,
                pmf: PolicyPmf, work: Optional[Workspace] = None
                ) -> Tuple[Optional[np.ndarray], ...]:
    """Gain integral of every (cutoff, spend level) under the idle and busy law.

    The policy side of the rate bound: it reads the row's gain edges and
    the channel statistics, never the battery.  Each entry is a
    (cutoffs, levels) array, or None for a law that adds nothing because
    it is never sensed idle or its fed-back gain is zero.  The arrays are
    views of ``work``'s ``rate.gains`` array (new without a workspace).
    """
    # (joint probability, error-gain mean, gain mean, noise) per law
    laws = ((sensing.beta0, est.var_err_h0, est.var_hat_h0, profile.ap_noise),
            (sensing.beta1, est.var_err_h1, est.var_hat_h1,
             profile.ap_noise + est.pu_interference_var))
    live = [eps for eps in (0, 1) if laws[eps][0] > 0.0 and laws[eps][2] > 0.0]
    gains = [None, None]
    if live:
        integrals = _interval_integrals(
            pmf, config.unit_power,
            np.array([(laws[eps][1], laws[eps][3], laws[eps][2])
                      for eps in live]), work or Workspace())
        for eps, gain in zip(live, integrals):
            gains[eps] = gain
    return tuple(gains)


def rate_sum(config: SystemConfig, sensing: SensingStats, pmf: PolicyPmf,
             gains: Tuple[Optional[np.ndarray], ...],
             weights: np.ndarray, work: Optional[Workspace] = None
             ) -> PerSuRate:
    """Achievable-rate lower bound of one user [bits/s].

    Each law's :func:`level_gains` integrals of a row, weighted by the
    row's :func:`level_weights` and by the law's joint chance of a
    sensed-idle frame.  Every field is an array over the row's cutoffs.
    """
    scale = config.data_fraction * config.bandwidth
    work = work or Workspace()
    parts = [np.zeros(pmf.theta.shape) if gain is None
             else scale * joint * dot_last(weights, gain, out=work.empty(
                 SCRATCH, np.broadcast_shapes(weights.shape, gain.shape)))
             for joint, gain in zip((sensing.beta0, sensing.beta1), gains)]
    return PerSuRate(parts[0] + parts[1], parts[0], parts[1])


def interference_load(config: SystemConfig, profile: SuProfile,
                      sensing: SensingStats, pmf: PolicyPmf,
                      weights: np.ndarray, work: Optional[Workspace] = None):
    """Average interference one user inflicts on the primary [W].

    Only busy-but-sensed-idle frames interfere; the data term averages the
    spend under the busy-band gain law, weighted by the row's
    :func:`level_weights`, and the probing term is a fixed duty-cycled
    pilot power.  One value per cutoff of the row.
    """
    busy, units = pmf.level_mass[..., 1, :], pmf.level_units
    shape = np.broadcast_shapes(weights.shape, busy.shape)
    scratch = (work or Workspace()).empty(SCRATCH,
                                          (units.size + math.prod(shape),))
    power = np.multiply(units, config.unit_power, out=scratch[:units.size])
    loaded = np.multiply(weights, busy,
                         out=scratch[units.size:].reshape(shape))
    data_power = dot_last(loaded, power, out=loaded)
    pilot_power = config.probe_fraction * config.probe_power
    return sensing.beta1 * profile.su_pu_var * (data_power + pilot_power)


def transmission_outage(stationary: np.ndarray, pmf: PolicyPmf,
                        sensing: SensingStats, probe_cells: int):
    """Pr{no data is sent in a sensed-idle frame}.

    Either the battery is at or below the probe reserve, or the fed-back
    gain (under the sensed-idle mixture law) fails to clear the cutoff.
    One value per cutoff of the row.
    """
    stationary = np.asarray(stationary)
    ks = np.arange(probe_cells + 1, stationary.shape[-1])
    if ks.size == 0:
        return np.ones(pmf.theta.shape)
    low = stationary[..., :probe_cells + 1].sum(axis=-1)
    zero_spend = (sensing.omega0 * pmf.zero_mass[..., 0, ks]
                  + sensing.omega1 * pmf.zero_mass[..., 1, ks])
    return low + dot_last(stationary[..., ks], zero_spend)


@dataclass(frozen=True)
class RateBreakdown:
    """Network totals: per-user rates, their sum and the interference side."""

    per_su: Tuple[PerSuRate, ...]
    sum_rate: float                  # bits/s
    per_su_interference: Tuple[float, ...]  # watts
    aic_lhs: float                   # watts
    aic_satisfied: bool
