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
antiderivative pass per block of (cutoff, level) entries, the blocks
running across the row's cutoffs as one flat run.  A level's upper edge
is the next level's lower edge, so the terms that depend on the edge
alone, t = edge/mean and exp(-t), are computed once per edge and law and
read at both.  :func:`rate_sum` is the user side: it weights those
integrals by the steady-state chance of each level's battery state
(:func:`level_weights`, one gather that :func:`interference_load` reads
too).

The rate bound's scaled exponential integral exp(t)*E1(t) never calls a
special function.  It is three polynomials fitted offline by
``tools/fit_scaled_e1.py`` (mpmath at 40 digits): E1(t) = P(t) - ln t
with P = -gamma + Ein for t < 2, and t*exp(t)*E1(t) as a polynomial in
1/t on [2, 8) and on [8, inf).  The relative error is at most 2.2e-14
below 2, 2.8e-14 on [2, 8) and 1.2e-15 from 8 on (1e-13 is tested).
Most of the rate bound's arguments lie below 2, so that piece runs in
place over every argument; the others are gathered once and both
pieces from 2 on run one Horner pass over them.  The terms
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

# Fewest (cutoff, level) entries per antiderivative pass of the rate
# bound, and most E1 arguments (2 edges x laws per entry) in one;
# _block_entries picks a size between them from K.  Each pass costs about
# 100 us of numpy calls whatever its size, so large blocks pay off at
# K=400, where a one-cutoff row has 23,483 (omega = 0.3) to 55,561 (0.7)
# levels.  There the K=400 grid body read 0.935x with blocks of (K+1)^2 /
# 12 = 13,400 entries against 4,096, and 0.965x of that again with 8,192
# (2^15 arguments, about 1.4 MB of block arrays, within a core's 2 MB L2
# cache), better in 231 of 296 alternating rounds.  At K=80 a stack of 9
# cutoffs holds about 12,000 entries and its (shift x level) scatter is
# the largest scratch request; blocks of 2^13 there made the E1 scratch
# outgrow it and added about 5 MB to the search's peak memory, while 2^11
# read about 7% slower on README solve_p1.
BLOCK_ENTRIES = 2 ** 12
BLOCK_ARGS = 2 ** 15

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
# the two columns as 0-d arrays: the tail's Horner pass adds each piece's
# coefficient to its part of the gather as a scalar
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
    formula runs over the whole array in place.  The arguments from 2 on
    (the tail) are gathered once, [2, 8) ahead of [8, inf) within the
    gather, and run one Horner pass: each step multiplies the whole tail
    and adds each piece's coefficient to its part.  The results return
    to the tail's order and are scattered over the array once.  Relative
    error against ``mpmath.e1``: at most 2.2e-14 below 2, 2.8e-14 on
    [2, 8) and 1.2e-15 from 8 on.  ``out`` (contiguous, ``t`` itself
    allowed) takes the result; the masks and, in ``work``'s scratch, the
    gather and the formula's work arrays are requested from ``work``.
    """
    shape = np.shape(t)
    # the masks below gather and scatter fastest on a flat array
    t = np.asarray(t, dtype=float).reshape(-1)
    out = np.empty_like(t) if out is None else out.reshape(-1)
    work = work or Workspace()
    size = t.size
    tail, piece = work.empty("rate.e1_pieces", (2, size), bool)
    # a NaN falls to the tail, and there to [8, inf), as it compares false
    np.less(t, _NEAR_END, out=tail)
    np.logical_not(tail, out=tail)
    count = np.count_nonzero(tail)
    # the polynomial and the exponential of the formula below 2, then the
    # tail, gathered before that formula overwrites t; the exponential's
    # memory takes the tail's reciprocals next, the polynomial's their
    # results
    scratch = work.empty(SCRATCH, (2 * size + count,))
    poly, grow = scratch[:size], scratch[size:2 * size]
    gathered = np.compress(tail, t, out=scratch[2 * size:])
    with np.errstate(over="ignore", invalid="ignore"):
        _horner(_E1_NEAR, t, out=poly)
        np.exp(t, out=grow)
        np.log(t, out=out)
        np.subtract(poly, out, out=poly)
        np.multiply(poly, grow, out=out)
    if count:
        mid = np.less(gathered, _MID_END, out=piece[:count])
        split = np.count_nonzero(mid)
        v, acc = grow[:count], poly[:count]
        np.compress(mid, gathered, out=v[:split])
        far = np.logical_not(mid, out=mid)
        np.compress(far, gathered, out=v[split:])
        np.reciprocal(v, out=v)
        # each part starts at its leading coefficient c0, so the first
        # step's c0 * v has the bits of v * c0
        low, high = acc[:split], acc[split:]
        low[...], high[...] = _E1_MID[0], _E1_FAR[0]
        for c_mid, c_far in zip(_E1_MID[1:], _E1_FAR[1:]):
            acc *= v
            low += c_mid
            high += c_far
        acc *= v
        gathered[far] = high
        gathered[np.logical_not(far, out=far)] = low
        out[tail] = gathered
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
    say) is priced like any other and zeroed at the end; the caller
    ignores the floating-point warnings it raises on the way.  The log
    term is built in ``work``'s scratch once :func:`_scaled_e1` is done
    with it, so no argument may live there.
    """
    pairs = pairs or (lambda a: a)
    live = np.less_equal(pairs(t), _EXP_UNDERFLOW,
                         out=work.empty("rate.live", out.shape, bool))
    live &= keep
    # -exp(-t) * (exp(T) E1(T) + log1p(snr x)) / ln 2 at T = t + 1/(snr
    # mean), step by step in place; products commute and the sign moves
    # onto ln 2, which changes no bit
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
    t = np.divide(x, mean_gain, out=np.empty(np.broadcast_shapes(
        x.shape, mean_gain.shape)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = np.divide(1.0, snr * mean_gain)
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
    """(..., 2, entries) view of contiguous (..., entries + 1) edge terms:
    each entry's lower edge, then its upper edge, the next lower one.
    Built straight from the strides, which costs a fraction of
    ``sliding_window_view``'s microseconds per block."""
    *lead, width = terms.shape
    strides = terms.strides
    return np.ndarray((*lead, 2, width - 1), terms.dtype, terms, 0,
                      strides + strides[-1:])


def _block_entries(cells: int, laws: int) -> int:
    """(cutoff, level) entries per antiderivative pass of the rate bound.

    :data:`BLOCK_ENTRIES`, more once K is so large that a block's E1 work,
    at most 3 doubles per argument and 2 * ``laws`` arguments per entry,
    still fits in the (K+1)^2 or more entries of the spend scatter every
    stack's steady state takes from the workspace's scratch, but never
    more than :data:`BLOCK_ARGS` arguments.
    """
    return min(max(BLOCK_ENTRIES, (cells + 1) ** 2 // (6 * laws)),
               BLOCK_ARGS // (2 * laws))


def _repeat(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` filled with ``a`` over and over."""
    whole = out.size // a.size * a.size
    out[:whole].reshape(-1, a.size)[...] = a
    out[whole:] = a[:out.size - whole]
    return out


def _interval_integrals(pmf: PolicyPmf, unit_power: float, laws: np.ndarray,
                        work: Workspace) -> np.ndarray:
    """Gain integral over [lo, hi) of every (cutoff, level) entry, per law.

    ``laws`` holds one (error-gain mean, noise, gain mean) row per law.
    Returns (laws, cutoffs, levels): M(hi) - M(lo) clipped at 0, in
    ``work``'s ``rate.gains`` array.  The entries run as one flat run,
    row after row, in blocks of :func:`_block_entries`, so a block may
    cross rows.  A level's upper edge is the next entry's lower edge: the
    next level's lower edge, or, at its state's top (every row's last
    level is one), a dead edge whose M is zeroed like any other dead
    entry's (+inf after the run's last entry).  Each block computes t =
    edge/mean and exp(-t) once per lower edge and law, plus the edge after
    the block, and reads both edges as views of them.  A level's SNR slope
    (power over self-interference plus noise) and 1/(slope * mean) depend
    on its spend alone, so they are computed once per spend and law and
    gathered per block.  Both edges under every law go through one
    :func:`_antiderivative` pass per block, so equal edges (every level
    below the top at theta = 0, both +inf on an unreachable level) price
    M(x) - M(x) = 0 exactly.  Every block array is requested from
    ``work``.
    """
    lo, units, top = pmf.level_lo, pmf.level_units, pmf.skeleton.top
    levels = top.size
    out = work.empty("rate.gains", (len(laws),) + lo.shape)
    if not out.size:
        return out
    lo, gains = lo.reshape(-1), out.reshape(len(laws), -1)
    err, noise, means = (laws[:, i, None] for i in range(3))
    # slopes and their 1/(slope * mean) by spend 0..K
    power = np.arange(pmf.cells + 1) * unit_power
    slopes = err * power
    slopes += noise
    np.divide(power, slopes, out=slopes)
    size = min(_block_entries(pmf.cells, len(laws)), lo.size)
    # entry e is level e % levels of its row, so the block from e0 reads
    # the spends and tops of levels e0 % levels on, repeated past a row's
    # end: each laid out over size + levels entries
    spends = _repeat(units, work.empty("rate.spends", (size + levels,),
                                       units.dtype))
    tops = _repeat(top, work.empty("rate.tops", (size + levels,), bool))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inverses = np.divide(1.0, slopes * means)
        for e0 in range(0, lo.size, size):
            n = min(size, lo.size - e0)
            run = slice(e0 % levels, e0 % levels + n)
            snr = np.take(slopes, spends[run], axis=1, mode="clip",
                          out=work.empty("rate.snr", (len(laws), n)))
            inv = np.take(inverses, spends[run], axis=1, mode="clip",
                          out=work.empty("rate.inv", (len(laws), n)))
            # (law, edge, entry): a positive slope counts at both edges,
            # and at the upper one only below its state's top (True >
            # False is the one true comparison)
            keep = work.empty("rate.keep", (len(laws), 2, n), bool)
            np.greater(snr, 0.0, out=keep[:, 0])
            np.greater(keep[:, 0], tops[run], out=keep[:, 1])
            edges = work.empty("rate.edges", (n + 1,))
            edges[:n] = lo[e0:e0 + n]
            edges[n] = lo[e0 + n] if e0 + n < lo.size else np.inf
            t = np.divide(edges, means, out=work.empty(
                "rate.t", (len(laws), n + 1)))
            m = _antiderivative(
                _edge_pairs(edges), t, snr[:, None], inv[:, None], keep,
                work.empty("rate.m", (len(laws), 2, n)), work, _edge_pairs)
            gain = np.subtract(m[:, 1], m[:, 0], out=gains[:, e0:e0 + n])
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
