"""Ergodic rate lower bound, interference load and transmission outage.

The per-frame spectral efficiency is log2(1 + g * b) with an exponential
gain g and a per-level SNR slope b, so every expectation reduces to a
closed-form antiderivative built from the exponential integral.  Summing
those pieces over battery levels (weighted by the steady state) and over
spend levels gives the achievable-rate lower bound; the same spend
distribution under a busy band prices the interference inflicted on the
primary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
from scipy.special import exp1

from .model import SuProfile, SystemConfig
from .policy import PolicyPmf
from .probing import EstimationStats
from .sensing import SensingStats

ArrayLike = Union[float, np.ndarray]

_LN2 = math.log(2.0)
# above this argument exp(t)*E1(t) is evaluated by continued fraction to
# dodge the overflow/underflow product in the direct form
_CF_SWITCH = 600.0
# exp(-t) underflows to zero here, making the whole antiderivative zero
_EXP_UNDERFLOW = 745.0


def exp_integral_ei(x: ArrayLike) -> ArrayLike:
    """Exponential integral Ei on the negative half-line.

    Underflows to exactly 0 once exp(x)/|x| leaves the double range
    (around x < -745); non-negative arguments are a domain error.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr >= 0.0):
        raise ValueError("exp_integral_ei is defined for negative arguments only")
    out = -exp1(-arr)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _scaled_e1(t: np.ndarray) -> np.ndarray:
    """exp(t) * E1(t) for t > 0, stable for arbitrarily large t."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = t < _CF_SWITCH
    ts = t[small]
    out[small] = np.exp(ts) * exp1(ts)
    tb = t[~small]
    if tb.size:
        # descending continued fraction 1/(t+1- 1^2/(t+3- 2^2/(t+5- ...)))
        acc = np.zeros_like(tb)
        for k in range(40, 0, -1):
            acc = (k * k) / (tb + 2.0 * k + 1.0 - acc)
        out[~small] = 1.0 / (tb + 1.0 - acc)
    return out


def antiderivative_m(x: ArrayLike, snr_scale: ArrayLike,
                     mean_gain: float) -> ArrayLike:
    """Antiderivative of log2(1 + snr_scale*g) under an exponential gain law.

    Evaluated so that the integral over [a, b) is M(b) - M(a); M(+inf) is 0
    and a zero slope contributes nothing.  Uses the scaled exponential
    integral so huge 1/(snr*mean) exponents never overflow.
    """
    if mean_gain <= 0.0:
        raise ValueError("mean_gain must be > 0")
    x_arr, snr_arr = np.broadcast_arrays(np.asarray(x, dtype=float),
                                         np.asarray(snr_scale, dtype=float))
    out = np.zeros(x_arr.shape)
    t = x_arr / mean_gain
    active = (snr_arr > 0.0) & np.isfinite(x_arr) & (t <= _EXP_UNDERFLOW)
    if np.any(active):
        xa = x_arr[active]
        sa = snr_arr[active]
        ta = t[active]
        big_t = ta + 1.0 / (sa * mean_gain)
        out[active] = -np.exp(-ta) * (_scaled_e1(big_t)
                                      + np.log1p(sa * xa)) / _LN2
    if np.isscalar(x) and np.isscalar(snr_scale):
        return float(out)
    return out


@dataclass(frozen=True)
class PerSuRate:
    """Rate lower bound of one user, split by the true occupancy state."""

    total: float      # bits/s
    idle_part: float  # contribution from truly idle frames
    busy_part: float  # contribution from busy-but-missed frames


def _level_snr(units: np.ndarray, err_var: float, noise: float,
               unit_power: float) -> np.ndarray:
    """SNR slope of a spend level: power over self-interference plus noise."""
    power = units * unit_power
    return power / (err_var * power + noise)


def rate_lower_bound(config: SystemConfig, profile: SuProfile,
                     sensing: SensingStats, est: EstimationStats,
                     pmf: PolicyPmf, stationary: np.ndarray) -> PerSuRate:
    """Achievable-rate lower bound of one user [bits/s].

    Sums the closed-form gain integral of every (battery level, spend
    level) pair, weighted by the steady-state occupancy, separately under
    the idle and busy channel laws.
    """
    if pmf.level_state.size == 0:
        return PerSuRate(0.0, 0.0, 0.0)
    scale = config.data_fraction * config.bandwidth
    weights = np.asarray(stationary)[pmf.level_state]
    parts = []
    for eps, joint, err, mean, extra_noise in (
            (0, sensing.beta0, est.var_err_h0, est.var_hat_h0, 0.0),
            (1, sensing.beta1, est.var_err_h1, est.var_hat_h1,
             est.pu_interference_var)):
        if joint <= 0.0 or mean <= 0.0:
            parts.append(0.0)
            continue
        snr = _level_snr(pmf.level_units, err, profile.ap_noise + extra_noise,
                         config.unit_power)
        chunk = (antiderivative_m(pmf.level_hi, snr, mean)
                 - antiderivative_m(pmf.level_lo, snr, mean))
        chunk = np.where(pmf.level_lo >= pmf.level_hi, 0.0,
                         np.maximum(chunk, 0.0))
        parts.append(scale * joint * float(np.dot(weights, chunk)))
    return PerSuRate(parts[0] + parts[1], parts[0], parts[1])


def aic_contribution(config: SystemConfig, profile: SuProfile,
                     sensing: SensingStats, pmf: PolicyPmf,
                     stationary: np.ndarray) -> float:
    """Average interference one user inflicts on the primary [W].

    Only busy-but-sensed-idle frames interfere; the data term averages the
    spend under the busy-band gain law and the probing term is a fixed
    duty-cycled pilot power.
    """
    data_power = 0.0
    if pmf.level_state.size:
        weights = np.asarray(stationary)[pmf.level_state]
        psi_busy = pmf.psi[1][pmf.level_state, pmf.level_units]
        data_power = float(np.dot(weights * psi_busy,
                                  pmf.level_units * config.unit_power))
    pilot_power = config.probe_fraction * config.probe_power
    return sensing.beta1 * profile.su_pu_var * (data_power + pilot_power)


def transmission_outage(stationary: np.ndarray, pmf: PolicyPmf,
                        sensing: SensingStats, probe_cells: int) -> float:
    """Pr{no data is sent in a sensed-idle frame}.

    Either the battery is at or below the probe reserve, or the fed-back
    gain (under the sensed-idle mixture law) fails to clear the cutoff.
    """
    stationary = np.asarray(stationary)
    ks = np.arange(probe_cells + 1, stationary.size)
    if ks.size == 0:
        return 1.0
    low = float(np.sum(stationary[:probe_cells + 1]))
    zero_spend = (sensing.omega0 * pmf.psi[0][ks, 0]
                  + sensing.omega1 * pmf.psi[1][ks, 0])
    return low + float(np.dot(stationary[ks], zero_spend))


@dataclass(frozen=True)
class RateBreakdown:
    """Network totals: per-user rates, their sum and the interference side."""

    per_su: Tuple[PerSuRate, ...]
    sum_rate: float                  # bits/s
    per_su_interference: Tuple[float, ...]  # watts
    aic_lhs: float                   # watts
    aic_satisfied: bool
