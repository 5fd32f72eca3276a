"""Channel probing: pilot-based gain estimation and the feedback-gain law.

After sensing the band idle, the user sends pilots so the access point can
estimate the uplink channel and feed the gain estimate back.  The linear
MMSE estimate differs between a truly idle and a truly busy band because
residual primary power corrupts the pilots in the latter case.  Under
Rayleigh fading the fed-back gain is exponential under either state, so
what the policy ultimately sees is a two-component exponential mixture.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .model import SuProfile, SystemConfig
from .sensing import SensingStats

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class EstimationStats:
    """Means of estimated/error gains under each occupancy state.

    ``var_hat_*`` are the means of the estimated power gain, ``var_err_*``
    the means of the estimation-error power gain.
    """

    var_hat_h0: float          # E{estimated gain | idle}
    var_hat_h1: float          # E{estimated gain | busy}
    var_err_h0: float          # E{error gain | idle}
    var_err_h1: float          # E{error gain | busy}
    pu_interference_var: float # residual primary power at the AP [W]


def estimator_variances(config: SystemConfig, profile: SuProfile,
                        sensing: SensingStats) -> EstimationStats:
    """LMMSE channel-estimate statistics for one user.

    Only the pilot energy-bandwidth product matters, not how it is split
    between power and symbol count.  The estimator is designed against the
    average pilot corruption, so the sensed-idle busy weight enters the
    denominator under both true states.
    """
    gamma = profile.su_ap_var
    a = gamma * config.probe_energy_gain          # pilot SNR numerator term
    v = profile.ap_noise
    p = config.pu_power * config.pu_ap_channel_var  # primary power at the AP
    denom = (a + v + sensing.omega1 * p) ** 2
    var_hat_h0 = gamma * a * (a + v) / denom
    var_hat_h1 = gamma * a * (a + v + p) / denom
    return EstimationStats(
        var_hat_h0=var_hat_h0,
        var_hat_h1=var_hat_h1,
        var_err_h0=gamma - var_hat_h0,
        var_err_h1=gamma - var_hat_h1,
        pu_interference_var=p,
    )


@dataclass(frozen=True)
class GainDistribution:
    """Exponential-mixture law of the fed-back channel gain.

    ``weights`` are the sensed-idle occupancy weights, ``means`` the
    conditional means under an idle and a busy band.
    """

    weights: Tuple[float, float]
    means: Tuple[float, float]

    @classmethod
    def from_stats(cls, est: EstimationStats,
                   sensing: SensingStats) -> "GainDistribution":
        return cls(weights=(sensing.omega0, sensing.omega1),
                   means=(est.var_hat_h0, est.var_hat_h1))


def _exp_cdf(x: np.ndarray, mean: ArrayLike) -> np.ndarray:
    """Exponential CDF at x >= 0; ``mean`` broadcasts against ``x``.

    A mean <= 0 is the law degenerate at zero (no pilot energy): all
    mass below any x > 0.  At x = +inf a positive mean gives
    -expm1(-inf) = 1 exactly.
    """
    live = np.asarray(mean) > 0.0
    out = np.asarray(-x / np.where(live, mean, 1.0))
    np.expm1(out, out=out)
    np.negative(out, out=out)
    if live.all():
        return out
    return np.where(live, out, np.where(x > 0.0, 1.0, 0.0))


def gain_cdf(dist: GainDistribution, x: ArrayLike,
             hypothesis: Optional[int] = None) -> ArrayLike:
    """CDF of the fed-back gain; negative x gives 0, +inf gives 1.

    ``hypothesis`` picks the idle (0) or busy (1) conditional law;
    ``None`` evaluates the sensed-idle mixture.
    """
    arr = np.maximum(np.asarray(x, dtype=float), 0.0)
    if hypothesis is None:
        w0, w1 = dist.weights
        out = w0 * _exp_cdf(arr, dist.means[0]) + w1 * _exp_cdf(arr, dist.means[1])
    elif hypothesis in (0, 1):
        out = _exp_cdf(arr, dist.means[hypothesis])
    else:
        raise ValueError("hypothesis must be 0, 1 or None")
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def conditional_cdfs(dist: GainDistribution, x: np.ndarray,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """CDF of the fed-back gain under the idle and the busy law, in one pass.

    Returns ``(2,) + x.shape``, entry ``[eps]`` equal bit for bit to
    ``gain_cdf(dist, x, eps)``, in ``out`` when given.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty((2,) + x.shape)
    # -max(x, 0) / mean, as _exp_cdf divides, then -expm1 of it
    np.maximum(x, 0.0, out=out[0])
    np.negative(out[0], out=out[0])
    for eps in (1, 0):
        mean = dist.means[eps]
        np.divide(out[0], mean if mean > 0.0 else 1.0, out=out[eps])
    np.expm1(out, out=out)
    np.negative(out, out=out)
    for eps, mean in enumerate(dist.means):
        if not mean > 0.0:
            # degenerate at zero: all mass below every positive edge
            np.greater(x, 0.0, out=out[eps])
    return out
