"""Energy-detector spectrum sensing and the joint idle/busy bookkeeping.

The detector integrates received power over the sensing phase and compares
it to a threshold.  Under the usual central-limit approximation both error
probabilities are Gaussian tail values; here the threshold is pinned to a
target detection probability, which fixes the false-alarm rate as a
function of the received primary SNR and the sample count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import SuProfile, SystemConfig
from .special import ndtr, ndtri


def gaussian_tail(x: float) -> float:
    """Upper tail of the standard normal, Pr{N(0,1) > x}."""
    return ndtr(-x)


def gaussian_tail_inv(p: float) -> float:
    """Inverse of :func:`gaussian_tail` on (0, 1)."""
    return -ndtri(p)


def false_alarm_at_target_pd(snr: float, samples: int, target_pd: float) -> float:
    """False-alarm probability when the threshold is set for a wanted P_d.

    Eliminating the threshold between the two detector curves gives
    Q(sqrt(2*snr+1) * Qinv(target_pd) + snr * sqrt(samples)).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0.0 < target_pd < 1.0:
        raise ValueError("target_pd must lie in (0, 1)")
    if snr < 0:
        raise ValueError("snr must be >= 0")
    arg = (math.sqrt(2.0 * snr + 1.0) * gaussian_tail_inv(target_pd)
           + snr * math.sqrt(samples))
    return gaussian_tail(arg)


@dataclass(frozen=True)
class SensingStats:
    """Joint occupancy/decision probabilities driving everything downstream.

    beta0 / beta1 are the probabilities of {idle, sensed idle} and
    {busy, sensed idle}; their sum pi_hat_idle is the chance the user
    proceeds past sensing at all, and omega0 / omega1 split that event
    between the two true states of the band.
    """

    p_fa: float           # Pr{sensed busy | idle}
    p_d: float            # Pr{sensed busy | busy}
    pi_hat_idle: float    # Pr{sensed idle}
    pi_hat_busy: float    # Pr{sensed busy}
    beta0: float          # Pr{idle, sensed idle}
    beta1: float          # Pr{busy, sensed idle}
    omega0: float         # Pr{idle | sensed idle}
    omega1: float         # Pr{busy | sensed idle}
    snr_nu: float         # primary SNR at the detector


def joint_sensing_stats(prior_idle: float, p_fa: float, p_d: float,
                        snr: float = math.nan) -> SensingStats:
    """Combine occupancy prior and detector operating point into joint stats."""
    beta0 = prior_idle * (1.0 - p_fa)
    beta1 = (1.0 - prior_idle) * (1.0 - p_d)
    pi_hat_idle = beta0 + beta1
    if pi_hat_idle > 0.0:
        omega0 = beta0 / pi_hat_idle
        omega1 = beta1 / pi_hat_idle
    else:
        # the user never proceeds past sensing; the split is vacuous
        omega0 = omega1 = 0.0
    return SensingStats(p_fa=p_fa, p_d=p_d,
                        pi_hat_idle=pi_hat_idle, pi_hat_busy=1.0 - pi_hat_idle,
                        beta0=beta0, beta1=beta1,
                        omega0=omega0, omega1=omega1, snr_nu=snr)


def sensing_stats(config: SystemConfig, profile: SuProfile) -> SensingStats:
    """Sensing statistics for one user under the target-P_d operating point.

    With ``config.ideal_sensing`` the detector is error-free (no false
    alarms, no misses), which zeroes the busy-but-sensed-idle path entirely.
    """
    snr = config.pu_power * profile.pu_su_var / profile.sensing_noise
    if config.ideal_sensing:
        return joint_sensing_stats(config.prior_idle, 0.0, 1.0, snr)
    p_fa = false_alarm_at_target_pd(snr, config.sensing_samples,
                                    config.target_detection)
    return joint_sensing_stats(config.prior_idle, p_fa,
                               config.target_detection, snr)
