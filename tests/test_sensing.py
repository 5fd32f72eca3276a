"""Detector tail probabilities, operating point and joint occupancy stats."""
import mpmath as mp
import numpy as np
import pytest

from ehcr.model import SuProfile, SystemConfig
from ehcr.sensing import (false_alarm_at_target_pd, gaussian_tail,
                          gaussian_tail_inv, joint_sensing_stats,
                          sensing_stats)

mp.mp.dps = 40


def _q_ref(x) -> float:
    """High-precision Gaussian upper tail."""
    return float(mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2)


def _q_inv_ref(p) -> float:
    return float(mp.findroot(lambda t: mp.erfc(t / mp.sqrt(2)) / 2
                             - mp.mpf(p), 0.0))


def test_gaussian_tail_matches_reference():
    for x in [-8.0, -2.5, -0.3, 0.0, 0.7, 3.0, 8.205, 20.0, 37.5]:
        assert gaussian_tail(x) == pytest.approx(_q_ref(x), rel=1e-12)


def test_gaussian_tail_inverse_roundtrip():
    ps = np.geomspace(1e-10, 0.5, 23)
    for p in np.concatenate([ps, 1.0 - ps]):
        assert gaussian_tail(gaussian_tail_inv(p)) == pytest.approx(p,
                                                                    abs=1e-12)
    # the operating-point quantile used throughout the detector math
    assert gaussian_tail_inv(0.85) == pytest.approx(_q_inv_ref("0.85"),
                                                    rel=1e-12)
    assert gaussian_tail_inv(0.85) == pytest.approx(-1.0364333894937898,
                                                    rel=1e-12)


def test_detector_guards():
    for samples, target_pd, snr in ((0, 0.85, 1.0), (10, 0.0, 1.0),
                                    (10, 1.0, 1.0), (10, 0.85, -0.5)):
        with pytest.raises(ValueError):
            false_alarm_at_target_pd(snr, samples, target_pd)


def test_blind_detector_false_alarm_equals_target():
    # zero received SNR: threshold inversion collapses to the target P_d
    for pd in [0.5, 0.85, 0.99]:
        assert false_alarm_at_target_pd(0.0, 100, pd) == pytest.approx(
            pd, rel=1e-12)


def test_false_alarm_at_reference_operating_point():
    got = false_alarm_at_target_pd(1.0, 100, 0.85)
    arg = mp.sqrt(3) * mp.mpf(_q_inv_ref("0.85")) + 10
    assert got == pytest.approx(float(mp.erfc(arg / mp.sqrt(2)) / 2),
                                rel=1e-9)
    assert got == pytest.approx(1.1544456337935e-16, rel=1e-10)


def test_false_alarm_monotone_in_samples_and_snr():
    by_n = [false_alarm_at_target_pd(1.0, n, 0.85)
            for n in [25, 50, 100, 200, 400]]
    assert all(b < a for a, b in zip(by_n, by_n[1:]))
    by_snr = [false_alarm_at_target_pd(s, 100, 0.85)
              for s in [0.25, 0.5, 1.0, 2.0]]
    assert all(b < a for a, b in zip(by_snr, by_snr[1:]))


def test_joint_stats_reference_arithmetic():
    s = joint_sensing_stats(0.7, 0.1, 0.85)
    assert s.beta0 == pytest.approx(0.63)
    assert s.beta1 == pytest.approx(0.045)
    assert s.pi_hat_idle == pytest.approx(0.675)
    assert s.pi_hat_busy == pytest.approx(0.325)
    assert s.omega1 == pytest.approx(0.045 / 0.675, rel=1e-14)
    assert s.omega0 + s.omega1 == pytest.approx(1.0, abs=1e-15)


def test_joint_stats_never_proceeding_guard():
    # detector always says busy: the idle/busy split is vacuous, not NaN
    s = joint_sensing_stats(0.4, 1.0, 1.0)
    assert s.pi_hat_idle == 0.0
    assert s.omega0 == 0.0 and s.omega1 == 0.0


def test_joint_stats_certain_idle_band():
    assert joint_sensing_stats(1.0, 0.2, 0.6).beta1 == 0.0


def test_ideal_sensing_kills_the_missed_busy_path():
    cfg = SystemConfig(ideal_sensing=True)
    s = sensing_stats(cfg, SuProfile())
    assert s.p_fa == 0.0 and s.p_d == 1.0
    assert s.beta1 == 0.0 and s.omega1 == 0.0
    assert s.pi_hat_idle == cfg.prior_idle


def test_default_operating_point(reference_model):
    s = sensing_stats(reference_model.config, reference_model.profiles[0])
    assert s.snr_nu == pytest.approx(1.0)
    assert s.p_fa == pytest.approx(1.1544456337935e-16, rel=1e-10)
    # false alarms are negligible here, so almost every idle slot is usable
    assert s.pi_hat_idle == pytest.approx(0.745, abs=1e-12)
    assert s.beta1 == pytest.approx(0.045, abs=1e-15)
