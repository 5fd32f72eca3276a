"""Pilot-based LMMSE gain estimation and the exponential-mixture feedback law."""
import math

import numpy as np
import pytest

from ehcr.model import SuProfile, SystemConfig
from ehcr.probing import (GainDistribution, conditional_cdfs,
                          estimator_variances, gain_cdf)
from ehcr.sensing import joint_sensing_stats, sensing_stats


def test_estimate_and_error_share_the_channel_gain():
    cfg = SystemConfig()
    prof = SuProfile()
    est = estimator_variances(cfg, prof, sensing_stats(cfg, prof))
    gamma = prof.su_ap_var
    assert abs(est.var_hat_h0 + est.var_err_h0 - gamma) < 1e-14
    assert abs(est.var_hat_h1 + est.var_err_h1 - gamma) < 1e-14


def test_reference_estimator_value():
    # pilot energy-bandwidth product of 10 with a known sensed-idle split
    cfg = SystemConfig(energy_unit=1e-4)
    sensing = joint_sensing_stats(0.7, 0.1, 0.85)  # omega1 = 1/15
    est = estimator_variances(cfg, SuProfile(), sensing)
    assert cfg.probe_energy_gain == pytest.approx(10.0)
    assert est.var_hat_h0 == pytest.approx(840.0 / (21.0 + 1.0 / 15.0) ** 2,
                                           rel=1e-12)
    assert est.var_hat_h0 == pytest.approx(1.8925, abs=5e-4)
    # pilots on a busy band carry the residual primary power on top
    assert est.var_hat_h1 > est.var_hat_h0


def test_default_config_estimator_pins():
    cfg = SystemConfig()
    prof = SuProfile()
    est = estimator_variances(cfg, prof, sensing_stats(cfg, prof))
    assert est.var_hat_h0 == pytest.approx(1.9988798205601286, rel=1e-12)
    assert est.var_hat_h1 == pytest.approx(1.9998787610001885, rel=1e-12)
    assert est.pu_interference_var == 1.0


def test_ideal_sensing_reduces_to_classical_pilot_estimator():
    cfg = SystemConfig(ideal_sensing=True)
    prof = SuProfile()
    est = estimator_variances(cfg, prof, sensing_stats(cfg, prof))
    gamma = prof.su_ap_var
    a = gamma * cfg.probe_energy_gain
    assert est.var_hat_h0 == pytest.approx(gamma * a / (a + prof.ap_noise),
                                           rel=1e-14)


def test_no_primary_power_degenerates_the_mixture():
    cfg = SystemConfig(pu_power=0.0)
    est = estimator_variances(cfg, SuProfile(),
                              joint_sensing_stats(0.7, 0.1, 0.85))
    assert est.var_hat_h0 == est.var_hat_h1
    assert est.pu_interference_var == 0.0


def test_huge_pilot_energy_estimates_perfectly():
    cfg = SystemConfig(energy_unit=1e6)
    prof = SuProfile()
    est = estimator_variances(cfg, prof, sensing_stats(cfg, prof))
    assert est.var_hat_h0 == pytest.approx(prof.su_ap_var, rel=1e-6)
    assert est.var_err_h0 == pytest.approx(0.0, abs=1e-5)


def test_gain_cdf_basics():
    d = GainDistribution(weights=(0.9, 0.1), means=(2.0, 1.0))
    assert gain_cdf(d, 0.0) == 0.0
    assert gain_cdf(d, -3.0) == 0.0
    assert gain_cdf(d, np.inf) == 1.0
    assert gain_cdf(d, 2.0, hypothesis=0) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-14)
    mixture = 0.9 * (1.0 - math.exp(-0.5)) + 0.1 * (1.0 - math.exp(-1.0))
    assert gain_cdf(d, 1.0) == pytest.approx(mixture, rel=1e-14)
    assert gain_cdf(d, 1.0) == pytest.approx(0.4173, abs=5e-5)


def test_gain_cdf_monotone():
    d = GainDistribution(weights=(0.7, 0.3), means=(2.5, 0.4))
    vals = np.asarray(gain_cdf(d, np.linspace(0.0, 20.0, 401)))
    assert np.all(np.diff(vals) >= 0.0)


def test_gain_cdf_matches_mixture_density():
    """Finite differences of the CDF recover the mixture pdf."""
    d = GainDistribution(weights=(0.6, 0.4), means=(1.7, 0.9))
    xs = np.linspace(0.05, 6.0, 41)
    h = 1e-6
    deriv = (np.asarray(gain_cdf(d, xs + h))
             - np.asarray(gain_cdf(d, xs - h))) / (2.0 * h)
    pdf = 0.6 / 1.7 * np.exp(-xs / 1.7) + 0.4 / 0.9 * np.exp(-xs / 0.9)
    np.testing.assert_allclose(deriv, pdf, atol=1e-6)


def test_zero_pilot_energy_collapses_the_gain_at_zero():
    d = GainDistribution(weights=(1.0, 0.0), means=(0.0, 0.0))
    assert gain_cdf(d, 1e-12) == 1.0
    assert gain_cdf(d, 0.0) == 0.0


def test_conditional_cdfs_equal_gain_cdf_bitwise():
    xs = np.array([[-1.0, 0.0, 1e-300, 0.3, 2.0, 45.0],
                   [7e2, 1e5, np.inf, 0.0, 1.7, 1e-9]])
    for means in ((1.7, 0.9), (2.0, 0.0), (0.0, 0.0), (1e-3, 1e3)):
        d = GainDistribution(weights=(0.6, 0.4), means=means)
        both = conditional_cdfs(d, xs)
        assert both.shape == (2,) + xs.shape
        for eps in (0, 1):
            np.testing.assert_array_equal(both[eps], gain_cdf(d, xs, eps))


def test_hypothesis_argument_is_checked():
    d = GainDistribution(weights=(1.0, 0.0), means=(1.0, 1.0))
    with pytest.raises(ValueError):
        gain_cdf(d, 1.0, hypothesis=3)
