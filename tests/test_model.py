"""Configuration records, derived frame constants, validation, harvest law."""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from ehcr.model import (SuProfile, SystemConfig, ValidationError, harvest_pmf,
                        validate)


def test_default_derived_constants():
    cfg = SystemConfig()
    assert cfg.data_duration == pytest.approx(8.9e-3)
    assert cfg.sensing_samples == 100
    assert cfg.unit_power == pytest.approx(0.01 / 8.9e-3)  # ~1.1236 W
    assert cfg.probe_power == pytest.approx(100.0)
    assert cfg.data_fraction == pytest.approx(0.89)
    assert cfg.probe_fraction == pytest.approx(0.01)
    assert cfg.probe_energy_gain == pytest.approx(1000.0)


def test_validate_accepts_defaults():
    model = validate(SystemConfig(), [SuProfile()])
    assert model.n_users == 1
    assert model.config.battery_cells == 80


def test_validate_takes_numpy_integers_and_rejects_bools():
    model = validate(SystemConfig(battery_cells=np.int64(80),
                                  probe_cells=np.int32(2)), [SuProfile()])
    assert model.config.battery_cells == 80
    for field in ("battery_cells", "probe_cells"):
        with pytest.raises(ValidationError, match=field):
            validate(SystemConfig(**{field: True}), [SuProfile()])


@pytest.mark.parametrize("field,value,message", [
    ("slot_duration", -10e-3, "slot_duration must be > 0"),
    ("sensing_duration", 0.0, "sensing_duration must be > 0"),
    ("probing_duration", -0.1e-3, "probing_duration must be > 0"),
    ("sampling_frequency", 0.0, "sampling_frequency must be > 0"),
    ("bandwidth", -10e3, "bandwidth must be > 0"),
    ("energy_unit", 0.0, "energy_unit must be > 0"),
    ("pu_power", -1.0, "pu_power must be >= 0"),
    ("pu_ap_channel_var", -0.5, "pu_ap_channel_var must be >= 0"),
    ("interference_cap", 0.0,
     "interference_cap must be > 0 (math.inf disables it)"),
])
def test_out_of_range_fields_are_reported_by_name(field, value, message):
    """Each range check's message, word for word: the CLI finds a
    field's line from the first word."""
    config = dataclasses.replace(SystemConfig(), **{field: value})
    with pytest.raises(ValidationError) as err:
        validate(config, [SuProfile()])
    # a bad duration can also leave no data phase
    assert [msg for msg in err.value.errors
            if not msg.startswith("tau_d")] == [message]


def test_zero_primary_power_and_variance_are_allowed():
    validate(SystemConfig(pu_power=0.0, pu_ap_channel_var=0.0), [SuProfile()])


@pytest.mark.parametrize("value", [1, 0, 1.0, "yes", None, np.bool_(True)])
def test_validate_takes_only_a_bool_for_ideal_sensing(value):
    with pytest.raises(ValidationError) as err:
        validate(SystemConfig(ideal_sensing=value), [SuProfile()])
    assert err.value.errors == ["ideal_sensing must be a bool"]


def test_validate_rejects_overlong_sensing_phase():
    cfg = SystemConfig(sensing_duration=10e-3)  # fills the whole frame
    with pytest.raises(ValidationError) as err:
        validate(cfg, [SuProfile()])
    assert any("tau_d <= 0" in msg for msg in err.value.errors)


def test_validate_collects_every_violation():
    """A bad config reports all problems in one raise, not just the first."""
    cfg = SystemConfig(energy_unit=0.0, prior_idle=1.5, battery_cells=0)
    with pytest.raises(ValidationError) as err:
        validate(cfg, [SuProfile(harvest_rate=-2.0)])
    messages = err.value.errors
    assert len(messages) >= 4
    for fragment in ("energy_unit", "prior_idle", "battery_cells",
                     "harvest_rate"):
        assert any(fragment in msg for msg in messages)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("record,field", [
    *((SystemConfig, f.name) for f in dataclasses.fields(SystemConfig)),
    *((SuProfile, f.name) for f in dataclasses.fields(SuProfile))])
def test_validate_rejects_non_finite_fields(record, field, value):
    """NaN and +-inf fail with the field's name, never past validate."""
    config, profile = SystemConfig(), SuProfile()
    if record is SystemConfig:
        config = dataclasses.replace(config, **{field: value})
    else:
        profile = dataclasses.replace(profile, **{field: value})
    if (field, value) == ("interference_cap", math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate(config, [profile])     # an infinite cap disables it
        return
    with pytest.raises(ValidationError) as err:
        validate(config, [profile])
    prefix = field if record is SystemConfig else f"profile 1: {field}"
    assert err.value.errors
    assert all(msg.startswith(prefix) for msg in err.value.errors)


def test_validate_requires_a_profile():
    with pytest.raises(ValidationError) as err:
        validate(SystemConfig(), [])
    assert any("at least one user" in msg for msg in err.value.errors)


def test_validate_warns_on_subsample_phase():
    # probing phase covers only 0.3 samples at 3 kHz (and the data phase
    # lands off the sample grid, which warns separately)
    with pytest.warns(UserWarning) as caught:
        validate(SystemConfig(sampling_frequency=3e3), [SuProfile()])
    assert any("less than one sample" in str(w.message) for w in caught)


def test_validate_warns_on_sample_misalignment():
    cfg = SystemConfig(sensing_duration=1.234e-3, sampling_frequency=1e4)
    with pytest.warns(UserWarning, match="rounded to nearest"):
        validate(cfg, [SuProfile()])


def test_harvest_pmf_matches_poisson_with_absorbed_tail():
    for rate, cells in [(0.3, 5), (15.0, 80), (40.0, 25), (99.0, 500)]:
        pmf = harvest_pmf(rate, cells)
        assert pmf.shape == (cells + 1,)
        body = stats.poisson.pmf(np.arange(cells), rate)
        np.testing.assert_allclose(pmf[:-1], body, rtol=1e-12)
        assert pmf[-1] == pytest.approx(stats.poisson.sf(cells - 1, rate),
                                        rel=1e-9, abs=1e-15)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_harvest_pmf_peak_value():
    # Poisson pmf at its mean, checked against an extended-precision value
    assert harvest_pmf(15.0, 80)[15] == pytest.approx(0.102435866665,
                                                      abs=1e-11)


def test_harvest_pmf_small_rate_degenerates():
    pmf = harvest_pmf(1e-12, 4)
    assert pmf[0] == pytest.approx(1.0, abs=1e-11)
    assert pmf[1:].sum() < 1e-11


def test_harvest_pmf_normalized_over_parameter_sweep():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rate = float(rng.uniform(0.01, 100.0))
        cells = int(rng.integers(1, 501))
        pmf = harvest_pmf(rate, cells)
        assert np.all(pmf >= 0.0)
        assert abs(pmf.sum() - 1.0) < 1e-12


def test_harvest_pmf_guards():
    with pytest.raises(ValueError):
        harvest_pmf(0.0, 10)
    with pytest.raises(ValueError):
        harvest_pmf(2.0, 0)
