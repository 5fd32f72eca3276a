"""System description and validation for the slotted energy-harvesting uplink.

A secondary network of battery-powered users shares a licensed band with a
primary user.  Every frame is split into a spectrum-sensing phase, a channel
probing phase and a data phase; the battery holds an integer number of energy
cells that are earned by harvesting and spent on probing and transmission.
This module owns the configuration records, the derived per-frame constants
and the harvested-cell distribution.  Everything downstream (sensing,
probing, policy, battery chain, rate) consumes the validated model built
here.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .special import log_factorial


class ValidationError(ValueError):
    """Raised by :func:`validate`; carries every violated constraint."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class SystemConfig:
    """Network-wide constants shared by all secondary users."""

    slot_duration: float = 10e-3       # frame length Tf [s]
    sensing_duration: float = 1e-3     # sensing phase tau_s [s]
    probing_duration: float = 0.1e-3   # probing phase tau_t [s]
    sampling_frequency: float = 100e3  # detector/probe sample rate fs [Hz]
    bandwidth: float = 10e3            # data bandwidth W [Hz]
    energy_unit: float = 0.01          # size of one battery cell e_u [J]
    battery_cells: int = 80            # battery capacity K [cells]
    probe_cells: int = 1               # cells burned per probe alpha_t
    prior_idle: float = 0.7            # Pr{band idle}
    target_detection: float = 0.85     # detector operating point Pr{detect | busy}
    pu_power: float = 1.0              # primary transmit power [W]
    pu_ap_channel_var: float = 1.0     # variance of the primary->AP channel
    interference_cap: float = math.inf # average interference budget at the primary [W]
    ideal_sensing: bool = False        # error-free detector: no false alarms, no misses

    # ---- derived per-frame constants -------------------------------------
    @property
    def data_duration(self) -> float:
        """Data phase length tau_d = Tf - tau_s - tau_t [s]."""
        return self.slot_duration - self.sensing_duration - self.probing_duration

    @property
    def sensing_samples(self) -> int:
        """Detector sample count over the sensing phase."""
        return int(round(self.sensing_duration * self.sampling_frequency))

    @property
    def unit_power(self) -> float:
        """Power of one cell spread over the data phase, e_u / tau_d [W]."""
        return self.energy_unit / self.data_duration

    @property
    def probe_power(self) -> float:
        """Pilot power, alpha_t cells spread over the probing phase [W]."""
        return self.probe_cells * self.energy_unit / self.probing_duration

    @property
    def data_fraction(self) -> float:
        """Share of the frame spent on data, tau_d / Tf."""
        return self.data_duration / self.slot_duration

    @property
    def probe_fraction(self) -> float:
        """Share of the frame spent on probing, tau_t / Tf."""
        return self.probing_duration / self.slot_duration

    @property
    def probe_energy_gain(self) -> float:
        """Pilot energy-bandwidth product alpha_t * e_u * fs [J*Hz]."""
        return self.probe_cells * self.energy_unit * self.sampling_frequency


@dataclass(frozen=True)
class SuProfile:
    """Per-user channel statistics and harvesting intensity."""

    su_ap_var: float = 2.0       # mean power gain of the SU -> AP channel
    pu_su_var: float = 1.0       # mean power gain of the primary -> SU channel
    su_pu_var: float = 1.0       # mean power gain of the SU -> primary channel
    sensing_noise: float = 1.0   # detector noise power [W]
    ap_noise: float = 1.0        # AP receive noise power [W]
    harvest_rate: float = 15.0   # mean harvested cells per frame


@dataclass(frozen=True)
class PolicyParams:
    """Knobs of the threshold transmission policy."""

    omega: float = 0.35  # aggressiveness, fraction of the battery in play
    theta: float = 0.2   # channel-quality cutoff below which the user stays quiet


@dataclass(frozen=True)
class NetworkModel:
    """A validated configuration bundle: system constants plus one profile per user."""

    config: SystemConfig
    profiles: Tuple[SuProfile, ...]

    @property
    def n_users(self) -> int:
        return len(self.profiles)


def _nonfinite(record: object) -> List[str]:
    """Names of the float fields of ``record`` that hold NaN or +-inf."""
    return [f.name for f in fields(record)
            if isinstance(getattr(record, f.name), float)
            and not math.isfinite(getattr(record, f.name))]


def _is_integer(value: object) -> bool:
    """Python and numpy integers; a bool is a flag, not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# Fields with a plain lower bound, each reported as "<field> must be <bound>".
_BOUNDS = (("slot_duration", "> 0"), ("sensing_duration", "> 0"),
           ("probing_duration", "> 0"), ("sampling_frequency", "> 0"),
           ("bandwidth", "> 0"), ("energy_unit", "> 0"),
           ("pu_power", ">= 0"), ("pu_ap_channel_var", ">= 0"))


def _check_config(cfg: SystemConfig, errors: List[str]) -> None:
    if not isinstance(cfg.ideal_sensing, bool):
        errors.append("ideal_sensing must be a bool")
    # interference_cap = inf disables the cap; its own check below
    # rejects NaN and -inf.  The range checks compare finite numbers, so
    # a config with a non-finite field reports only those fields.
    nonfinite = [name for name in _nonfinite(cfg)
                 if name != "interference_cap"]
    errors.extend(f"{name} must be finite" for name in nonfinite)
    if nonfinite:
        return
    for name, bound in _BOUNDS:
        value = getattr(cfg, name)
        if not (value > 0 if bound == "> 0" else value >= 0):
            errors.append(f"{name} must be {bound}")
    if cfg.data_duration <= 0:
        errors.append("tau_d <= 0: slot_duration must exceed "
                      "sensing_duration + probing_duration")
    if not _is_integer(cfg.battery_cells) or cfg.battery_cells < 1:
        errors.append("battery_cells must be an integer >= 1")
    if not _is_integer(cfg.probe_cells) or not 0 <= cfg.probe_cells < max(cfg.battery_cells, 1):
        errors.append("probe_cells must be an integer in [0, battery_cells)")
    if not 0.0 < cfg.prior_idle < 1.0:
        errors.append("prior_idle must lie in (0, 1)")
    if not 0.0 < cfg.target_detection < 1.0:
        errors.append("target_detection must lie in (0, 1)")
    if not cfg.interference_cap > 0:
        errors.append("interference_cap must be > 0 (math.inf disables it)")


def _check_profile(profile: SuProfile, tag: str, errors: List[str]) -> None:
    nonfinite = _nonfinite(profile)
    for f in fields(profile):
        if f.name in nonfinite:
            errors.append(f"{tag}: {f.name} must be finite")
        elif not getattr(profile, f.name) > 0:
            errors.append(f"{tag}: {f.name} must be > 0")


def validate(config: SystemConfig, profiles: Iterable[SuProfile]) -> NetworkModel:
    """Check every invariant and return the model; raise with the full list otherwise.

    All violations are collected before raising so a bad config is reported
    in one shot.  Non-fatal oddities (sampling grid misalignment) come out
    as warnings.
    """
    profiles = tuple(profiles)
    errors: List[str] = []
    _check_config(config, errors)
    if not profiles:
        errors.append("at least one user profile is required")
    for i, profile in enumerate(profiles, start=1):
        _check_profile(profile, f"profile {i}", errors)
    if errors:
        raise ValidationError(errors)

    for label, tau in (("sensing", config.sensing_duration),
                       ("probing", config.probing_duration),
                       ("data", config.data_duration)):
        n_exact = tau * config.sampling_frequency
        if n_exact < 1.0:
            warnings.warn(f"{label} phase spans less than one sample "
                          f"({n_exact:.3g}) at this sampling_frequency", stacklevel=2)
        elif abs(n_exact - round(n_exact)) > 0.01:
            warnings.warn(f"{label} phase spans {n_exact:.3f} samples; "
                          "count rounded to nearest integer", stacklevel=2)
    return NetworkModel(config=config, profiles=profiles)


def harvest_pmf(rate: float, cells: int) -> np.ndarray:
    """Distribution of cells gained per frame on a battery with `cells` capacity.

    Arrivals are Poisson with the given mean; the top entry absorbs the
    whole upper tail because any excess beyond capacity is lost.  Computed
    in log space so large rates stay accurate.
    """
    if rate <= 0:
        raise ValueError("harvest rate must be > 0")
    if cells < 1:
        raise ValueError("cells must be >= 1")
    r = np.arange(cells)
    log_fact = np.array([log_factorial(n) for n in range(cells)])
    body = np.exp(-rate + r * math.log(rate) - log_fact)
    tail = max(1.0 - float(body.sum()), 0.0)
    return np.append(body, tail)
