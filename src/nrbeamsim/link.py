"""mmWave link budget: path loss, SNR, UE drops, misdetection.

Path loss follows the floating-intercept urban model
``PL(d) = alpha + 10 * beta * log10(d) + X`` with lognormal shadowing X.
A block measured through an aligned beam pair collects both endpoint
array gains; any misaligned pair is lumped into a flat side-lobe floor
relative to the aligned gain, which only the sweep's choice of winner
sees. ``misdetection_probability`` is the model's one misdetection
definition: a report's detection accuracy is one minus it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .codebook import ArrayConfig, beamforming_gain_db
from .errors import ConfigurationError, DomainError

THERMAL_NOISE_DBM_PER_HZ = -174.0
MIN_DISTANCE_M = 0.1


@dataclass(frozen=True)
class ChannelParams:
    """Propagation, hardware and deployment constants.

    Defaults describe a 28 GHz urban street canyon in non line of sight,
    a 400 MHz carrier and a cell of 150 m radius.
    """

    pl_intercept_db: float = 72.0
    pl_exponent: float = 2.92
    shadowing_sigma_db: float = 8.7
    tx_power_dbm: float = 30.0
    noise_figure_db: float = 5.0
    bandwidth_hz: float = 400e6
    detection_threshold_db: float = -5.0
    cell_radius_m: float = 150.0
    side_lobe_floor_db: float = -10.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"channel.{f.name}={value!r}: must be finite"
                )
        if self.pl_exponent <= 0:
            raise ConfigurationError(
                f"channel.pl_exponent={self.pl_exponent:g}: must be positive"
            )
        if self.shadowing_sigma_db < 0:
            raise ConfigurationError(
                f"channel.shadowing_sigma_db={self.shadowing_sigma_db:g}: "
                "must be non-negative"
            )
        if self.bandwidth_hz <= 0:
            raise ConfigurationError(
                f"channel.bandwidth_hz={self.bandwidth_hz:g}: must be positive"
            )
        if self.cell_radius_m <= 0:
            raise ConfigurationError(
                f"channel.cell_radius_m={self.cell_radius_m:g}: must be positive"
            )
        if self.side_lobe_floor_db > 0:
            raise ConfigurationError(
                f"channel.side_lobe_floor_db={self.side_lobe_floor_db:g}: "
                "must not exceed 0 dB"
            )


def noise_power_dbm(cp: ChannelParams) -> float:
    """Thermal noise plus receiver noise figure over the full bandwidth."""
    return (
        THERMAL_NOISE_DBM_PER_HZ
        + 10.0 * math.log10(cp.bandwidth_hz)
        + cp.noise_figure_db
    )


def path_loss_db(d_m, cp: ChannelParams, shadowing_db=0.0):
    """Floating-intercept path loss at distances ``d_m`` in metres."""
    if np.any(np.asarray(d_m) <= 0):
        raise DomainError("path loss needs positive distances")
    return cp.pl_intercept_db + 10.0 * cp.pl_exponent * np.log10(d_m) + shadowing_db


def mean_snr_db(cp: ChannelParams, gain_db: float, d_m):
    """Received SNR before shadowing through a pair of combined gain ``gain_db``."""
    return cp.tx_power_dbm + gain_db - noise_power_dbm(cp) - path_loss_db(d_m, cp)


def draw_disk_distances(cp: ChannelParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """Distances of ``n`` UEs dropped uniformly over the cell disk."""
    r = cp.cell_radius_m * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    return np.maximum(r, MIN_DISTANCE_M)


def misdetection_probability(
    gnb: ArrayConfig,
    ue: ArrayConfig,
    cp: ChannelParams,
    n_drops: int = 10_000,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
) -> float:
    """Probability that the best beam pair still falls below threshold.

    UEs are dropped uniformly over the cell disk; each drop evaluates the
    fully aligned pair (both endpoint gains, full transmit power) against
    the detection threshold, under independent lognormal shadowing.
    """
    if n_drops < 1:
        raise DomainError(f"n_drops={n_drops}: need at least one drop")
    rng = np.random.default_rng(seed)
    r = draw_disk_distances(cp, rng, n_drops)
    shadow = rng.normal(0.0, cp.shadowing_sigma_db, size=n_drops)
    gain = beamforming_gain_db(gnb) + beamforming_gain_db(ue)
    snr = mean_snr_db(cp, gain, r) - shadow
    return float(np.mean(snr < cp.detection_threshold_db))
