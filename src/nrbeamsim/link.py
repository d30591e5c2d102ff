"""mmWave link budget: path loss, SNR, beam measurements, misdetection.

Path loss follows the floating-intercept urban model
``PL(d) = alpha + 10 * beta * log10(d) + X`` with lognormal shadowing X.
A block measured through an aligned beam pair collects both endpoint
array gains; any misaligned pair is lumped into a flat side-lobe floor
relative to the aligned gain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .codebook import (
    ArrayConfig,
    SteeringState,
    beamforming_gain_db,
    per_beam_power_penalty_db,
)
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
    rssi_offset_db: float = 3.0
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


def path_loss_db(d_m: float, cp: ChannelParams, shadowing_db: float = 0.0) -> float:
    """Floating-intercept path loss at distance ``d_m`` in metres."""
    if d_m <= 0:
        raise DomainError(f"d_m={d_m:g}: distance must be positive")
    return cp.pl_intercept_db + 10.0 * cp.pl_exponent * math.log10(d_m) + shadowing_db


def pair_gain_db(
    gnb: ArrayConfig,
    ue: ArrayConfig,
    aligned: bool,
    cp: ChannelParams,
    sweeping: bool = False,
) -> float:
    """Combined array gain of one measured beam pair.

    Aligned pairs add both endpoint gains; a misaligned pair sits a flat
    ``side_lobe_floor_db`` below that. While a hybrid gNB sweeps, its
    transmit power is split across simultaneous beams.
    """
    g = beamforming_gain_db(gnb) + beamforming_gain_db(ue)
    if not aligned:
        g += cp.side_lobe_floor_db
    if sweeping:
        g -= per_beam_power_penalty_db(gnb)
    return g


def snr_db(
    pair_gain: float, d_m: float, cp: ChannelParams, shadowing_db: float = 0.0
) -> float:
    """Received SNR of one block through one beam pair."""
    rx = cp.tx_power_dbm + pair_gain - path_loss_db(d_m, cp, shadowing_db)
    return rx - noise_power_dbm(cp)


@dataclass(frozen=True)
class Measurement:
    """Per-block quantities the UE reports on."""

    rsrp_dbm: float
    rssi_dbm: float
    rsrq_db: float
    sinr_db: float


def measure(
    block_direction: tuple[SteeringState, SteeringState],
    true_best: tuple[int, int],
    gnb: ArrayConfig,
    ue: ArrayConfig,
    d_m: float,
    cp: ChannelParams,
    shadowing_db: float = 0.0,
    interference_dbm: float = -math.inf,
) -> Measurement:
    """Measure one SS block received through one steering pair.

    Alignment holds when the gNB step illuminates the geometrically best
    gNB beam and the UE step covers the best UE beam.
    """
    g_state, u_state = block_direction
    aligned = g_state.covers_direction(true_best[0]) and u_state.covers_direction(
        true_best[1]
    )
    gain = pair_gain_db(gnb, ue, aligned, cp, sweeping=True)
    rsrp = cp.tx_power_dbm + gain - path_loss_db(d_m, cp, shadowing_db)
    rssi = rsrp + cp.rssi_offset_db
    noise = noise_power_dbm(cp)
    total_floor = 10.0 * math.log10(
        10.0 ** (noise / 10.0) + 10.0 ** (interference_dbm / 10.0)
    )
    return Measurement(
        rsrp_dbm=rsrp,
        rssi_dbm=rssi,
        rsrq_db=-cp.rssi_offset_db,
        sinr_db=rsrp - total_floor,
    )


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
    r = cp.cell_radius_m * np.sqrt(rng.uniform(0.0, 1.0, size=n_drops))
    r = np.maximum(r, MIN_DISTANCE_M)
    shadow = rng.normal(0.0, cp.shadowing_sigma_db, size=n_drops)
    gain = beamforming_gain_db(gnb) + beamforming_gain_db(ue)
    pl = cp.pl_intercept_db + 10.0 * cp.pl_exponent * np.log10(r) + shadow
    snr = cp.tx_power_dbm + gain - pl - noise_power_dbm(cp)
    return float(np.mean(snr < cp.detection_threshold_db))
