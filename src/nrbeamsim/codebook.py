"""Antenna arrays, sweep geometry, beamforming gain and power draw.

The model ties codebook size to array size: an array of M elements steers
M beams that tile a 120 degree sector. What differs between beamforming
architectures is how many of those beams can be formed simultaneously,
which drives both the sweep length and the transceiver power draw:

* digital: one RF chain per element, all beams at once (sweep factor 1);
* analog: one RF chain behind phase shifters, one beam at a time
  (sweep factor M);
* hybrid: k_bf chains, k_bf beams per step (sweep factor ceil(M / k_bf)).

Power figures are first-order component sums: a digital chain costs
``c_chain_w`` per element; an analog front end costs a fixed ``p0_w``
plus ``c_ps_w`` per phase shifter; hybrid pays chains plus shifters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import ConfigurationError, check_domains, declare


# Longest exhaustive sweep a scenario may ask for: the chance that the
# sweep picks its aligned slot, `procedures.p_correct_beam`, sums the
# other S-1 slots in log space on a fixed quadrature grid that is
# accurate up to S = 4096.
MAX_SWEEP_LENGTH = 4096


class Architecture(str, Enum):
    ANALOG = "analog"
    DIGITAL = "digital"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class ArrayConfig:
    """One end's antenna array and beamforming architecture.

    Each field declares its domain (`errors.declare`); ``arch`` also takes
    an architecture's name. Errors name the bare key (``elements``,
    ``k_bf``); a scenario file prefixes the section (``gnb.`` or ``ue.``).
    """

    elements: int = declare(int, lo=1)
    arch: Architecture = declare(Architecture, Architecture.ANALOG)
    k_bf: Optional[int] = declare(int, None, lo=1)

    def __post_init__(self) -> None:
        check_domains(self)
        if self.arch is Architecture.HYBRID:
            if self.k_bf is None or self.k_bf > self.elements:
                raise ConfigurationError(
                    f"k_bf={self.k_bf!r}: a hybrid array needs k_bf in "
                    f"1..{self.elements}"
                )
        elif self.k_bf is not None:
            raise ConfigurationError(
                f"k_bf={self.k_bf}: only meaningful for hybrid arrays, got "
                f"arch={self.arch.value}"
            )


@dataclass(frozen=True)
class PowerModel:
    """Per-component power coefficients in watts.

    The defaults are calibrated against measured mmWave transceiver budgets
    (3-bit ADCs): one full digital chain per element, or a shared front end
    plus one phase shifter per element for analog combining.
    """

    c_chain_w: float = declare(float, 16.0896, lo=0)
    p0_w: float = declare(float, 16.0507, lo=0)
    c_ps_w: float = declare(float, 0.0585, lo=0)

    def __post_init__(self) -> None:
        check_domains(self, "power.")


def directions_per_step(array: ArrayConfig) -> int:
    """Directions one steering step covers: 1 analog, k_bf hybrid, M digital.

    Step ``i`` covers directions ``i*w .. (i+1)*w - 1`` for this width
    ``w``, so direction ``d`` is swept in step ``d // w``.
    """
    if array.arch is Architecture.DIGITAL:
        return array.elements
    if array.arch is Architecture.ANALOG:
        return 1
    assert array.k_bf is not None
    return array.k_bf


def sweep_factor(array: ArrayConfig) -> int:
    """Number of sequential steering steps this end needs for a full scan."""
    return -(-array.elements // directions_per_step(array))


def sweep_length(gnb: ArrayConfig, ue: ArrayConfig) -> int:
    """Total measurements for an exhaustive pair scan."""
    return sweep_factor(gnb) * sweep_factor(ue)


def beamforming_gain_db(array: ArrayConfig) -> float:
    """Array gain toward the steered direction, 10 log10(M)."""
    return 10.0 * math.log10(array.elements)


def power_consumption_w(array: ArrayConfig, pm: PowerModel = PowerModel()) -> float:
    """Transceiver power draw for one array."""
    m = array.elements
    if array.arch is Architecture.DIGITAL:
        return pm.c_chain_w * m
    if array.arch is Architecture.ANALOG:
        return pm.p0_w + pm.c_ps_w * m
    assert array.k_bf is not None
    return pm.c_chain_w * array.k_bf + pm.c_ps_w * m
