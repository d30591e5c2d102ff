"""NR frame structure at OFDM-symbol resolution.

Numerologies (3GPP TS 38.211) and the SS burst and CSI-RS
configurations, on a discrete grid whose unit is one OFDM symbol in time
and one resource block (RB) in frequency. Each is a config class whose
fields declare their domains (`errors.declare`), so a scenario file's
``numerology``, ``ss`` and ``csi`` keys are checked like every other.

Conventions
-----------
* Time is counted in OFDM symbols from the start of the first SS burst
  (symbol 0). A slot always carries 14 symbols (normal cyclic prefix).
* Frequency is counted in resource blocks of 12 subcarriers at the
  configured subcarrier spacing.
* An SS block spans 4 consecutive symbols and 240 subcarriers (20 RB).
  All blocks of a burst fit the first 5 ms of the burst period, as 3GPP
  requires, with no check needed: at most 64 blocks of 4 symbols at the
  narrowest FR2 spacing, 60 kHz (n = 2), span 64 * 4 * 250/14 us, about
  4.57 ms.
* A RACH opportunity spans 2 symbols over the whole carrier.

:mod:`procedures` places blocks, occasions and opportunities on this
grid in closed form; ``tests/reference.py`` builds the same grid event
by event as the oracle those closed forms are tested against.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError, check_domains, declare

SYMBOLS_PER_SLOT = 14
SS_BLOCK_SYMBOLS = 4
SS_BLOCK_SUBCARRIERS = 240
SS_BLOCK_RB = SS_BLOCK_SUBCARRIERS // 12
RACH_SYMBOLS = 2
MAX_SS_BLOCKS_PER_BURST = 64
SUBCARRIERS_PER_RB = 12
# the FR2 (mmWave) numerologies, 60 to 240 kHz: the model's only ones
NUMEROLOGIES = (2, 3, 4)

SS_PERIODS_MS = (5, 10, 20, 40, 80, 160)
CSI_PERIODS_SLOTS = (5, 10, 20, 40, 80, 160, 320, 640)
CSI_SYMBOL_COUNTS = (1, 2, 4)
CSI_MIN_RB = 50


@dataclass(frozen=True)
class Numerology:
    """One NR numerology (3GPP TS 38.211 section 4.2): its index ``n``,
    one of ``NUMEROLOGIES`` (of the indices 0..4, FR2 uses 2..4, 60 to
    240 kHz), and the subcarrier spacing and symbol timing it gives."""

    n: int = declare(int, 3, NUMEROLOGIES)

    def __post_init__(self) -> None:
        check_domains(self, "numerology.")

    @property
    def scs_khz(self) -> int:
        """Subcarrier spacing, 15 * 2**n kHz."""
        return 15 * (1 << self.n)

    @property
    def slot_ms(self) -> float:
        """Slot duration, 1 / 2**n ms."""
        return 1.0 / (1 << self.n)

    @property
    def symbol_us(self) -> float:
        """OFDM symbol duration in microseconds (slot / 14)."""
        return self.slot_ms * 1000.0 / SYMBOLS_PER_SLOT

    @property
    def symbol_ms(self) -> float:
        return self.symbol_us / 1000.0

    @property
    def symbols_per_ms(self) -> float:
        return (1 << self.n) * SYMBOLS_PER_SLOT


def carrier_resource_blocks(num: Numerology, bandwidth_hz: float) -> int:
    """Number of whole resource blocks fitting the carrier bandwidth."""
    if bandwidth_hz <= 0:
        raise ConfigurationError(f"bandwidth_hz={bandwidth_hz:g}: must be positive")
    return int(bandwidth_hz // (SUBCARRIERS_PER_RB * num.scs_khz * 1000.0))


@dataclass(frozen=True)
class SsBurstConfig:
    """SS burst configuration: ``n_ss`` blocks every ``t_ss_ms``."""

    n_ss: int = declare(int, 64, lo=1, hi=MAX_SS_BLOCKS_PER_BURST)
    t_ss_ms: float = declare(float, 20.0, SS_PERIODS_MS)

    def __post_init__(self) -> None:
        check_domains(self, "ss.")


@dataclass(frozen=True)
class CsiRsConfig:
    """CSI-RS resource configuration.

    ``delta_t_symbols``/``delta_f_rb`` place the occasion grid relative to
    the SS burst start in time and the carrier edge in frequency.
    """

    t_csi_slots: int = declare(int, 5, CSI_PERIODS_SLOTS)
    n_symbols: int = declare(int, 1, CSI_SYMBOL_COUNTS)
    bandwidth_rb: int = declare(int, 50, lo=CSI_MIN_RB)
    delta_t_symbols: int = declare(int, 0, lo=0)
    delta_f_rb: int = declare(int, 0, lo=0)

    def __post_init__(self) -> None:
        check_domains(self, "csi.")
        if self.delta_t_symbols >= self.period_symbols:
            raise ConfigurationError(
                f"csi.delta_t_symbols={self.delta_t_symbols}: must be in "
                f"0..{self.period_symbols - 1} for t_csi_slots={self.t_csi_slots}"
            )

    @property
    def period_symbols(self) -> int:
        """The occasion period in OFDM symbols."""
        return self.t_csi_slots * SYMBOLS_PER_SLOT
