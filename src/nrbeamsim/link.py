"""mmWave link budget: path loss, SNR, misdetection, normal tails.

Path loss follows the floating-intercept urban model
``PL(d) = alpha + 10 * beta * log10(d) + X`` with lognormal shadowing X.
A block measured through an aligned beam pair collects both endpoint
array gains; any misaligned pair is lumped into a flat side-lobe floor
relative to the aligned gain, which only the sweep's choice of winner
sees. ``misdetection_probability`` is the model's one misdetection
definition, in closed form over a UE dropped uniformly on the cell
disk: a report's detection accuracy is one minus it.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .codebook import ArrayConfig, beamforming_gain_db
from .errors import DomainError, check_domains, declare

THERMAL_NOISE_DBM_PER_HZ = -174.0
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ChannelParams:
    """Propagation, hardware and deployment constants.

    Defaults describe a 28 GHz urban street canyon in non line of sight,
    a 400 MHz carrier and a cell of 150 m radius.
    """

    pl_intercept_db: float = declare(float, 72.0)
    pl_exponent: float = declare(float, 2.92, lo=0, lo_open=True)
    shadowing_sigma_db: float = declare(float, 8.7, lo=0)
    tx_power_dbm: float = declare(float, 30.0)
    noise_figure_db: float = declare(float, 5.0)
    bandwidth_hz: float = declare(float, 400e6, lo=0, lo_open=True)
    detection_threshold_db: float = declare(float, -5.0)
    cell_radius_m: float = declare(float, 150.0, lo=0, lo_open=True)
    side_lobe_floor_db: float = declare(float, -10.0, hi=0)

    def __post_init__(self) -> None:
        check_domains(self, "channel.")


def noise_power_dbm(cp: ChannelParams) -> float:
    """Thermal noise plus receiver noise figure over the full bandwidth."""
    return (
        THERMAL_NOISE_DBM_PER_HZ
        + 10.0 * math.log10(cp.bandwidth_hz)
        + cp.noise_figure_db
    )


def path_loss_db(d_m: float, cp: ChannelParams) -> float:
    """Floating-intercept path loss at distance ``d_m`` in metres."""
    if not 0.0 < d_m < math.inf:
        raise DomainError(f"d_m={d_m!r}: path loss needs a positive, finite distance")
    return cp.pl_intercept_db + 10.0 * cp.pl_exponent * math.log10(d_m)


def mean_snr_db(cp: ChannelParams, gain_db: float, d_m: float) -> float:
    """Received SNR before shadowing through a pair of combined gain ``gain_db``."""
    return cp.tx_power_dbm + gain_db - noise_power_dbm(cp) - path_loss_db(d_m, cp)


# from here on `_log_erfcx` sums an asymptotic series, whose first omitted
# term is below 2e-15
ERFCX_SERIES_FROM = 26.0


def erfcx_series(x):
    """exp(x^2) erfc(x) sqrt(pi) x for x >= ``ERFCX_SERIES_FROM``, by the
    asymptotic series; the same arithmetic on a float or an array."""
    t = 0.5 / (x * x)
    return 1.0 - t * (
        1.0 - 3.0 * t * (1.0 - 5.0 * t * (1.0 - 7.0 * t * (1.0 - 9.0 * t)))
    )


def _log_erfcx(x: float) -> float:
    """log(exp(x^2) erfc(x)) for x >= 0, also where erfc(x) underflows."""
    if x < ERFCX_SERIES_FROM:
        return x * x + math.log(math.erfc(x))
    return math.log(erfcx_series(x)) - math.log(x * math.sqrt(math.pi))


def edge_margin_db(gnb: ArrayConfig, ue: ArrayConfig, cp: ChannelParams) -> float:
    """Mean SNR of the fully aligned pair at the cell edge, in dB above the
    detection threshold. A scenario is refused where it is not finite.

    The refusal names the keys of every term of the sum that is not
    finite, or large enough that the sum can overflow through it, and is
    the only report of the overflow.
    """
    gain = beamforming_gain_db(gnb) + beamforming_gain_db(ue)
    margin = mean_snr_db(cp, gain, cp.cell_radius_m) - cp.detection_threshold_db
    if math.isfinite(margin):
        return margin
    # Python floats overflow to inf without a warning
    distance_db = 10.0 * cp.pl_exponent * math.log10(cp.cell_radius_m)
    terms = {
        ("tx_power_dbm",): cp.tx_power_dbm,
        ("noise_figure_db",): noise_power_dbm(cp),
        ("pl_intercept_db",): cp.pl_intercept_db,
        ("pl_exponent", "cell_radius_m"): distance_db,
        ("detection_threshold_db",): cp.detection_threshold_db,
    }
    # the array gains stay below 80 dB; a sum of six terms, each below a
    # sixth of the largest float in magnitude, cannot overflow
    limit = sys.float_info.max / 6.0
    keys = [
        f"channel.{key}={getattr(cp, key):g}"
        for names, value in terms.items()
        if not abs(value) < limit
        for key in names
    ]
    raise DomainError(f"{', '.join(keys)}: the mean SNR at the cell edge overflows")


def misdetection_probability(
    gnb: ArrayConfig, ue: ArrayConfig, cp: ChannelParams
) -> float:
    """Probability that the best beam pair still falls below threshold.

    A UE dropped uniformly over the cell disk measures its fully aligned
    pair (both endpoint gains, full transmit power) under lognormal
    shadowing. The share of the disk where that SNR clears the threshold
    is Reudink's fraction of useful service area (Jakes, *Microwave
    Mobile Communications*, 1974; Rappaport, *Wireless Communications*,
    2nd ed., section 4.9.1)::

        U = 1/2 [erfc(a) + exp((1 - 2ab) / b^2) erfc((1 - ab) / b)]
        a = (gamma - SNR(R)) / (sigma sqrt 2),  b = 10 beta log10(e) / (sigma sqrt 2)

    with SNR(R) the mean SNR at the cell edge (:func:`edge_margin_db`
    gives SNR(R) - gamma); this returns 1 - U. The exp-erfc product
    overflows when the edge SNR is far above the threshold. With c = (1 - ab) / b it equals exp(c^2 - a^2) erfc(c),
    which is evaluated in log space with exp(c^2) erfc(c) taken whole, so
    no factor overflows. Without shadowing the UE is detected exactly
    within the radius r where the mean SNR meets the threshold, so
    1 - U = 1 - min(1, (r / R)^2).
    """
    margin = edge_margin_db(gnb, ue, cp)
    sigma = cp.shadowing_sigma_db
    db_per_neper = 10.0 * cp.pl_exponent * math.log10(math.e)
    # 1/b is the shadowing spread in nepers of distance. Below 1e-150 it
    # moves no digit and the unshadowed form holds; above 1e300 the
    # distance term is nil, and the cap keeps c from being inf - inf.
    inv_b = min(sigma * _SQRT2 / db_per_neper, 1e300)
    if inv_b < 1e-150:
        # (r / R)^2 = exp(2 margin / db_per_neper)
        return 0.0 if margin >= 0.0 else -math.expm1(2.0 * (margin / db_per_neper))
    a = -margin / (sigma * _SQRT2)
    c = inv_b - a
    if c >= 0.0:
        log_product = _log_erfcx(c) - a * a
    else:
        # here c^2 - a^2 = (1 - 2ab) / b^2 < 0
        log_product = inv_b * (c - a) + math.log(math.erfc(c))
    # 1 - U, using 2 - erfc(a) = erfc(-a)
    return min(1.0, max(0.0, 0.5 * (math.erfc(-a) - math.exp(log_product))))
