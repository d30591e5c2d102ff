"""Campaign evaluation: metric estimation and kiviat scaling.

``estimate_metrics`` runs the Monte Carlo campaigns for one scenario and
collects the deterministic quantities (overheads, power, detection
accuracy) into a single report. Every delay is read off its batch; a
delay whose samples are all equal (the LTE leg latency in NSA, the
reporting tail of a one-step gNB, such as a digital one) is reported as that value with zero error
rather than as a float average of copies of it.

Seeding: one root seed spawns independent substreams per campaign in a
fixed order, so reports are reproducible bit for bit. Every scenario of a
sweep draws from the same root seed, and the tracking campaign reads only
the arrays, bursts, numerology and CSI-RS grid, so SA and NSA twins share
one tracking campaign, which runs once per geometry.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .codebook import power_consumption_w
from .errors import ConfigurationError, DomainError
from .frame import SS_BLOCK_RB, SS_BLOCK_SYMBOLS, SYMBOLS_PER_SLOT
from .link import misdetection_probability
from .procedures import (
    Scenario,
    omega_br,
    simulate_ia_batch,
    simulate_rlf_batch,
    simulate_tracking_batch,
    sweep_plan,
)

# numpy is imported by the functions that compute with arrays, as in
# procedures
if TYPE_CHECKING:
    import numpy as np

    from .codebook import ArrayConfig
    from .frame import CsiRsConfig, Numerology, SsBurstConfig

Z_95 = 1.96

# the most runs one campaign takes: about 1.3 GB at ~130 B of peak memory a run
MAX_RUNS = 10**7


@dataclass(frozen=True)
class MetricStat:
    """Sample mean with its standard error; stderr 0 when deterministic."""

    mean: float
    stderr: float
    n_samples: int

    def ci95(self) -> tuple[float, float]:
        return (self.mean - Z_95 * self.stderr, self.mean + Z_95 * self.stderr)


def stat_from_samples(x: np.ndarray) -> MetricStat:
    """Mean and standard error of the non-NaN samples; exact when all are equal.

    One sum gives the mean, which the ddof=1 variance reuses: the same
    reductions, in the same order, as ``x.mean()`` and ``x.std(ddof=1)``,
    so the same bits. A NaN shows in that sum, and only then are the
    samples copied without it.
    """
    import numpy as np

    x = np.asarray(x, dtype=np.float64).ravel()
    total = np.add.reduce(x)
    if math.isnan(total):
        x = x[~np.isnan(x)]
        total = np.add.reduce(x)
    n = int(x.size)
    if n == 0:
        return MetricStat(mean=math.nan, stderr=math.nan, n_samples=0)
    # unequal end samples already rule out a constant sample
    if x[0] == x[-1]:
        lo = x.min()
        if lo == x.max():
            return MetricStat(mean=float(lo), stderr=0.0, n_samples=n)
    mean = total / n
    dev = x - mean
    np.square(dev, out=dev)
    var = np.add.reduce(dev) / (n - 1)
    return MetricStat(
        mean=float(mean),
        stderr=math.sqrt(var) / math.sqrt(n),
        n_samples=n,
    )


@dataclass(frozen=True)
class MetricsReport:
    """Everything measured for one scenario, plus identifying config."""

    scenario_id: str
    mode: str
    m_gnb: int
    m_ue: int
    arch_gnb: str
    arch_ue: str
    n: int
    n_ss: int
    t_ss_ms: float
    t_csi_slots: int
    t_ia: MetricStat
    t_tr: MetricStat
    t_br: MetricStat
    t_rlf: MetricStat
    omega_ia: float
    omega_tr: float
    omega_br: float
    accuracy: float
    p_c_w: float
    seed: int
    n_runs: int
    censored_tracking: int = 0


def omega_ia_for(sc: Scenario) -> float:
    """SS-block share of the grid: all ``n_ss`` configured blocks per burst."""
    ss_area = sc.ss.n_ss * SS_BLOCK_SYMBOLS * SS_BLOCK_RB
    return ss_area / (sweep_plan(sc).t_ss_sym * sc.carrier_rb)


def omega_tr_for(sc: Scenario) -> float:
    """CSI-RS share of the grid on the nominal (pre-collision) grid.

    Collisions reallocate an occasion's grid area to the SS burst, they
    do not hand it back to data, so the reserved share is what counts.
    """
    period_sym = sc.csi.t_csi_slots * SYMBOLS_PER_SLOT
    csi_area = sc.csi.n_symbols * sc.csi.bandwidth_rb
    return csi_area / (period_sym * sc.carrier_rb)


@dataclass(frozen=True)
class _TrackingCampaign:
    """What a tracking campaign reads: the tracking plan's inputs, the root
    seed, the run count and the horizon. ``sc`` is the scenario the batch
    runs on and takes no part in equality, so SA and NSA twins are one
    campaign."""

    gnb: ArrayConfig
    ue: ArrayConfig
    ss: SsBurstConfig
    numerology: Numerology
    csi: CsiRsConfig
    seed: int
    n_runs: int
    horizon_ms: float
    sc: Scenario = field(compare=False)


@lru_cache(maxsize=128)
def _tracking_stats(campaign: _TrackingCampaign) -> tuple[MetricStat, int]:
    """``t_tr`` and the censored run count of one tracking campaign, drawn
    from the root seed's second substream; the waits are not kept."""
    import numpy as np

    tr_ss = np.random.SeedSequence(campaign.seed).spawn(3)[1]
    waits, censored = simulate_tracking_batch(
        campaign.sc,
        campaign.n_runs,
        np.random.default_rng(tr_ss),
        horizon_ms=campaign.horizon_ms,
    )
    return stat_from_samples(waits), int(np.count_nonzero(censored))


def estimate_metrics(
    sc: Scenario,
    n_runs: int = 10_000,
    seed: int = 0,
    horizon_ms: float = 500.0,
) -> MetricsReport:
    """Run all campaigns for one scenario and assemble the report.

    Every scenario draws from the same root ``seed``, so SA and NSA twins
    share one tracking campaign, which runs once per geometry (per seed,
    run count and horizon); the IA and RLF campaigns run per scenario.
    """
    import numpy as np

    for name, value in (("n_runs", n_runs), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name}={value!r}: must be an integer")
    n_runs, seed = int(n_runs), int(seed)
    if seed < 0:
        raise DomainError(f"seed={seed}: must be non-negative")
    if not 1 <= n_runs <= MAX_RUNS or not 0 < horizon_ms < math.inf:
        raise DomainError(
            f"n_runs={n_runs}, horizon_ms={horizon_ms!r}: need 1..{MAX_RUNS} "
            "runs and a finite, positive horizon"
        )
    ia_ss, _, rlf_ss = np.random.SeedSequence(seed).spawn(3)

    ia = simulate_ia_batch(sc, n_runs, np.random.default_rng(ia_ss))
    t_tr, censored = _tracking_stats(
        _TrackingCampaign(
            sc.gnb, sc.ue, sc.ss, sc.numerology, sc.csi, seed, n_runs, horizon_ms, sc
        )
    )
    rlf = simulate_rlf_batch(sc, n_runs, np.random.default_rng(rlf_ss))
    p_md = misdetection_probability(sc.gnb, sc.ue, sc.channel)

    return MetricsReport(
        scenario_id=sc.scenario_id,
        mode=sc.mode.value,
        m_gnb=sc.gnb.elements,
        m_ue=sc.ue.elements,
        arch_gnb=sc.gnb.arch.value,
        arch_ue=sc.ue.arch.value,
        n=sc.numerology.n,
        n_ss=sc.ss.n_ss,
        t_ss_ms=sc.ss.t_ss_ms,
        t_csi_slots=sc.csi.t_csi_slots,
        t_ia=stat_from_samples(ia.t_total_ms),
        t_tr=t_tr,
        t_br=stat_from_samples(ia.t_br_ms),
        t_rlf=stat_from_samples(rlf.t_total_ms),
        omega_ia=omega_ia_for(sc),
        omega_tr=omega_tr_for(sc),
        omega_br=omega_br(sc),
        accuracy=1.0 - p_md,
        p_c_w=power_consumption_w(sc.gnb, sc.power),
        seed=seed,
        n_runs=n_runs,
        censored_tracking=censored,
    )


KIVIAT_SCALE = 10.0

KIVIAT_AXES = ("ia_reactiveness", "tracking_reactiveness", "omega_ia", "omega_tr")


@dataclass(frozen=True)
class KiviatSet:
    """Axis-normalized metric values for radar-style comparison.

    Delays enter as reactiveness (1/mean) before scaling; every axis is
    scaled so its best scenario sits at exactly ``KIVIAT_SCALE``.
    """

    axes: tuple[str, ...]
    scenario_ids: tuple[str, ...]
    raw: tuple[tuple[float, ...], ...]
    values: tuple[tuple[float, ...], ...]


def _reactiveness(reports: Sequence[MetricsReport], delay: str) -> list[float]:
    """1/mean of each report's ``MetricStat`` field ``delay``."""
    col = []
    for r in reports:
        mean = getattr(r, delay).mean
        if not mean > 0 or math.isnan(mean):
            raise ConfigurationError(
                f"kiviat axis {delay}_ms: scenario {r.scenario_id} has "
                f"non-positive mean delay {mean!r}"
            )
        col.append(1.0 / mean)
    return col


def kiviat_normalize(reports: Sequence[MetricsReport]) -> KiviatSet:
    """Scale each of ``KIVIAT_AXES`` to [0, 10] with its maximum at 10:
    the reactiveness of initial access and of tracking, and the SS and
    CSI-RS overheads."""
    reports = list(reports)
    if not reports:
        raise DomainError("kiviat_normalize needs at least one report")
    raw_cols = [
        _reactiveness(reports, "t_ia"),
        _reactiveness(reports, "t_tr"),
        [r.omega_ia for r in reports],
        [r.omega_tr for r in reports],
    ]
    value_cols = []
    for name, col in zip(KIVIAT_AXES, raw_cols):
        top = max(col)
        if not top > 0:
            raise ConfigurationError(f"kiviat axis {name}: all values are zero")
        value_cols.append([KIVIAT_SCALE * v / top for v in col])
    return KiviatSet(
        axes=KIVIAT_AXES,
        scenario_ids=tuple(r.scenario_id for r in reports),
        raw=tuple(zip(*raw_cols)),
        values=tuple(zip(*value_cols)),
    )
