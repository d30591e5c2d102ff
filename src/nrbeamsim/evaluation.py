"""Campaign evaluation: metric estimation and kiviat scaling.

``estimate_metrics`` runs the Monte Carlo campaigns for one scenario and
collects the deterministic quantities (overheads, power, detection
accuracy) into a single report. Every delay is read off its batch; a
delay whose samples are all equal (the LTE leg latency in NSA, the
reporting tail of a one-step gNB, such as a digital one) is reported as
that value with zero error, not as a float average of copies of it.

Seeding: a campaign is one ``CampaignSettings`` value, whose root seed
is split once per campaign into two substreams, for the IA and the
tracking batch, so reports are reproducible bit for bit. The IA batch
draws each run's arrival first, and in NSA only that. Recovery reads the
IA campaign: SA ``t_rlf`` is the ``t_ia`` statistic itself, NSA ``t_rlf``
the LTE latency. Every scenario of a sweep runs the same campaign, and
the tracking batch reads only the scenario's tracking plan, so the one
campaign cache keys the tracking campaign on the plan's value: SA and
NSA twins, and arrays of one sweep length, share one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .codebook import power_consumption_w
from .errors import ConfigurationError, DomainError, check_domains, declare
from .frame import SS_BLOCK_RB, SS_BLOCK_SYMBOLS
from .link import misdetection_probability
from .procedures import (
    Scenario,
    omega_br,
    simulate_ia_batch,
    simulate_rlf_batch,
    simulate_tracking_batch,
    tracking_plan,
)

# numpy is imported by the functions that compute with arrays, as in
# procedures
if TYPE_CHECKING:
    import numpy as np
    from numpy.random import SeedSequence

    from .procedures import TrackingPlan

Z_95 = 1.96

# the most runs one campaign takes: about 0.9 GB, as an SA 64x16
# estimate_metrics at 10^6 runs raises peak RSS by 88 B a run
MAX_RUNS = 10**7


@dataclass(frozen=True)
class CampaignSettings:
    """One campaign: ``n_runs`` runs per batch from root ``seed``. A
    tracking run is censored only when its direction has no surviving
    CSI-RS occasion. A scenario file's ``campaign`` block builds it, so
    its defaults and domains are the campaign's only ones. Errors name the
    bare key; a scenario file's name the file and ``campaign.``.
    """

    n_runs: int = declare(int, 10_000, lo=1, hi=MAX_RUNS)
    seed: int = declare(int, 42, lo=0)

    def __post_init__(self) -> None:
        check_domains(self)


@dataclass(frozen=True)
class MetricStat:
    """Sample mean with its standard error; stderr 0 when deterministic.
    The report that holds a stat checks its fields."""

    mean: float = declare(float)
    stderr: float = declare(float)
    n_samples: int = declare(int)

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
    """Everything measured for one scenario, plus identifying config. It
    refuses a value outside its fields' or its stats' fields' domains, such
    as the NaN ``t_tr`` of a campaign that censored every tracking run."""

    scenario_id: str = declare(str)
    mode: str = declare(str)
    m_gnb: int = declare(int)
    m_ue: int = declare(int)
    arch_gnb: str = declare(str)
    arch_ue: str = declare(str)
    n: int = declare(int)
    n_ss: int = declare(int)
    t_ss_ms: float = declare(float)
    t_csi_slots: int = declare(int)
    t_ia: MetricStat
    t_tr: MetricStat
    t_br: MetricStat
    t_rlf: MetricStat
    omega_ia: float = declare(float)
    omega_tr: float = declare(float)
    omega_br: float = declare(float)
    accuracy: float = declare(float)
    p_c_w: float = declare(float)
    seed: int = declare(int)
    n_runs: int = declare(int)
    censored_tracking: int = declare(int)

    def __post_init__(self) -> None:
        try:
            check_domains(self)
            for name in ("t_ia", "t_tr", "t_br", "t_rlf"):
                check_domains(getattr(self, name), f"{name}.")
        except ConfigurationError as exc:
            raise ConfigurationError(f"scenario {self.scenario_id}: {exc}") from None


def omega_ia_for(sc: Scenario) -> float:
    """SS-block share of the grid: all ``n_ss`` configured blocks per burst."""
    ss_area = sc.ss.n_ss * SS_BLOCK_SYMBOLS * SS_BLOCK_RB
    return ss_area / (sc.t_ss_sym * sc.carrier_rb)


def omega_tr_for(sc: Scenario) -> float:
    """CSI-RS share of the grid on the nominal (pre-collision) grid.

    Collisions reallocate an occasion's grid area to the SS burst, they
    do not hand it back to data, so the reserved share is what counts.
    """
    csi_area = sc.csi.n_symbols * sc.csi.bandwidth_rb
    return csi_area / (sc.csi.period_symbols * sc.carrier_rb)


@lru_cache(maxsize=16)
def _substreams(seed: int) -> tuple[SeedSequence, SeedSequence]:
    """The IA and the tracking substream of root ``seed``, split once: a
    generator seeded from a ``SeedSequence`` only reads its state, so every
    scenario's batch starts its substream alike."""
    import numpy as np

    ia_ss, tr_ss = np.random.SeedSequence(seed).spawn(2)
    return ia_ss, tr_ss


@lru_cache(maxsize=128)
def _tracking_stats(
    tp: TrackingPlan, campaign: CampaignSettings
) -> tuple[MetricStat, int]:
    """``t_tr`` of ``campaign`` on plan ``tp`` and its censored run count,
    the runs whose direction has no surviving CSI-RS occasion, drawn
    from the root seed's second substream; the waits are not kept. The
    batch reads only the plan and the seed, so the cache keys on their
    values, and scenarios with equal plans share one campaign."""
    import numpy as np

    waits, censored = simulate_tracking_batch(
        tp, campaign.n_runs, np.random.default_rng(_substreams(campaign.seed)[1])
    )
    return stat_from_samples(waits), int(np.count_nonzero(censored))


def estimate_metrics(
    sc: Scenario, campaign: CampaignSettings = CampaignSettings()
) -> MetricsReport:
    """Run all campaigns for one scenario and assemble the report.

    Every scenario runs the same ``campaign``, so scenarios with equal
    tracking plans share one tracking campaign. The IA campaign draws
    each run's arrival first, and in NSA only that, its SA twin's sweep
    times; recovery reads it, so SA ``t_rlf`` is the ``t_ia`` statistic.
    """
    import numpy as np

    n_runs = campaign.n_runs
    ia_ss = _substreams(campaign.seed)[0]
    ia = simulate_ia_batch(sc, n_runs, np.random.default_rng(ia_ss))
    t_tr, censored = _tracking_stats(tracking_plan(sc), campaign)
    rlf = simulate_rlf_batch(sc, ia)
    p_md = misdetection_probability(sc.gnb, sc.ue, sc.channel)
    t_ia = stat_from_samples(ia.t_total_ms)

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
        t_ia=t_ia,
        t_tr=t_tr,
        t_br=stat_from_samples(ia.t_br_ms),
        t_rlf=t_ia if rlf is ia else stat_from_samples(rlf.t_total_ms),
        omega_ia=omega_ia_for(sc),
        omega_tr=omega_tr_for(sc),
        omega_br=omega_br(sc),
        accuracy=1.0 - p_md,
        p_c_w=power_consumption_w(sc.gnb, sc.power),
        seed=campaign.seed,
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
        if not mean > 0:
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
