"""Beam management procedures: initial access, tracking, reporting, recovery.

Timing model
------------
A full downlink sweep needs S = sweep_length(gnb, ue) measurements. Each
SS burst carries B = min(S, n_ss) blocks back to back from the burst
start, and block i of burst j carries sweep slot ``(j*B + i) mod S``, so
the sweep wraps across bursts when S > n_ss and completes after
C = ceil(S / B) bursts with R = S - (C-1)*B blocks into the last one.
The UE (or the failure event, for link recovery) arrives at a uniform
instant of the sweep cycle: a uniform phase within one burst period plus
a uniform burst index within the cycle of P = S / gcd(B, S) bursts.

Determination is the argmax of per-block RSRP and takes no extra time;
ties break toward the lowest (gnb_beam, ue_beam). Every block of one
sweep shares the run's mean SNR, so the winner depends only on the
per-block shadowing and the side-lobe floor: the sweep picks the aligned
slot with the closed-form probability ``p_correct_beam`` and otherwise a
uniform other slot. The batches draw timing alone, and detection
accuracy is ``link.misdetection_probability``.

Reporting then waits for the first matching RACH opportunity: the gNB
offers one opportunity per step its burst just swept, so a report may
have to wait for the burst that revisits the chosen step. A digital gNB
is the one-step case: it sweeps every direction in its one step, so the
opportunity right after each burst's blocks serves every report. The
wait depends only on how many steps past the last burst's first one
the chosen step lies. The sweep plan
tabulates that offset's complement per start burst, and the tail in ms
per offset over two cycles of f_g steps, so a batch reads each run's
tail by two gathers with no per-run modulo.
In NSA the report (and the whole link recovery) instead rides the LTE
control plane at a fixed latency.

Expected-delay helpers are closed forms over the same quantities, exact
for every architecture: the reporting tail weighs each gNB step by how
often the sweep chooses it, which for a hybrid gNB with unequal beam
groups depends on p. Tracking rides the CSI-RS grid: occasions cycle
directions round-robin on the nominal grid, occasions colliding with SS
blocks are dropped, and the delay is the wait for the next surviving
occasion of the wanted direction. The tracking plan tabulates that next
occasion for each direction and round of the nominal grid, so a run's
round is a ceiling division and its wait one gather.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Optional

from .codebook import (
    MAX_SWEEP_LENGTH,
    Architecture,
    ArrayConfig,
    PowerModel,
    directions_per_step,
    sweep_factor,
    sweep_length,
)
from .errors import ConfigurationError, DomainError, NotApplicableError
from .frame import (
    CsiRsConfig,
    Numerology,
    RACH_SYMBOLS,
    SS_BLOCK_RB,
    SS_BLOCK_SYMBOLS,
    SYMBOLS_PER_SLOT,
    SsBurstConfig,
    carrier_resource_blocks,
    check_mmwave_numerology,
)
from .link import ChannelParams, edge_margin_db, log_normal_cdf

# numpy is imported by each function that computes with arrays, so the
# commands that never do (validate, report, help) start without it
if TYPE_CHECKING:
    import numpy as np

LTE_LATENCY_VALUES_MS = (0.8, 4.0, 10.0, 40.0)


class DeploymentMode(str, Enum):
    SA = "SA"
    NSA = "NSA"


@dataclass(frozen=True)
class Scenario:
    """Everything one campaign needs: radio config, channel, deployment."""

    gnb: ArrayConfig
    ue: ArrayConfig
    numerology: Numerology
    ss: SsBurstConfig = SsBurstConfig()
    csi: CsiRsConfig = CsiRsConfig()
    channel: ChannelParams = ChannelParams()
    power: PowerModel = PowerModel()
    mode: DeploymentMode = DeploymentMode.SA
    lte_latency_ms: Optional[float] = None
    carrier_ghz: float = 28.0
    omega_br_window_ms: float = 200.0
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 < self.carrier_ghz < math.inf:
            raise ConfigurationError(
                f"deployment.carrier_ghz={self.carrier_ghz:g}: must be positive "
                "and finite"
            )
        check_mmwave_numerology(self.numerology, self.carrier_ghz)
        self.ss.check_window(self.numerology)
        if self.mode is DeploymentMode.NSA:
            if self.lte_latency_ms is None:
                raise ConfigurationError(
                    "deployment.mode=NSA requires deployment.lte_latency_ms"
                )
        if self.lte_latency_ms is not None and self.lte_latency_ms not in LTE_LATENCY_VALUES_MS:
            raise ConfigurationError(
                f"deployment.lte_latency_ms={self.lte_latency_ms:g}: must be one of "
                f"{set(LTE_LATENCY_VALUES_MS)}"
            )
        s = sweep_length(self.gnb, self.ue)
        if s > MAX_SWEEP_LENGTH:
            raise ConfigurationError(
                f"gnb.elements={self.gnb.elements} and ue.elements="
                f"{self.ue.elements} need a sweep of S={s} slots; at most "
                f"{MAX_SWEEP_LENGTH} are supported"
            )
        edge_margin_db(self.gnb, self.ue, self.channel)
        if not 0 < self.omega_br_window_ms < math.inf:
            raise ConfigurationError(
                f"deployment.omega_br_window_ms={self.omega_br_window_ms:g}: "
                "must be positive and finite"
            )
        rb = self.carrier_rb
        if self.csi.delta_f_rb + self.csi.bandwidth_rb > rb:
            raise ConfigurationError(
                f"csi.delta_f_rb={self.csi.delta_f_rb} and csi.bandwidth_rb="
                f"{self.csi.bandwidth_rb} occupy RB {self.csi.delta_f_rb}.."
                f"{self.csi.delta_f_rb + self.csi.bandwidth_rb} but the carrier "
                f"has only {rb} RB"
            )

    @property
    def carrier_rb(self) -> int:
        return carrier_resource_blocks(self.numerology, self.channel.bandwidth_hz)

    @property
    def scenario_id(self) -> str:
        if self.label:
            return self.label
        parts = [
            self.mode.value.lower(),
            f"{self.gnb.arch.value[0]}{self.gnb.elements}x"
            f"{self.ue.arch.value[0]}{self.ue.elements}",
            f"n{self.numerology.n}",
            f"nss{self.ss.n_ss}",
            f"tss{self.ss.t_ss_ms:g}",
        ]
        if self.mode is DeploymentMode.NSA:
            parts.append(f"lte{self.lte_latency_ms:g}")
        return "_".join(parts)


@dataclass(frozen=True)
class SweepPlan:
    """Precomputed sweep geometry for one scenario.

    Sweep slot ``k`` steers the gNB to step ``k % f_g`` and the UE to step
    ``k // f_g``; ``g_labels`` holds the gNB steps. Direction ``d`` of an
    end is swept in step ``d // width`` of that end. The gNB steps the
    bursts sweep repeat every ``rach_cycle`` bursts. A run that starts at
    cycle burst ``b`` and chooses gNB step ``g`` waits
    ``tail_ms_twice[g + tail_shift[b]]`` from determination to the end
    of its report.
    """

    s: int
    f_g: int
    g_width: int
    u_width: int
    blocks_per_burst: int
    bursts_per_sweep: int
    cycle_bursts: int
    rach_cycle: int
    t_ss_sym: int
    symbol_ms: float
    t_ss_ms: float
    # read by no code here; the benchmark's tracer counts wait-table
    # cells only for the gNBs this flags false
    digital_gnb: bool
    g_labels: np.ndarray
    det_offset_sym: int

    @cached_property
    def report_tail_sym(self) -> np.ndarray:
        """Report tail, from determination to the end of the RACH
        opportunity, when the chosen step lies ``d`` steps past the first
        one the sweep's last burst swept. Built on first use, as NSA
        never reads it.

        Burst ``j`` sweeps steps ``j*B .. j*B + min(B, f_g) - 1`` (mod
        f_g) and offers one opportunity per step after its blocks, in that
        order, so the first burst to sweep the chosen step comes ``d // B``
        bursts later, at rank ``d % B``.
        """
        import numpy as np

        b = self.blocks_per_burst
        d = np.arange(self.f_g)
        return (
            (d // b) * self.t_ss_sym
            + b * SS_BLOCK_SYMBOLS
            + RACH_SYMBOLS * (d % b + 1)
            - self.det_offset_sym
        )

    @cached_property
    def tail_shift(self) -> np.ndarray:
        """Per start burst ``b`` of the cycle, f_g minus the first step the
        sweep's last burst sweeps (mod f_g), in [1, f_g]: the chosen step
        plus this is its offset into ``tail_ms_twice``."""
        import numpy as np

        b = np.arange(self.cycle_bursts, dtype=np.int64)
        last_first = (b + self.bursts_per_sweep - 1) * self.blocks_per_burst
        return self.f_g - last_first % self.f_g

    @cached_property
    def tail_ms_twice(self) -> np.ndarray:
        """``report_tail_sym`` in ms, repeated once, so an offset in
        [0, 2 f_g) reads the tail of that offset mod f_g."""
        import numpy as np

        tail_ms = self.report_tail_sym * self.symbol_ms
        return np.concatenate((tail_ms, tail_ms))


@lru_cache(maxsize=128)
def _plan_for(
    gnb: ArrayConfig, ue: ArrayConfig, ss: SsBurstConfig, numerology: Numerology
) -> SweepPlan:
    import numpy as np

    f_g, f_u = sweep_factor(gnb), sweep_factor(ue)
    s = f_g * f_u
    b = min(s, ss.n_ss)
    c = math.ceil(s / b)
    r = s - (c - 1) * b
    return SweepPlan(
        s=s,
        f_g=f_g,
        g_width=directions_per_step(gnb),
        u_width=directions_per_step(ue),
        blocks_per_burst=b,
        bursts_per_sweep=c,
        cycle_bursts=s // math.gcd(b, s),
        rach_cycle=f_g // math.gcd(b, f_g),
        t_ss_sym=round(ss.t_ss_ms * numerology.symbols_per_ms),
        symbol_ms=numerology.symbol_ms,
        t_ss_ms=ss.t_ss_ms,
        digital_gnb=gnb.arch is Architecture.DIGITAL,
        g_labels=np.arange(s, dtype=np.int64) % f_g,
        det_offset_sym=r * SS_BLOCK_SYMBOLS,
    )


def sweep_plan(sc: Scenario) -> SweepPlan:
    """The scenario's sweep plan, cached on what it reads, so SA and NSA
    twins share one."""
    return _plan_for(sc.gnb, sc.ue, sc.ss, sc.numerology)


@dataclass
class IaBatch:
    """Vectorized outcomes of one initial-access or recovery campaign."""

    t_sweep_ms: np.ndarray
    t_br_ms: np.ndarray
    t_total_ms: np.ndarray
    chosen_g: np.ndarray


@lru_cache(maxsize=16)
def _normal_grid(shift: float) -> tuple[np.ndarray, np.ndarray]:
    """Log trapezoid weights of phi(z) dz at nodes z on [-40, 40], and
    log Phi(z + shift) there. Built on first use, not at import; the
    nodes depend on (sigma, floor) only through the shift, so sweeps of
    several lengths share them."""
    import numpy as np

    z = np.linspace(-40.0, 40.0, 4001)
    log_w = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi) + math.log(z[1] - z[0])
    log_w[[0, -1]] += math.log(0.5)
    return log_w, np.array([log_normal_cdf(x) for x in (z + shift).tolist()])


@lru_cache(maxsize=128)
def p_correct_beam(s: int, sigma_db: float, floor_db: float) -> float:
    """Probability that a sweep of ``s`` slots picks its aligned slot.

    The aligned block's shadowing offset X_a ~ N(0, sigma) must beat the
    S-1 others, each N(floor, sigma), so with z = X_a / sigma

        p = integral of phi(z) Phi(z - floor / sigma)^(S-1) dz,

    whatever the aligned slot. The integral runs on a fixed trapezoid
    grid with (S-1) log Phi summed in log space, accurate up to S = 4096.
    Without shadowing the aligned slot always wins below a 0 dB floor; at
    0 dB every slot is alike and p = 1/S, except that without shadowing
    the slots tie and the sweep takes the lowest, which is no draw.
    """
    import numpy as np

    if s == 1 or (sigma_db == 0.0 and floor_db < 0.0):
        return 1.0
    if floor_db == 0.0:
        return 1.0 / s
    log_w, log_cdf = _normal_grid(-floor_db / sigma_db)
    return float(np.exp(log_w + (s - 1) * log_cdf).sum())


def draw_sweep_winner(
    plan: SweepPlan,
    cp: ChannelParams,
    k_star: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Winning sweep slot for each run of a sweep whose aligned slot is ``k_star``.

    Each block measures the run's mean SNR plus iid shadowing, the other
    S-1 slots ``side_lobe_floor_db`` below the aligned one. The aligned
    slot wins with probability :func:`p_correct_beam`; otherwise the
    winner is uniform over the other slots, which are exchangeable. This
    is exact in distribution, in O(1) per run. Without shadowing at a
    0 dB floor every slot ties and the lowest (gnb_beam, ue_beam) wins:
    slot 0, which sweeps step 0 at both ends.
    """
    import numpy as np

    n = k_star.size
    s = plan.s
    if s == 1:
        return k_star
    sigma, floor = cp.shadowing_sigma_db, cp.side_lobe_floor_db
    if sigma == 0.0 and floor == 0.0:
        return np.zeros(n, dtype=np.int64)
    aligned = rng.random(n) < p_correct_beam(s, sigma, floor)
    j = rng.integers(0, s - 1, size=n)
    j += j >= k_star
    return np.where(aligned, k_star, j)


def simulate_ia_batch(sc: Scenario, n_runs: int, rng: np.random.Generator) -> IaBatch:
    """Run ``n_runs`` independent initial accesses, vectorized.

    Per run draws: the true best pair (uniform per side, sectors being
    symmetric), the sweep's winning block, and the arrival instant
    (uniform cycle position and phase). The winner is drawn in O(1) per
    run, exact in distribution for iid shadowing on every measured
    block; see :func:`draw_sweep_winner`.
    """
    import numpy as np

    if n_runs < 1:
        raise DomainError(f"n_runs={n_runs}: need at least one run")
    plan = sweep_plan(sc)
    g_star = rng.integers(0, sc.gnb.elements, size=n_runs)
    u_star = rng.integers(0, sc.ue.elements, size=n_runs)
    # the aligned slot: UE step * f_g + gNB step, a step being the
    # direction over the beam-group width
    k_star = u_star // plan.u_width
    k_star *= plan.f_g
    k_star += g_star // plan.g_width
    best = draw_sweep_winner(plan, sc.channel, k_star, rng)

    start_burst = rng.integers(0, plan.cycle_bursts, size=n_runs)
    # (T_SS - phase) + (C - 1) T_SS + the blocks into the last burst
    t_sweep = rng.uniform(0.0, plan.t_ss_ms, size=n_runs)
    np.subtract(plan.t_ss_ms, t_sweep, out=t_sweep)
    t_sweep += (plan.bursts_per_sweep - 1) * plan.t_ss_ms
    t_sweep += plan.det_offset_sym * plan.symbol_ms
    chosen_g = plan.g_labels[best]
    if sc.mode is DeploymentMode.NSA:
        t_br = np.full(n_runs, float(sc.lte_latency_ms))
    else:
        offset = plan.tail_shift[start_burst]
        offset += chosen_g
        t_br = plan.tail_ms_twice[offset]

    return IaBatch(
        t_sweep_ms=t_sweep,
        t_br_ms=t_br,
        t_total_ms=t_sweep + t_br,
        chosen_g=chosen_g,
    )


def simulate_rlf_batch(sc: Scenario, n_runs: int, rng: np.random.Generator) -> IaBatch:
    """Vectorized link-recovery campaign from a failure at a uniform instant.

    SA re-runs the full initial-access sweep; NSA signals over the LTE
    leg and recovers in exactly the configured latency.
    """
    import numpy as np

    if sc.mode is DeploymentMode.NSA:
        assert sc.lte_latency_ms is not None
        const = np.full(n_runs, float(sc.lte_latency_ms))
        zero = np.zeros(n_runs)
        return IaBatch(
            t_sweep_ms=zero,
            t_br_ms=const,
            t_total_ms=const.copy(),
            chosen_g=np.full(n_runs, -1, dtype=np.int64),
        )
    return simulate_ia_batch(sc, n_runs, rng)


def expected_beam_report_delay_ms(sc: Scenario) -> float:
    """Mean reporting delay after a sweep, over the cycle position and the
    chosen gNB step.

    The aligned step is that of a uniform gNB direction, so each step
    weighs the share of directions its beam group holds. The sweep picks
    it with probability p and otherwise one of the other S-1 slots
    uniformly; each step holds S / f_g slots, one fewer when it is the
    aligned one. Over the uniform cycle position, the offset ``d`` that
    indexes ``SweepPlan.report_tail_sym`` takes every value congruent to
    the chosen step modulo gcd(B, f_g) equally often.
    """
    import numpy as np

    if sc.mode is DeploymentMode.NSA:
        assert sc.lte_latency_ms is not None
        return sc.lte_latency_ms
    plan = sweep_plan(sc)
    s, f_g, cp = plan.s, plan.f_g, sc.channel
    steps = np.arange(f_g)
    aligned = np.bincount(np.arange(sc.gnb.elements) // plan.g_width) / sc.gnb.elements
    if cp.shadowing_sigma_db == 0.0 and cp.side_lobe_floor_db == 0.0:
        # every slot ties and slot 0, gNB step 0, wins
        chosen = (steps == 0).astype(np.float64)
    else:
        p = p_correct_beam(s, cp.shadowing_sigma_db, cp.side_lobe_floor_db)
        # at S = 1 there is no other slot, and p = 1
        chosen = p * aligned + (1.0 - p) * (s // f_g - aligned) / max(s - 1, 1)
    residue = steps % (f_g // plan.rach_cycle)
    share_of_d = np.bincount(residue, weights=chosen)[residue] / plan.rach_cycle
    return float(plan.report_tail_sym @ share_of_d) * plan.symbol_ms


def oracle_expected_ia(sc: Scenario) -> float:
    """Closed-form mean initial-access delay.

    Sum of the mean wait for the next burst over the uniform arrival
    (half a cycle-averaged burst period, which is T_SS/2), the full
    bursts the sweep spans, the blocks into the last burst, and the mean
    reporting tail of :func:`expected_beam_report_delay_ms`.
    """
    plan = sweep_plan(sc)
    return (
        sc.ss.t_ss_ms / 2.0
        + (plan.bursts_per_sweep - 1) * sc.ss.t_ss_ms
        + plan.det_offset_sym * plan.symbol_ms
        + expected_beam_report_delay_ms(sc)
    )


def oracle_expected_rlf_sa(sc: Scenario) -> float:
    """Closed-form mean SA link-recovery delay (same law as initial access)."""
    if sc.mode is DeploymentMode.NSA:
        raise NotApplicableError(
            "the SA recovery oracle is undefined for NSA; recovery there is "
            "the LTE latency exactly"
        )
    return oracle_expected_ia(sc)


# the largest int64, np.iinfo(np.int64).max
NO_OCCASION = 2**63 - 1


@dataclass(frozen=True)
class TrackingPlan:
    """CSI occasion pattern over one hyperperiod, collisions resolved.

    Nominal occasion ``m = j*s + d`` serves direction ``d`` in round ``j``
    of the round-robin and starts at symbol ``delta_t + m*period``; a
    hyperperiod holds J rounds. ``next_occasion[d, j]`` is the start of
    the first surviving occasion of ``d`` in round ``j`` or later, for
    ``j`` in [0, J); column J holds the direction's first surviving
    occasion one hyperperiod on, so a lookup past the last occasion
    wraps. A direction whose occasions all collide holds ``NO_OCCASION``
    throughout.
    """

    s: int
    period_sym: int
    delta_t_sym: int
    hyper_sym: int
    symbol_ms: float
    dropped_count: int
    next_occasion: np.ndarray


@lru_cache(maxsize=128)
def _tracking_plan_for(
    gnb: ArrayConfig,
    ue: ArrayConfig,
    ss: SsBurstConfig,
    numerology: Numerology,
    csi: CsiRsConfig,
) -> TrackingPlan:
    import numpy as np

    plan = _plan_for(gnb, ue, ss, numerology)
    period = csi.t_csi_slots * SYMBOLS_PER_SLOT
    t_ss = plan.t_ss_sym
    s = plan.s
    n_pat = math.lcm(math.lcm(period, t_ss) // period, s)
    hyper = n_pat * period

    # nominal occasion m starts at symbol t and serves direction m % s; it
    # is dropped when it shares symbols and RBs with the sweep's SS blocks
    # of its own burst or of the next one
    t = csi.delta_t_symbols + np.arange(n_pat, dtype=np.int64) * period
    a = t % t_ss
    collides = (a < plan.blocks_per_burst * SS_BLOCK_SYMBOLS) | (
        a + csi.n_symbols > t_ss
    )
    collides &= csi.delta_f_rb < SS_BLOCK_RB
    # row d lists direction d's occasions in time order; occasions lie in
    # [0, hyper) because delta_t_symbols < period
    table = np.empty((s, n_pat // s + 1), dtype=np.int64)
    table[:, :-1] = np.where(collides, NO_OCCASION, t).reshape(-1, s).T
    first = table[:, :-1].min(axis=1)
    table[:, -1] = np.where(first < NO_OCCASION, first + hyper, NO_OCCASION)
    np.minimum.accumulate(table[:, ::-1], axis=1, out=table[:, ::-1])
    return TrackingPlan(
        s=s,
        period_sym=period,
        delta_t_sym=csi.delta_t_symbols,
        hyper_sym=hyper,
        symbol_ms=plan.symbol_ms,
        dropped_count=int(np.count_nonzero(collides)),
        next_occasion=table,
    )


def tracking_plan(sc: Scenario) -> TrackingPlan:
    """The scenario's tracking plan, cached on what it reads."""
    return _tracking_plan_for(sc.gnb, sc.ue, sc.ss, sc.numerology, sc.csi)


def simulate_tracking_batch(
    sc: Scenario,
    n_runs: int,
    rng: np.random.Generator,
    horizon_ms: float = 500.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized tracking campaign.

    Returns (wait_ms, censored); a run is censored when its direction has
    no surviving occasion at all or the wait exceeds the horizon, and its
    wait is NaN.
    """
    import numpy as np

    if n_runs < 1:
        raise DomainError(f"n_runs={n_runs}: need at least one run")
    tp = tracking_plan(sc)
    dirs = rng.integers(0, tp.s, size=n_runs)
    t0 = rng.uniform(0.0, tp.hyper_sym, size=n_runs)
    # occasions are integer symbols, so "at or after t0" is ">= ceil(t0)",
    # and the direction's first round j there is a ceiling division of its
    # lag behind round 0. That lag exceeds -round, since delta_t < period,
    # so j needs no clamp at 0; t0 < hyper keeps it at most J.
    round_sym = tp.s * tp.period_sym
    lag = np.ceil(t0).astype(np.int64) - dirs * tp.period_sym
    j = (lag + (round_sym - 1 - tp.delta_t_sym)) // round_sym
    nxt = tp.next_occasion.ravel()[dirs * tp.next_occasion.shape[1] + j]
    waits = (nxt - t0) * tp.symbol_ms
    censored = (nxt == NO_OCCASION) | (waits > horizon_ms)
    waits[censored] = np.nan
    return waits, censored


def expected_tracking_delay_ms(sc: Scenario) -> float:
    """Mean tracking delay over uniform (direction, arrival), censoring-free.

    Renewal mean: for each direction, sum of squared gaps between
    surviving occasions over twice the hyperperiod. Directions with no
    surviving occasion are excluded (they only ever censor).
    """
    import numpy as np

    tp = tracking_plan(sc)
    j = np.arange(tp.next_occasion.shape[1] - 1, dtype=np.int64)
    d = np.arange(tp.s, dtype=np.int64)[:, None]
    nominal = tp.delta_t_sym + (j * tp.s + d) * tp.period_sym
    kept = tp.next_occasion[:, :-1] == nominal
    served = kept.any(axis=1)
    if not served.any():
        raise NotApplicableError("every direction's occasions collide away")
    # a surviving occasion's gap runs to the next one of its direction,
    # the last one's to the first of the next hyperperiod; the int64 sum of
    # squares is exact, as a hyperperiod stays below 2^28 symbols
    gaps = np.where(kept, tp.next_occasion[:, 1:] - nominal, 0)
    sq_gaps = (gaps * gaps).sum(axis=1)[served].astype(np.float64)
    return float(np.mean(sq_gaps / (2.0 * tp.hyper_sym))) * tp.symbol_ms


def omega_br(sc: Scenario) -> float:
    """Beam-reporting overhead: RACH symbols per reporting window.

    One uplink opportunity spans 2 symbols over the whole carrier; an SA
    gNB must reserve one per steering step, an NSA deployment needs one.
    The accounting window is ``omega_br_window_ms``.
    """
    n_opps = 1 if sc.mode is DeploymentMode.NSA else sweep_factor(sc.gnb)
    window_sym = sc.omega_br_window_ms * sc.numerology.symbols_per_ms
    return n_opps * RACH_SYMBOLS / window_sym
