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
per-block shadowing and the side-lobe floor: the batches draw timing
alone, and detection accuracy is ``link.misdetection_probability``.

Reporting then waits for the first matching RACH opportunity: a digital
gNB listens in all directions at once right after the burst's blocks,
while an analog or hybrid gNB offers one opportunity per direction its
burst just swept, so a report may have to wait for the burst that
revisits the chosen direction. In NSA the report (and the whole link
recovery) instead rides the LTE control plane at a fixed latency.

Expected-delay helpers are closed forms over the same quantities, exact
whenever the chosen gNB direction is uniformly distributed, which holds
for analog and digital gNBs and for hybrid gNBs with equal beam groups
(k_bf dividing M). Tracking rides the CSI-RS grid: occasions cycle
directions round-robin on the nominal grid, occasions colliding with SS
blocks are dropped, and the delay is the wait for the next surviving
occasion of the wanted direction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

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
from .link import ChannelParams

LTE_LATENCY_VALUES_MS = (0.8, 4.0, 10.0, 40.0)
DEFAULT_OMEGA_BR_WINDOW_MS = 200.0


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
    omega_br_window_ms: float = DEFAULT_OMEGA_BR_WINDOW_MS
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.carrier_ghz > 0:
            raise ConfigurationError(
                f"deployment.carrier_ghz={self.carrier_ghz:g}: must be positive"
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
        if self.omega_br_window_ms <= 0:
            raise ConfigurationError(
                f"deployment.omega_br_window_ms={self.omega_br_window_ms:g}: "
                "must be positive"
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
    ``k // f_g``; ``g_labels``/``u_labels`` hold those steps, -1 on a
    digital side, which needs no steering. Direction ``d`` of an end is
    swept in step ``d // width`` of that end. The gNB steps the bursts
    sweep repeat every ``rach_cycle`` bursts.
    """

    s: int
    f_g: int
    g_width: int
    u_width: int
    blocks_per_burst: int
    bursts_per_sweep: int
    last_burst_blocks: int
    cycle_bursts: int
    rach_cycle: int
    t_ss_sym: int
    symbol_ms: float
    t_ss_ms: float
    digital_gnb: bool
    g_labels: np.ndarray
    u_labels: np.ndarray
    tie_break_order: np.ndarray
    det_offset_sym: int
    digital_tail_sym: int

    def rach_end_sym(self, det_pos, g_label):
        """End of the report's RACH opportunity, in symbols from the start
        of the burst at cycle position ``det_pos`` whose blocks end the
        sweep, for an analog or hybrid gNB that chose step ``g_label``.

        Burst ``j`` sweeps steps ``j*B .. j*B + min(B, f_g) - 1`` (mod
        f_g) and offers one opportunity per step after its blocks, in that
        order. With ``d = (g_label - det_pos*B) mod f_g`` the first burst
        to sweep the step comes ``d // B`` bursts later, at rank ``d % B``.
        """
        b = self.blocks_per_burst
        d = (g_label - det_pos * b) % self.f_g
        return (
            (d // b) * self.t_ss_sym
            + b * SS_BLOCK_SYMBOLS
            + RACH_SYMBOLS * (d % b + 1)
        )


@lru_cache(maxsize=128)
def _plan_for(sc: Scenario) -> SweepPlan:
    f_g, f_u = sweep_factor(sc.gnb), sweep_factor(sc.ue)
    s = f_g * f_u
    b = min(s, sc.ss.n_ss)
    c = math.ceil(s / b)
    r = s - (c - 1) * b
    digital_gnb = sc.gnb.arch is Architecture.DIGITAL
    k = np.arange(s, dtype=np.int64)
    g_labels = np.full(s, -1, dtype=np.int64) if digital_gnb else k % f_g
    if sc.ue.arch is Architecture.DIGITAL:
        u_labels = np.full(s, -1, dtype=np.int64)
    else:
        u_labels = k // f_g
    return SweepPlan(
        s=s,
        f_g=f_g,
        g_width=directions_per_step(sc.gnb),
        u_width=directions_per_step(sc.ue),
        blocks_per_burst=b,
        bursts_per_sweep=c,
        last_burst_blocks=r,
        cycle_bursts=s // math.gcd(b, s),
        rach_cycle=1 if digital_gnb else f_g // math.gcd(b, f_g),
        t_ss_sym=round(sc.ss.t_ss_ms * sc.numerology.symbols_per_ms),
        symbol_ms=sc.numerology.symbol_ms,
        t_ss_ms=sc.ss.t_ss_ms,
        digital_gnb=digital_gnb,
        g_labels=g_labels,
        u_labels=u_labels,
        tie_break_order=np.lexsort((u_labels, g_labels)).astype(np.int64),
        det_offset_sym=r * SS_BLOCK_SYMBOLS,
        digital_tail_sym=(b - r) * SS_BLOCK_SYMBOLS + RACH_SYMBOLS,
    )


def sweep_plan(sc: Scenario) -> SweepPlan:
    return _plan_for(sc)


@dataclass
class IaBatch:
    """Vectorized outcomes of one initial-access or recovery campaign."""

    t_sweep_ms: np.ndarray
    t_br_ms: np.ndarray
    t_total_ms: np.ndarray
    chosen_g: np.ndarray


# Wichura (1988), Algorithm AS241 (PPND16), the method of
# statistics.NormalDist.inv_cdf; numerator and denominator coefficients
# of each rational approximation, highest power first.
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
     4.6303378461565452959e0, 1.4234371107496835773e0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
     2.0531916266377588219e0, 1.0),
)
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
     5.4637849111641143699e0, 6.6579046435011037772e0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)
# The order-statistics draw keeps its probability inside these bounds so
# its quantile stays finite; the clipped mass is below 1e-15.
_Q_MIN = float(np.finfo(np.float64).tiny)
_Q_MAX = float(np.nextafter(1.0, 0.0))


def normal_inv_cdf(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile Phi^-1(p) for p in (0, 1), elementwise."""
    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    x = np.empty_like(p)
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    num, den = _AS241_CENTRAL
    x[central] = np.polyval(num, r) * qc / np.polyval(den, r)
    tail = ~central
    r = np.sqrt(-np.log(np.minimum(p[tail], 1.0 - p[tail])))
    near = r <= 5.0
    xt = np.empty_like(r)
    for sel, shift, (num, den) in (
        (near, 1.6, _AS241_NEAR),
        (~near, 5.0, _AS241_FAR),
    ):
        rs = r[sel] - shift
        xt[sel] = np.polyval(num, rs) / np.polyval(den, rs)
    x[tail] = np.where(q[tail] < 0.0, -xt, xt)
    return x


def draw_sweep_winner(
    plan: SweepPlan,
    cp: ChannelParams,
    k_star: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Winning sweep slot for each run of a sweep whose aligned slot is ``k_star``.

    Each block measures the run's mean SNR plus iid shadowing, the other
    S-1 slots ``side_lobe_floor_db`` below the aligned one. The mean is
    common to every block, so only the offsets from it are drawn, in
    O(1) per run rather than by measuring all S blocks: the aligned
    offset X_a ~ N(0, sigma), then the best misaligned one by
    inverse-CDF sampling of the maximum of S-1 iid normals, whose CDF is
    Phi^(S-1). The aligned slot wins when X_a is the larger; otherwise
    the winner is uniform over the other slots, which are exchangeable.
    Without shadowing the aligned slot wins below a 0 dB floor, and at
    0 dB every slot ties and the lowest (gnb_beam, ue_beam) wins.
    """
    n = k_star.size
    s = plan.s
    if s == 1:
        return k_star
    sigma = cp.shadowing_sigma_db
    if sigma == 0.0 and cp.side_lobe_floor_db == 0.0:
        return np.full(n, plan.tie_break_order[0])
    x_aligned = rng.normal(0.0, sigma, size=n)
    # Phi(z)^(S-1) = 1 - q with q = -expm1(-E/(S-1)), E ~ Exp(1);
    # Phi^-1(1 - q) = -Phi^-1(q) keeps the upper tail accurate
    q = -np.expm1(-rng.standard_exponential(n) / (s - 1))
    q = np.clip(q, _Q_MIN, _Q_MAX)
    x_other = cp.side_lobe_floor_db - sigma * normal_inv_cdf(q)
    j = rng.integers(0, s - 1, size=n)
    return np.where(x_aligned > x_other, k_star, j + (j >= k_star))


def simulate_ia_batch(sc: Scenario, n_runs: int, rng: np.random.Generator) -> IaBatch:
    """Run ``n_runs`` independent initial accesses, vectorized.

    Per run draws: the true best pair (uniform per side, sectors being
    symmetric), the sweep's winning block, and the arrival instant
    (uniform cycle position and phase). The winner comes from an
    order-statistics draw in O(1) per run, exact in distribution for iid
    shadowing on every measured block; see :func:`draw_sweep_winner`.
    """
    if n_runs < 1:
        raise DomainError(f"n_runs={n_runs}: need at least one run")
    plan = _plan_for(sc)
    g_star = rng.integers(0, sc.gnb.elements, size=n_runs)
    u_star = rng.integers(0, sc.ue.elements, size=n_runs)
    k_star = u_star // plan.u_width * plan.f_g + g_star // plan.g_width
    best = draw_sweep_winner(plan, sc.channel, k_star, rng)

    start_burst = rng.integers(0, plan.cycle_bursts, size=n_runs)
    phase = rng.uniform(0.0, plan.t_ss_ms, size=n_runs)
    t_sweep = (
        (plan.t_ss_ms - phase)
        + (plan.bursts_per_sweep - 1) * plan.t_ss_ms
        + plan.det_offset_sym * plan.symbol_ms
    )
    chosen_g = plan.g_labels[best]
    if sc.mode is DeploymentMode.NSA:
        t_br = np.full(n_runs, float(sc.lte_latency_ms))
    elif plan.digital_gnb:
        t_br = np.full(n_runs, plan.digital_tail_sym * plan.symbol_ms)
    else:
        det_pos = (start_burst + plan.bursts_per_sweep - 1) % plan.cycle_bursts
        tails = plan.rach_end_sym(det_pos, chosen_g) - plan.det_offset_sym
        t_br = tails * plan.symbol_ms

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
    """Mean reporting delay after a sweep, uniform over cycle and beam."""
    if sc.mode is DeploymentMode.NSA:
        assert sc.lte_latency_ms is not None
        return sc.lte_latency_ms
    plan = _plan_for(sc)
    if plan.digital_gnb:
        tail = float(plan.digital_tail_sym)
    else:
        # the chosen step is uniform, so d of rach_end_sym is too
        ends = plan.rach_end_sym(0, np.arange(plan.f_g))
        tail = float(ends.mean() - plan.det_offset_sym)
    return tail * plan.symbol_ms


def oracle_expected_ia(sc: Scenario) -> float:
    """Closed-form mean initial-access delay.

    Sum of the mean wait for the next burst over the uniform arrival
    (half a cycle-averaged burst period, which is T_SS/2), the full
    bursts the sweep spans, the blocks into the last burst, and the mean
    reporting tail. Exact for analog and digital gNBs and for hybrid
    gNBs with equal beam groups; see the module docstring.
    """
    plan = _plan_for(sc)
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


@dataclass(frozen=True)
class TrackingPlan:
    """CSI occasion pattern over one hyperperiod, collisions resolved.

    ``occasion_keys`` holds the surviving occasions as sorted int64 keys
    ``direction * key_stride + occasion`` and ends in a sentinel past the
    last direction, so one ``searchsorted`` finds every run's next
    occasion. ``first_occasion`` is -1 for a direction with none.
    """

    s: int
    hyper_sym: int
    symbol_ms: float
    dropped_count: int
    key_stride: int
    occasion_keys: np.ndarray
    first_occasion: np.ndarray


@lru_cache(maxsize=128)
def _tracking_plan_for(sc: Scenario) -> TrackingPlan:
    plan = _plan_for(sc)
    period = sc.csi.t_csi_slots * SYMBOLS_PER_SLOT
    t_ss = plan.t_ss_sym
    s = plan.s
    n_pat = math.lcm(math.lcm(period, t_ss) // period, s)
    hyper = n_pat * period

    # nominal occasion m starts at symbol t and serves direction m % s; it
    # is dropped when it shares symbols and RBs with the sweep's SS blocks
    # of its own burst or of the next one
    m = np.arange(n_pat, dtype=np.int64)
    t = sc.csi.delta_t_symbols + m * period
    a = t % t_ss
    collides = (a < plan.blocks_per_burst * SS_BLOCK_SYMBOLS) | (
        a + sc.csi.n_symbols > t_ss
    )
    collides &= sc.csi.delta_f_rb < SS_BLOCK_RB
    # occasions lie in [0, hyper) because delta_t_symbols < period
    stride = hyper + 1
    kept = ~collides
    keys = np.sort(np.append(m[kept] % s * stride + t[kept], s * stride))
    starts = np.arange(s, dtype=np.int64) * stride
    first = keys[np.searchsorted(keys, starts)] - starts
    return TrackingPlan(
        s=s,
        hyper_sym=hyper,
        symbol_ms=plan.symbol_ms,
        dropped_count=int(np.count_nonzero(collides)),
        key_stride=stride,
        occasion_keys=keys,
        first_occasion=np.where(first < stride, first, -1),
    )


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
    if n_runs < 1:
        raise DomainError(f"n_runs={n_runs}: need at least one run")
    tp = _tracking_plan_for(sc)
    dirs = rng.integers(0, tp.s, size=n_runs)
    t0 = rng.uniform(0.0, tp.hyper_sym, size=n_runs)
    base = dirs * tp.key_stride
    # occasions are integer symbols, so "at or after t0" is ">= ceil(t0)"
    idx = np.searchsorted(
        tp.occasion_keys, base + np.ceil(t0).astype(np.int64), side="left"
    )
    ahead = tp.occasion_keys[idx] - base
    first = tp.first_occasion[dirs]
    nxt = np.where(ahead < tp.key_stride, ahead, first + tp.hyper_sym)
    waits = (nxt - t0) * tp.symbol_ms
    censored = (first < 0) | (waits > horizon_ms)
    waits[censored] = np.nan
    return waits, censored


def expected_tracking_delay_ms(sc: Scenario) -> float:
    """Mean tracking delay over uniform (direction, arrival), censoring-free.

    Renewal mean: for each direction, sum of squared gaps between
    surviving occasions over twice the hyperperiod. Directions with no
    surviving occasion are excluded (they only ever censor).
    """
    tp = _tracking_plan_for(sc)
    keys = tp.occasion_keys[:-1]
    if keys.size == 0:
        raise NotApplicableError("every direction's occasions collide away")
    dirs, t = np.divmod(keys, tp.key_stride)
    # gap from each occasion to the next of its direction; the last one
    # wraps to the first occasion of the next hyperperiod
    last = np.append(dirs[1:] != dirs[:-1], True)
    nxt = np.where(last, tp.first_occasion[dirs] + tp.hyper_sym, np.append(t[1:], 0))
    gaps = (nxt - t).astype(np.float64)
    served = np.bincount(dirs, minlength=tp.s) > 0
    sq_gaps = np.bincount(dirs, weights=gaps**2, minlength=tp.s)[served]
    return float(np.mean(sq_gaps / (2.0 * tp.hyper_sym))) * tp.symbol_ms


def omega_br(sc: Scenario) -> float:
    """Beam-reporting overhead: RACH symbols per reporting window.

    One uplink opportunity spans 2 symbols over the whole carrier; a
    directional (analog/hybrid) SA gNB must reserve one per direction
    group it can serve, a digital SA gNB or an NSA deployment needs one.
    The accounting window is ``omega_br_window_ms``.
    """
    if sc.mode is DeploymentMode.NSA or sc.gnb.arch is Architecture.DIGITAL:
        n_opps = 1
    else:
        n_opps = sweep_factor(sc.gnb)
    window_sym = sc.omega_br_window_ms * sc.numerology.symbols_per_ms
    return n_opps * RACH_SYMBOLS / window_sym
