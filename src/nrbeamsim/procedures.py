"""Beam management procedures: initial access, tracking, reporting, recovery.

Timing model
------------
A full downlink sweep needs S = sweep_length(gnb, ue) measurements. Each
SS burst carries B = min(S, n_ss) blocks back to back from the burst
start, and block i of burst j carries sweep slot ``(j*B + i) mod S``, so
the sweep wraps across bursts when S > n_ss and completes after
C = ceil(S / B) bursts with R = S - (C-1)*B blocks into the last one.
The UE arrives at a uniform instant of the sweep cycle: a uniform phase
within one burst period, an IA batch's first draw, plus a uniform burst
index within the cycle of P = S / gcd(B, S) bursts. An NSA batch draws
only the phase, so SA and NSA twins share their sweep times. SA link
recovery is a fresh initial access: it reads the IA batch itself.

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
blocks are dropped (a scenario that drops every one is refused), and the
delay is the wait for the next surviving occasion of the wanted
direction. A collision depends only on the
occasion's index modulo the q occasions that span whole burst periods,
so the tracking plan tabulates, per residue, the rounds to the next
surviving occasion: a run's wait is a ceiling division and one gather.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Optional

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
from .errors import check_domains, declare
from .frame import (
    CsiRsConfig,
    Numerology,
    RACH_SYMBOLS,
    SS_BLOCK_RB,
    SS_BLOCK_SYMBOLS,
    SsBurstConfig,
    carrier_resource_blocks,
)
from .link import ERFCX_SERIES_FROM, ChannelParams, edge_margin_db, erfcx_series

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
    mode: DeploymentMode = declare(DeploymentMode, DeploymentMode.SA)
    lte_latency_ms: Optional[float] = declare(float, None, LTE_LATENCY_VALUES_MS)
    omega_br_window_ms: float = declare(float, 200.0, lo=0, lo_open=True)
    label: Optional[str] = None
    # a sweep variant's values, which its id carries after "__"
    id_suffix: str = ""

    def __post_init__(self) -> None:
        check_domains(self, "deployment.")
        if self.mode is DeploymentMode.NSA and self.lte_latency_ms is None:
            raise ConfigurationError(
                "deployment.mode=NSA requires deployment.lte_latency_ms"
            )
        s = sweep_length(self.gnb, self.ue)
        if s > MAX_SWEEP_LENGTH:
            raise ConfigurationError(
                f"gnb.elements={self.gnb.elements} and ue.elements="
                f"{self.ue.elements} need a sweep of S={s} slots; at most "
                f"{MAX_SWEEP_LENGTH} are supported"
            )
        edge_margin_db(self.gnb, self.ue, self.channel)
        rb = self.carrier_rb
        if self.csi.delta_f_rb + self.csi.bandwidth_rb > rb:
            raise ConfigurationError(
                f"csi.delta_f_rb={self.csi.delta_f_rb} and csi.bandwidth_rb="
                f"{self.csi.bandwidth_rb} occupy RB {self.csi.delta_f_rb}.."
                f"{self.csi.delta_f_rb + self.csi.bandwidth_rb} but the carrier "
                f"has only {rb} RB"
            )
        if not any(self.csi_survives()):
            raise ConfigurationError(
                f"csi.t_csi_slots={self.csi.t_csi_slots}, csi.delta_t_symbols="
                f"{self.csi.delta_t_symbols} and ss.t_ss_ms={self.ss.t_ss_ms:g} put "
                f"every CSI-RS occasion on the SS blocks, so no direction is ever "
                f"tracked; csi.delta_f_rb >= {SS_BLOCK_RB} moves CSI-RS off their "
                f"resource blocks"
            )

    def csi_survives(self) -> Iterator[bool]:
        """Whether each residue class of CSI-RS occasions survives the SS
        blocks, in residue order: a collision depends only on the occasion's
        index modulo the q = t_ss / gcd(period, t_ss) occasions that span
        whole burst periods. An occasion of residue r starts (delta_t +
        r*period) % t_ss into its burst; it is dropped when it shares
        symbols and RBs with the sweep's SS blocks of its own burst or of
        the next one."""
        csi, t_ss = self.csi, self.t_ss_sym
        period = csi.period_symbols
        q = t_ss // math.gcd(period, t_ss)
        off_band = csi.delta_f_rb >= SS_BLOCK_RB
        blocks = min(sweep_length(self.gnb, self.ue), self.ss.n_ss)
        blocks_end = blocks * SS_BLOCK_SYMBOLS
        last_start = t_ss - csi.n_symbols
        first = csi.delta_t_symbols
        return (
            off_band or blocks_end <= a % t_ss <= last_start
            for a in range(first, first + q * period, period)
        )

    @property
    def carrier_rb(self) -> int:
        return carrier_resource_blocks(self.numerology, self.channel.bandwidth_hz)

    @property
    def t_ss_sym(self) -> int:
        """The SS burst period in symbols."""
        return round(self.ss.t_ss_ms * self.numerology.symbols_per_ms)

    @property
    def scenario_id(self) -> str:
        suffix = f"__{self.id_suffix}" if self.id_suffix else ""
        if self.label:
            return self.label + suffix
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
        return "_".join(parts) + suffix


@dataclass(frozen=True)
class SweepPlan:
    """Precomputed sweep geometry for one scenario.

    Sweep slot ``k`` steers the gNB to step ``k % f_g`` and the UE to step
    ``k // f_g``. Direction ``d`` of an end is swept in step ``d // width``
    of that end. The gNB steps the bursts sweep repeat every
    ``rach_cycle`` bursts. A run that starts at cycle burst ``b`` and
    chooses gNB step ``g`` waits ``tail_ms_twice[g + tail_shift[b]]``
    from determination to the end of its report.
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
    det_offset_sym: int

    @property
    def report_tail_sym(self) -> np.ndarray:
        """Report tail, from determination to the end of the RACH
        opportunity, when the chosen step lies ``d`` steps past the first
        one the sweep's last burst swept. NSA never reads it.

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

    @property
    def tail_shift(self) -> np.ndarray:
        """Per start burst ``b`` of the cycle, f_g minus the first step the
        sweep's last burst sweeps (mod f_g), in [1, f_g]: the chosen step
        plus this is its offset into ``tail_ms_twice``."""
        import numpy as np

        b = np.arange(self.cycle_bursts, dtype=np.int64)
        last_first = (b + self.bursts_per_sweep - 1) * self.blocks_per_burst
        return self.f_g - last_first % self.f_g

    @property
    def tail_ms_twice(self) -> np.ndarray:
        """``report_tail_sym`` in ms, repeated once, so an offset in
        [0, 2 f_g) reads the tail of that offset mod f_g."""
        import numpy as np

        tail_ms = self.report_tail_sym * self.symbol_ms
        return np.concatenate((tail_ms, tail_ms))


def sweep_plan(sc: Scenario) -> SweepPlan:
    """The scenario's sweep plan, built anew on each call."""
    gnb, ue = sc.gnb, sc.ue
    f_g = sweep_factor(gnb)
    s = f_g * sweep_factor(ue)
    b = min(s, sc.ss.n_ss)
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
        t_ss_sym=sc.t_ss_sym,
        symbol_ms=sc.numerology.symbol_ms,
        t_ss_ms=sc.ss.t_ss_ms,
        digital_gnb=gnb.arch is Architecture.DIGITAL,
        det_offset_sym=r * SS_BLOCK_SYMBOLS,
    )


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
    several lengths share them.

    log Phi(x) is log1p(-erfc(x / sqrt 2) / 2) from 0 up and, below, the
    log of erfcx(y) (the forms of `link._log_erfcx`) minus y^2 and log 2,
    with y = -x / sqrt 2, accurate in both tails. Its arithmetic runs on
    arrays and its ``math`` calls map over the nodes, as numpy's ``log``
    and ``log1p`` can differ from them in the last bit, so each node is
    bit for bit what one scalar evaluation gives (``log_normal_cdf`` in
    ``tests/reference.py``).
    """
    import numpy as np

    def each(f, a: np.ndarray) -> np.ndarray:
        return np.fromiter(map(f, a.tolist()), np.float64, a.size)

    z = np.linspace(-40.0, 40.0, 4001)
    log_w = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi) + math.log(z[1] - z[0])
    log_w[[0, -1]] += math.log(0.5)
    x = z + shift
    log_cdf = np.empty_like(x)
    upper = x >= 0.0
    sqrt2 = math.sqrt(2.0)
    log_cdf[upper] = each(math.log1p, -0.5 * each(math.erfc, x[upper] / sqrt2))
    # below 0, log Phi(x) = log erfcx(y) - y^2 - log 2 with y = -x / sqrt 2
    y = -x[~upper] / sqrt2
    near = y < ERFCX_SERIES_FROM
    yn, yf = y[near], y[~near]
    log_erfcx = np.empty_like(y)
    log_erfcx[near] = yn * yn + each(math.log, each(math.erfc, yn))
    log_erfcx[~near] = each(math.log, erfcx_series(yf)) - each(
        math.log, yf * math.sqrt(math.pi)
    )
    log_cdf[~upper] = log_erfcx - y * y - math.log(2.0)
    return log_w, log_cdf


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
    np.copyto(j, k_star, where=aligned)
    return j


def simulate_ia_batch(sc: Scenario, n_runs: int, rng: np.random.Generator) -> IaBatch:
    """Run ``n_runs`` independent initial accesses, vectorized.

    Per run draws, in this order: the arrival phase within the burst
    period; then, in SA, the true best pair (uniform per side, sectors
    being symmetric), the sweep's winning block and the arrival's burst
    of the cycle. NSA reports over the LTE leg and draws no more. The
    winner is drawn in O(1) per run, exact in distribution for iid
    shadowing on every measured block; see :func:`draw_sweep_winner`.
    """
    import numpy as np

    if n_runs < 1:
        raise DomainError(f"n_runs={n_runs}: need at least one run")
    plan = sweep_plan(sc)
    # (T_SS - phase) + (C - 1) T_SS + the blocks into the last burst
    t_sweep = rng.uniform(0.0, plan.t_ss_ms, size=n_runs)
    np.subtract(plan.t_ss_ms, t_sweep, out=t_sweep)
    t_sweep += (plan.bursts_per_sweep - 1) * plan.t_ss_ms
    t_sweep += plan.det_offset_sym * plan.symbol_ms
    if sc.mode is DeploymentMode.NSA:
        return _over_lte(sc, t_sweep)
    g_star = rng.integers(0, sc.gnb.elements, size=n_runs)
    u_star = rng.integers(0, sc.ue.elements, size=n_runs)
    # the aligned slot: UE step * f_g + gNB step, a step being the
    # direction over the beam-group width
    k_star = u_star // plan.u_width
    k_star *= plan.f_g
    k_star += g_star // plan.g_width
    chosen_g = draw_sweep_winner(plan, sc.channel, k_star, rng) % plan.f_g
    offset = plan.tail_shift[rng.integers(0, plan.cycle_bursts, size=n_runs)]
    offset += chosen_g
    t_br = plan.tail_ms_twice[offset]
    return IaBatch(t_sweep, t_br, t_sweep + t_br, chosen_g)


def _over_lte(sc: Scenario, t_sweep_ms: np.ndarray) -> IaBatch:
    """A batch whose report rides the LTE leg, at its latency exactly."""
    import numpy as np

    n = t_sweep_ms.size
    t_br = np.full(n, float(sc.lte_latency_ms))
    return IaBatch(t_sweep_ms, t_br, t_sweep_ms + t_br, np.full(n, -1, dtype=np.int64))


def simulate_rlf_batch(sc: Scenario, ia: IaBatch) -> IaBatch:
    """Link recovery from a failure at a uniform instant, for the scenario
    whose IA campaign is ``ia``. SA recovery is a fresh initial access, so
    it is ``ia`` itself; NSA recovers over the LTE leg in its latency."""
    import numpy as np

    if sc.mode is DeploymentMode.NSA:
        return _over_lte(sc, np.zeros(ia.t_sweep_ms.size))
    return ia


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


@dataclass(frozen=True)
class TrackingPlan:
    """CSI occasion pattern by residue class, collisions resolved.

    Nominal occasion ``m = j*s + d`` serves direction ``d`` in round ``j``
    of the round-robin and starts at symbol ``delta_t + m*period``. Its
    collision depends only on ``m % q``, as q = t_ss / gcd(period, t_ss)
    occasions span whole burst periods. ``skip[r]`` is the number of
    rounds from residue ``r`` to the next surviving residue
    ``(r + k*s) % q``, or -1 when none survives, so the first surviving
    occasion of ``d`` in round ``j`` or later is nominal occasion
    ``m + skip[m % q]*s``. The pattern repeats every ``hyper_sym``
    symbols, lcm(q, s) occasions, of which ``dropped_count`` collide.
    """

    s: int
    period_sym: int
    delta_t_sym: int
    hyper_sym: int
    symbol_ms: float
    dropped_count: int
    skip: tuple[int, ...]


def tracking_plan(sc: Scenario) -> TrackingPlan:
    """The scenario's tracking plan, built anew on each call; SA and NSA
    twins, and arrays of one sweep length, get equal plans."""
    csi = sc.csi
    period = csi.period_symbols
    s = sweep_length(sc.gnb, sc.ue)
    survives = list(sc.csi_survives())
    q = len(survives)
    # a direction steps through the residues of its class mod gcd(q, s) in
    # strides of s; two backward laps of each class's cycle show every
    # residue its next survivor, past the wrap too
    g = math.gcd(q, s)
    skip = [0] * q
    for c in range(g):
        cycle = [(c + k * s) % q for k in range(q // g)] * 2
        nxt = None
        for i in reversed(range(len(cycle))):
            if survives[cycle[i]]:
                nxt = i
            else:
                skip[cycle[i]] = -1 if nxt is None else nxt - i
    return TrackingPlan(
        s=s,
        period_sym=period,
        delta_t_sym=csi.delta_t_symbols,
        hyper_sym=math.lcm(q, s) * period,
        symbol_ms=sc.numerology.symbol_ms,
        dropped_count=math.lcm(q, s) // q * survives.count(False),
        skip=tuple(skip),
    )


def simulate_tracking_batch(
    tp: TrackingPlan, n_runs: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized tracking campaign on tracking plan ``tp``.

    Returns (wait_ms, censored); a run is censored when its direction has
    no surviving CSI-RS occasion, and its wait is NaN. The mean of the
    other waits estimates :func:`expected_tracking_delay_ms`.
    """
    import numpy as np

    if n_runs < 1:
        raise DomainError(f"n_runs={n_runs}: need at least one run")
    dirs = rng.integers(0, tp.s, size=n_runs)
    t0 = rng.uniform(0.0, tp.hyper_sym, size=n_runs)
    # occasions are integer symbols, so "at or after t0" is ">= ceil(t0)",
    # and the direction's first round j there is a ceiling division of its
    # lag behind round 0. That lag exceeds -round, since delta_t < period,
    # so j needs no clamp at 0.
    round_sym = tp.s * tp.period_sym
    lag = np.ceil(t0).astype(np.int64) - dirs * tp.period_sym
    m = (lag + (round_sym - 1 - tp.delta_t_sym)) // round_sym * tp.s + dirs
    skip = np.array(tp.skip)[m % len(tp.skip)]
    m += skip * tp.s
    waits = (m * tp.period_sym + tp.delta_t_sym - t0) * tp.symbol_ms
    censored = skip < 0
    waits[censored] = np.nan
    return waits, censored


def expected_tracking_delay_ms(sc: Scenario) -> float:
    """Mean tracking delay over uniform (direction, arrival), exactly.

    Renewal mean: for each direction, sum of squared gaps between
    surviving occasions over twice the hyperperiod. The s/g directions
    of a class mod g = gcd(q, s) share one cycle of residues, hence one
    set of gaps: 1 + skip[(r + s) % q] rounds after each surviving
    residue r. Directions with no surviving CSI-RS occasion are
    excluded, as their runs are the ones a campaign counts as censored.
    """
    tp = tracking_plan(sc)
    q = len(tp.skip)
    g = math.gcd(q, tp.s)
    sq_gaps = [0] * g
    for r, k in enumerate(tp.skip):
        if k == 0:
            gap = 1 + tp.skip[(r + tp.s) % q]
            sq_gaps[r % g] += gap * gap
    served = [x for x in sq_gaps if x]
    # the int sum is exact; a round is s*period symbols
    sq_sym = sum(served) * (tp.s * tp.period_sym) ** 2
    return sq_sym / (2 * tp.hyper_sym * len(served)) * tp.symbol_ms


def omega_br(sc: Scenario) -> float:
    """Beam-reporting overhead: RACH symbols per reporting window.

    One uplink opportunity spans 2 symbols over the whole carrier; an SA
    gNB must reserve one per steering step, an NSA deployment needs one.
    The accounting window is ``omega_br_window_ms``.
    """
    n_opps = 1 if sc.mode is DeploymentMode.NSA else sweep_factor(sc.gnb)
    window_sym = sc.omega_br_window_ms * sc.numerology.symbols_per_ms
    return n_opps * RACH_SYMBOLS / window_sym
