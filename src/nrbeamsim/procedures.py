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
ties break toward the lowest (gnb_beam, ue_beam). Reporting then waits
for the first matching RACH opportunity: a digital gNB listens in all
directions at once right after the burst's blocks, while an analog or
hybrid gNB offers one opportunity per direction its burst just swept, so
a report may have to wait for the burst that revisits the chosen
direction. In NSA the report (and the whole link recovery) instead rides
the LTE control plane at a fixed latency.

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
    Architecture,
    ArrayConfig,
    PowerModel,
    SteeringState,
    beamforming_gain_db,
    per_beam_power_penalty_db,
    sweep_factor,
    sweep_states,
)
from .errors import ConfigurationError, DomainError, NotApplicableError
from .frame import (
    CsiRsConfig,
    MAX_AGGREGATED_CARRIERS,
    Numerology,
    RACH_SYMBOLS,
    SS_BLOCK_RB,
    SS_BLOCK_SYMBOLS,
    SYMBOLS_PER_SLOT,
    SsBurstConfig,
    carrier_resource_blocks,
    check_mmwave_numerology,
)
from .link import ChannelParams, noise_power_dbm

LTE_LATENCY_VALUES_MS = (0.8, 4.0, 10.0, 40.0)
DEFAULT_OMEGA_BR_WINDOW_MS = 200.0


class DeploymentMode(str, Enum):
    SA = "SA"
    NSA = "NSA"


class ProcedureKind(str, Enum):
    INITIAL_ACCESS = "initial_access"
    TRACKING = "tracking"
    BEAM_REPORT = "beam_report"
    RLF_RECOVERY = "rlf_recovery"


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
    carriers: int = 1
    ue_distance_m: Optional[float] = None
    omega_br_window_ms: float = DEFAULT_OMEGA_BR_WINDOW_MS
    label: Optional[str] = None

    def __post_init__(self) -> None:
        check_mmwave_numerology(self.numerology, self.carrier_ghz)
        self.ss.check_window(self.numerology)
        if not 1 <= self.carriers <= MAX_AGGREGATED_CARRIERS:
            raise ConfigurationError(
                f"deployment.carriers={self.carriers}: must be in "
                f"1..{MAX_AGGREGATED_CARRIERS}"
            )
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
        if self.ue_distance_m is not None and self.ue_distance_m <= 0:
            raise ConfigurationError(
                f"deployment.ue_distance_m={self.ue_distance_m:g}: must be positive"
            )
        if self.omega_br_window_ms <= 0:
            raise ConfigurationError(
                f"deployment.omega_br_window_ms={self.omega_br_window_ms:g}: "
                "must be positive"
            )
        rb = self.carrier_rb
        if self.csi.delta_f_rb + self.csi.bandwidth_rb > rb:
            raise ConfigurationError(
                f"csi occupies RB {self.csi.delta_f_rb}.."
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
class ProcedureOutcome:
    """One simulated procedure run, all components in milliseconds.

    ``t_total_ms = t_sweep_ms + t_determination_ms + t_br_ms`` always
    holds; ``t_sweep_ms`` includes the wait for the sweep to start.
    ``chosen_pair`` labels are None on a wildcard (digital) side.
    """

    kind: ProcedureKind
    t_sweep_ms: float
    t_determination_ms: float
    t_br_ms: float
    t_total_ms: float
    chosen_pair: tuple[Optional[int], Optional[int]] = (None, None)
    misdetected: bool = False
    censored: bool = False


@dataclass(frozen=True)
class SweepPlan:
    """Precomputed sweep geometry and RACH wait tables for one scenario."""

    states_g: tuple[SteeringState, ...]
    states_u: tuple[SteeringState, ...]
    s: int
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
    aligned_snr_level_db_offset: float
    det_offset_sym: int
    digital_tail_sym: int
    wait_end_sym: Optional[np.ndarray]

    @property
    def f_g(self) -> int:
        return len(self.states_g)

    @property
    def f_u(self) -> int:
        return len(self.states_u)

    def pairs(self) -> list[tuple[Optional[int], Optional[int]]]:
        """Sweep slot labels in order, for stamping timelines."""
        return [
            (self.states_g[k % self.f_g].beam, self.states_u[k // self.f_g].beam)
            for k in range(self.s)
        ]

    def aligned_slot(self, g_star: int, u_star: int) -> int:
        ig = _covering_state_index(self.states_g, g_star)
        iu = _covering_state_index(self.states_u, u_star)
        return iu * self.f_g + ig

    def tail_symbols(self, det_cycle_pos: int, chosen_g_label: int) -> float:
        """Symbols from determination to the end of the matching RACH."""
        if self.digital_gnb:
            return float(self.digital_tail_sym)
        assert self.wait_end_sym is not None
        row = det_cycle_pos % self.rach_cycle
        return float(self.wait_end_sym[row, chosen_g_label] - self.det_offset_sym)

    def expected_tail_symbols(self) -> float:
        """Mean of :meth:`tail_symbols` over uniform (position, direction)."""
        if self.digital_gnb:
            return float(self.digital_tail_sym)
        assert self.wait_end_sym is not None
        return float(self.wait_end_sym.mean() - self.det_offset_sym)


def _covering_state_index(states: tuple[SteeringState, ...], direction: int) -> int:
    if len(states) == 1 and states[0].covers is None:
        return 0
    for i, st in enumerate(states):
        if st.covers_direction(direction):
            return i
    raise DomainError(f"direction {direction} not covered by any steering state")


@lru_cache(maxsize=128)
def _plan_for(sc: Scenario) -> SweepPlan:
    states_g = tuple(sweep_states(sc.gnb))
    states_u = tuple(sweep_states(sc.ue))
    f_g, f_u = len(states_g), len(states_u)
    s = f_g * f_u
    b = min(s, sc.ss.n_ss)
    c = math.ceil(s / b)
    r = s - (c - 1) * b
    p = s // math.gcd(b, s)
    t_ss_sym = round(sc.ss.t_ss_ms * sc.numerology.symbols_per_ms)
    digital_gnb = sc.gnb.arch is Architecture.DIGITAL

    g_labels = np.array(
        [
            states_g[k % f_g].beam if states_g[k % f_g].beam is not None else -1
            for k in range(s)
        ],
        dtype=np.int64,
    )
    u_labels = np.array(
        [
            states_u[k // f_g].beam if states_u[k // f_g].beam is not None else -1
            for k in range(s)
        ],
        dtype=np.int64,
    )
    tie_break = np.lexsort((u_labels, g_labels)).astype(np.int64)

    det_offset = r * SS_BLOCK_SYMBOLS
    digital_tail = (b - r) * SS_BLOCK_SYMBOLS + RACH_SYMBOLS

    wait_end: Optional[np.ndarray] = None
    rach_cycle = 1
    if not digital_gnb:
        rach_cycle = f_g // math.gcd(b, f_g)
        covered = min(b, f_g)
        wait_end = np.empty((rach_cycle, f_g), dtype=np.float64)
        for j in range(rach_cycle):
            for g in range(f_g):
                for k in range(rach_cycle + 1):
                    start = ((j + k) * b) % f_g
                    pos = (g - start) % f_g
                    if pos < covered:
                        wait_end[j, g] = (
                            k * t_ss_sym
                            + b * SS_BLOCK_SYMBOLS
                            + RACH_SYMBOLS * (pos + 1)
                        )
                        break
                else:
                    raise AssertionError("direction never swept; unreachable")

    gain = (
        beamforming_gain_db(sc.gnb)
        + beamforming_gain_db(sc.ue)
        - per_beam_power_penalty_db(sc.gnb)
    )
    level = sc.channel.tx_power_dbm + gain - noise_power_dbm(sc.channel)

    return SweepPlan(
        states_g=states_g,
        states_u=states_u,
        s=s,
        blocks_per_burst=b,
        bursts_per_sweep=c,
        last_burst_blocks=r,
        cycle_bursts=p,
        rach_cycle=rach_cycle,
        t_ss_sym=t_ss_sym,
        symbol_ms=sc.numerology.symbol_ms,
        t_ss_ms=sc.ss.t_ss_ms,
        digital_gnb=digital_gnb,
        g_labels=g_labels,
        u_labels=u_labels,
        tie_break_order=tie_break,
        aligned_snr_level_db_offset=level,
        det_offset_sym=det_offset,
        digital_tail_sym=digital_tail,
        wait_end_sym=wait_end,
    )


def sweep_plan(sc: Scenario) -> SweepPlan:
    return _plan_for(sc)


def _draw_distances(sc: Scenario, rng: np.random.Generator, n: int) -> np.ndarray:
    if sc.ue_distance_m is not None:
        return np.full(n, float(sc.ue_distance_m))
    r = sc.channel.cell_radius_m * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    return np.maximum(r, 0.1)


@dataclass
class IaBatch:
    """Vectorized outcomes of one initial-access or recovery campaign."""

    t_sweep_ms: np.ndarray
    t_br_ms: np.ndarray
    t_total_ms: np.ndarray
    misdetected: np.ndarray
    chosen_g: np.ndarray
    chosen_u: np.ndarray


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
    base_db: np.ndarray,
    k_star: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Winning sweep slot and its SNR in dB for each run of a sweep.

    ``base_db`` is each run's mean SNR through the aligned pair, whose
    sweep slot is ``k_star``; the other S-1 slots sit ``side_lobe_floor_db``
    lower, and every block carries iid shadowing. The winner is drawn in
    O(1) per run rather than by measuring all S blocks: the aligned SNR
    X_a, then the best misaligned one by inverse-CDF sampling of the
    maximum of S-1 iid normals, whose CDF is Phi^(S-1). The aligned slot
    wins when X_a is the larger; otherwise the winner is uniform over the
    other slots, which are exchangeable. Without shadowing the aligned
    slot wins below a 0 dB floor, and at 0 dB every slot ties and the
    lowest (gnb_beam, ue_beam) wins.
    """
    n = base_db.size
    s = plan.s
    sigma = cp.shadowing_sigma_db
    x_aligned = base_db + rng.normal(0.0, sigma, size=n)
    if s == 1:
        return k_star, x_aligned
    # Phi(z)^(S-1) = 1 - q with q = -expm1(-E/(S-1)), E ~ Exp(1);
    # Phi^-1(1 - q) = -Phi^-1(q) keeps the upper tail accurate
    q = -np.expm1(-rng.standard_exponential(n) / (s - 1))
    q = np.clip(q, _Q_MIN, _Q_MAX)
    x_other = base_db + cp.side_lobe_floor_db - sigma * normal_inv_cdf(q)
    j = rng.integers(0, s - 1, size=n)
    if sigma == 0.0 and cp.side_lobe_floor_db == 0.0:
        best = np.full(n, plan.tie_break_order[0])
    else:
        best = np.where(x_aligned > x_other, k_star, j + (j >= k_star))
    return best, np.maximum(x_aligned, x_other)


def simulate_ia_batch(sc: Scenario, n_runs: int, rng: np.random.Generator) -> IaBatch:
    """Run ``n_runs`` independent initial accesses, vectorized.

    Per run draws: UE distance (fixed or uniform over the disk), the true
    best pair (uniform per side, sectors being symmetric), the sweep's
    winning block and its SNR, and the arrival instant (uniform cycle
    position and phase). The winner comes from an order-statistics draw
    in O(1) per run, exact in distribution for iid shadowing on every
    measured block; see :func:`draw_sweep_winner`.
    """
    if n_runs < 1:
        raise DomainError(f"n_runs={n_runs}: need at least one run")
    plan = _plan_for(sc)
    cp = sc.channel
    ig_of_dir = np.array(
        [_covering_state_index(plan.states_g, g) for g in range(sc.gnb.elements)],
        dtype=np.int64,
    )
    iu_of_dir = np.array(
        [_covering_state_index(plan.states_u, u) for u in range(sc.ue.elements)],
        dtype=np.int64,
    )

    r = _draw_distances(sc, rng, n_runs)
    g_star = rng.integers(0, sc.gnb.elements, size=n_runs)
    u_star = rng.integers(0, sc.ue.elements, size=n_runs)
    k_star = iu_of_dir[u_star] * plan.f_g + ig_of_dir[g_star]
    pl = cp.pl_intercept_db + 10.0 * cp.pl_exponent * np.log10(r)
    best, top = draw_sweep_winner(
        plan, cp, plan.aligned_snr_level_db_offset - pl, k_star, rng
    )

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
        rows = det_pos % plan.rach_cycle
        assert plan.wait_end_sym is not None
        tails = plan.wait_end_sym[rows, chosen_g] - plan.det_offset_sym
        t_br = tails * plan.symbol_ms

    return IaBatch(
        t_sweep_ms=t_sweep,
        t_br_ms=t_br,
        t_total_ms=t_sweep + t_br,
        misdetected=top < cp.detection_threshold_db,
        chosen_g=chosen_g,
        chosen_u=plan.u_labels[best],
    )


def run_initial_access(sc: Scenario, rng: np.random.Generator) -> ProcedureOutcome:
    """One initial access: sweep, determine, report."""
    batch = simulate_ia_batch(sc, 1, rng)
    g = int(batch.chosen_g[0])
    u = int(batch.chosen_u[0])
    return ProcedureOutcome(
        kind=ProcedureKind.INITIAL_ACCESS,
        t_sweep_ms=float(batch.t_sweep_ms[0]),
        t_determination_ms=0.0,
        t_br_ms=float(batch.t_br_ms[0]),
        t_total_ms=float(batch.t_sweep_ms[0] + batch.t_br_ms[0]),
        chosen_pair=(g if g >= 0 else None, u if u >= 0 else None),
        misdetected=bool(batch.misdetected[0]),
    )


def run_rlf_recovery(sc: Scenario, rng: np.random.Generator) -> ProcedureOutcome:
    """Recover from a link failure at a uniform instant.

    SA re-runs the full initial-access sweep; NSA signals over the LTE
    leg and recovers in exactly the configured latency.
    """
    if sc.mode is DeploymentMode.NSA:
        assert sc.lte_latency_ms is not None
        return ProcedureOutcome(
            kind=ProcedureKind.RLF_RECOVERY,
            t_sweep_ms=0.0,
            t_determination_ms=0.0,
            t_br_ms=sc.lte_latency_ms,
            t_total_ms=sc.lte_latency_ms,
        )
    ia = run_initial_access(sc, rng)
    return ProcedureOutcome(
        kind=ProcedureKind.RLF_RECOVERY,
        t_sweep_ms=ia.t_sweep_ms,
        t_determination_ms=ia.t_determination_ms,
        t_br_ms=ia.t_br_ms,
        t_total_ms=ia.t_total_ms,
        chosen_pair=ia.chosen_pair,
        misdetected=ia.misdetected,
    )


def simulate_rlf_batch(sc: Scenario, n_runs: int, rng: np.random.Generator) -> IaBatch:
    """Vectorized link-recovery campaign; see :func:`run_rlf_recovery`."""
    if sc.mode is DeploymentMode.NSA:
        assert sc.lte_latency_ms is not None
        const = np.full(n_runs, float(sc.lte_latency_ms))
        zero = np.zeros(n_runs)
        return IaBatch(
            t_sweep_ms=zero,
            t_br_ms=const,
            t_total_ms=const.copy(),
            misdetected=np.zeros(n_runs, dtype=bool),
            chosen_g=np.full(n_runs, -1, dtype=np.int64),
            chosen_u=np.full(n_runs, -1, dtype=np.int64),
        )
    return simulate_ia_batch(sc, n_runs, rng)


def beam_report_delay(
    sc: Scenario,
    determination_time_ms: float,
    best_pair: tuple[int, int],
) -> float:
    """Delay from a determination instant to the end of its report.

    ``determination_time_ms`` is absolute time on the burst grid (burst 0
    starts at 0). SA waits for the first RACH opportunity at or after the
    instant whose direction covers ``best_pair``'s gNB beam; NSA returns
    the LTE leg latency exactly.
    """
    if sc.mode is DeploymentMode.NSA:
        assert sc.lte_latency_ms is not None
        return sc.lte_latency_ms
    if determination_time_ms < 0:
        raise DomainError(
            f"determination_time_ms={determination_time_ms:g}: must be >= 0"
        )
    g, u = best_pair
    if not 0 <= g < sc.gnb.elements or not 0 <= u < sc.ue.elements:
        raise DomainError(f"best_pair={best_pair}: outside the codebooks")
    plan = _plan_for(sc)
    det_sym = determination_time_ms / plan.symbol_ms
    j0 = int(det_sym // plan.t_ss_sym)
    blocks_end = plan.blocks_per_burst * SS_BLOCK_SYMBOLS
    if plan.digital_gnb:
        for j in (j0, j0 + 1):
            start = j * plan.t_ss_sym + blocks_end
            if start >= det_sym:
                return (start + RACH_SYMBOLS - det_sym) * plan.symbol_ms
        raise AssertionError("unreachable: next burst always has an opportunity")
    label = _covering_state_index(plan.states_g, g)
    covered = min(plan.blocks_per_burst, plan.f_g)
    for j in range(j0, j0 + plan.rach_cycle + 2):
        pattern_start = (j * plan.blocks_per_burst) % plan.f_g
        pos = (label - pattern_start) % plan.f_g
        if pos >= covered:
            continue
        start = j * plan.t_ss_sym + blocks_end + RACH_SYMBOLS * pos
        if start >= det_sym:
            return (start + RACH_SYMBOLS - det_sym) * plan.symbol_ms
    raise AssertionError("unreachable: direction is swept every rach_cycle bursts")


def expected_beam_report_delay_ms(sc: Scenario) -> float:
    """Mean reporting delay after a sweep, uniform over cycle and beam."""
    if sc.mode is DeploymentMode.NSA:
        assert sc.lte_latency_ms is not None
        return sc.lte_latency_ms
    plan = _plan_for(sc)
    return plan.expected_tail_symbols() * plan.symbol_ms


def oracle_expected_ia(sc: Scenario) -> float:
    """Closed-form mean initial-access delay.

    Sum of the mean wait for the next burst over the uniform arrival
    (half a cycle-averaged burst period, which is T_SS/2), the full
    bursts the sweep spans, the blocks into the last burst, and the mean
    reporting tail. Exact for analog and digital gNBs and for hybrid
    gNBs with equal beam groups; see the module docstring.
    """
    plan = _plan_for(sc)
    if sc.mode is DeploymentMode.NSA:
        assert sc.lte_latency_ms is not None
        tail_ms = sc.lte_latency_ms
    else:
        tail_ms = plan.expected_tail_symbols() * plan.symbol_ms
    return (
        sc.ss.t_ss_ms / 2.0
        + (plan.bursts_per_sweep - 1) * sc.ss.t_ss_ms
        + plan.det_offset_sym * plan.symbol_ms
        + tail_ms
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

    ``occasion_keys`` flattens ``surviving`` into sorted int64 keys
    ``direction * key_stride + occasion`` and ends in a sentinel past the
    last direction, so one ``searchsorted`` finds every run's next
    occasion. ``first_occasion`` is -1 for a direction with none.
    """

    s: int
    period_sym: int
    hyper_sym: int
    symbol_ms: float
    surviving: tuple[tuple[float, ...], ...]
    dropped_count: int
    key_stride: int
    occasion_keys: np.ndarray
    first_occasion: np.ndarray

    def directions(self) -> int:
        return self.s


@lru_cache(maxsize=128)
def _tracking_plan_for(sc: Scenario) -> TrackingPlan:
    plan = _plan_for(sc)
    period = sc.csi.t_csi_slots * SYMBOLS_PER_SLOT
    t_ss = plan.t_ss_sym
    s = plan.s
    per_burst = math.lcm(period, t_ss) // period
    n_pat = math.lcm(per_burst, s)
    hyper = n_pat * period

    blocks_span = plan.blocks_per_burst * SS_BLOCK_SYMBOLS
    freq_overlap = sc.csi.delta_f_rb < SS_BLOCK_RB

    # occasions lie in [0, hyper) because delta_t_symbols < period
    stride = hyper + 1
    surviving: list[list[float]] = [[] for _ in range(s)]
    keys = [s * stride]
    dropped = 0
    for m_idx in range(n_pat):
        t = sc.csi.delta_t_symbols + m_idx * period
        a = t % t_ss
        collides = freq_overlap and (
            a < blocks_span or a + sc.csi.n_symbols > t_ss
        )
        if collides:
            dropped += 1
            continue
        surviving[m_idx % s].append(float(t))
        keys.append(m_idx % s * stride + t)
    return TrackingPlan(
        s=s,
        period_sym=period,
        hyper_sym=hyper,
        symbol_ms=plan.symbol_ms,
        surviving=tuple(tuple(v) for v in surviving),
        dropped_count=dropped,
        key_stride=stride,
        occasion_keys=np.sort(np.array(keys, dtype=np.int64)),
        first_occasion=np.array(
            [occ[0] if occ else -1 for occ in surviving], dtype=np.int64
        ),
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


def run_tracking(
    sc: Scenario,
    target_direction: int,
    rng: np.random.Generator,
    horizon_ms: float = 500.0,
) -> ProcedureOutcome:
    """Wait for the next surviving CSI occasion of one sweep direction."""
    tp = _tracking_plan_for(sc)
    if not 0 <= target_direction < tp.s:
        raise DomainError(
            f"target_direction={target_direction}: sweep has {tp.s} directions"
        )
    t0 = rng.uniform(0.0, tp.hyper_sym)
    occ = tp.surviving[target_direction]
    wait_ms = math.nan
    censored = True
    if occ:
        idx = np.searchsorted(np.asarray(occ), t0, side="left")
        nxt = occ[0] + tp.hyper_sym if idx == len(occ) else occ[idx]
        wait_ms = (nxt - t0) * tp.symbol_ms
        censored = wait_ms > horizon_ms
        if censored:
            wait_ms = math.nan
    return ProcedureOutcome(
        kind=ProcedureKind.TRACKING,
        t_sweep_ms=0.0,
        t_determination_ms=0.0,
        t_br_ms=0.0,
        t_total_ms=wait_ms,
        censored=censored,
    )


def expected_tracking_delay_ms(sc: Scenario) -> float:
    """Mean tracking delay over uniform (direction, arrival), censoring-free.

    Renewal mean: for each direction, sum of squared gaps between
    surviving occasions over twice the hyperperiod. Directions with no
    surviving occasion are excluded (they only ever censor).
    """
    tp = _tracking_plan_for(sc)
    means = []
    for occ in tp.surviving:
        if not occ:
            continue
        arr = np.asarray(occ, dtype=np.float64)
        gaps = np.diff(np.append(arr, arr[0] + tp.hyper_sym))
        means.append(float((gaps**2).sum() / (2.0 * tp.hyper_sym)))
    if not means:
        raise NotApplicableError("every direction's occasions collide away")
    return float(np.mean(means)) * tp.symbol_ms


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
