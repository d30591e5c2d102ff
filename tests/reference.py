"""Reference implementations the vectorized campaign code is tested against.

These are the straightforward forms of the model: slow, but written so
that each line can be checked against the model by eye.

* The timelines place every SS block, CSI-RS occasion and RACH
  opportunity on the symbol/RB grid one event at a time; the walkers
  read report waits, surviving CSI occasions and grid overheads straight
  off them, for the closed forms in the package to be checked against.
* The samplers measure every block of a sweep, or scan the runs once per
  direction over the walked CSI occasions, where the package draws or
  looks up in one vectorized step; the drop sampler estimates the
  misdetection probability the package gives in closed form.
* The formula batches are the IA and recovery batches as first written,
  one plain expression per quantity, which the package's in-place
  rewrites must reproduce bit for bit.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from nrbeamsim.codebook import (
    Architecture,
    ArrayConfig,
    beamforming_gain_db,
    sweep_factor,
)
from nrbeamsim.errors import ConfigurationError, DomainError
from nrbeamsim.frame import (
    RACH_SYMBOLS,
    SS_BLOCK_RB,
    SS_BLOCK_SYMBOLS,
    SYMBOLS_PER_SLOT,
    CsiRsConfig,
    Numerology,
    SsBurstConfig,
    carrier_resource_blocks,
)
from nrbeamsim.link import ChannelParams
from nrbeamsim.procedures import (
    DeploymentMode,
    IaBatch,
    p_correct_beam,
    sweep_plan,
)


def symbols_in_ms(num: Numerology, duration_ms: float) -> int:
    """Convert a duration to a whole number of OFDM symbols.

    The configured periodicities are all exact multiples of the symbol
    duration, so the conversion must land on an integer.
    """
    exact = duration_ms * num.symbols_per_ms
    rounded = round(exact)
    if abs(exact - rounded) > 1e-6:
        raise ConfigurationError(
            f"duration {duration_ms:g} ms is not a whole number of symbols "
            f"at numerology n={num.n}"
        )
    return int(rounded)


class EventKind(str, Enum):
    SS_BLOCK = "ss_block"
    CSI_RS = "csi_rs"
    RACH = "rach"


@dataclass(frozen=True)
class TimelineEvent:
    """One scheduled transmission on the symbol/RB grid.

    ``gnb_beam``/``ue_beam`` are steering labels; ``None`` means the event
    is not direction-selective on that side (wildcard).
    """

    start_symbol: int
    duration_symbols: int
    kind: EventKind
    gnb_beam: Optional[int] = None
    ue_beam: Optional[int] = None
    rb_start: int = 0
    rb_count: int = SS_BLOCK_RB

    @property
    def end_symbol(self) -> int:
        return self.start_symbol + self.duration_symbols


@dataclass(frozen=True)
class Timeline:
    """Immutable, time-sorted event list over a finite horizon."""

    horizon_symbols: int
    symbol_us: float
    events: tuple[TimelineEvent, ...] = ()
    burst_period_symbols: Optional[int] = None

    def of_kind(self, kind: EventKind) -> tuple[TimelineEvent, ...]:
        return tuple(e for e in self.events if e.kind is kind)


def _spans_overlap(a0: int, a1: int, b0: int, b1: int) -> bool:
    return a0 < b1 and b0 < a1


Labels = Sequence[tuple[Optional[int], Optional[int]]]


def build_ss_timeline(
    cfg: SsBurstConfig,
    num: Numerology,
    horizon_ms: float,
    sweep: Optional[Labels] = None,
) -> Timeline:
    """Place SS blocks for every burst start inside the horizon.

    Without ``sweep`` each burst carries the full configured ``n_ss``
    blocks with wildcard labels, the network-side view overheads count.
    With ``sweep`` (the (gnb_beam, ue_beam) labels of one full sweep) each
    burst carries ``min(len(sweep), n_ss)`` blocks and block ``i`` of
    burst ``j`` is stamped with sweep slot ``(j * blocks + i) % len(sweep)``,
    so a sweep longer than one burst wraps onto the next.
    """
    cfg.check_window(num)
    t_ss_sym = symbols_in_ms(num, cfg.t_ss_ms)
    horizon_sym = symbols_in_ms(num, horizon_ms)
    if horizon_sym < t_ss_sym:
        raise ConfigurationError(
            f"horizon_ms={horizon_ms:g}: must cover at least one burst period "
            f"({cfg.t_ss_ms:g} ms)"
        )
    blocks = cfg.n_ss if sweep is None else min(len(sweep), cfg.n_ss)
    events = []
    for j in range(horizon_sym // t_ss_sym):
        for i in range(blocks):
            g, u = (None, None) if sweep is None else sweep[(j * blocks + i) % len(sweep)]
            events.append(
                TimelineEvent(
                    start_symbol=j * t_ss_sym + i * SS_BLOCK_SYMBOLS,
                    duration_symbols=SS_BLOCK_SYMBOLS,
                    kind=EventKind.SS_BLOCK,
                    gnb_beam=g,
                    ue_beam=u,
                )
            )
    return Timeline(horizon_sym, num.symbol_us, tuple(events), t_ss_sym)


def build_csi_timeline(
    cfg: CsiRsConfig,
    ss: Timeline,
    num: Numerology,
    horizon_ms: float,
    carrier_rb: Optional[int] = None,
    sweep: Optional[Labels] = None,
) -> Timeline:
    """Place CSI-RS occasions, dropping any that collide with SS blocks.

    Occasions sit on the grid ``delta_t_symbols + k * t_csi_slots * 14``.
    An occasion whose symbols and resource blocks both overlap an SS block
    is dropped (SS transmission wins the grid). Direction labels cycle
    over ``sweep`` by nominal occasion index, so a dropped occasion skips
    its direction's turn rather than shifting the pattern.
    """
    if carrier_rb is None:
        carrier_rb = carrier_resource_blocks(num)
    if cfg.delta_f_rb + cfg.bandwidth_rb > carrier_rb:
        raise ConfigurationError(
            f"csi occupies RB {cfg.delta_f_rb}..{cfg.delta_f_rb + cfg.bandwidth_rb}"
            f" but the carrier has only {carrier_rb} RB"
        )
    horizon_sym = symbols_in_ms(num, horizon_ms)
    period = cfg.t_csi_slots * SYMBOLS_PER_SLOT
    ss_blocks = ss.of_kind(EventKind.SS_BLOCK)
    block_starts = [b.start_symbol for b in ss_blocks]
    events = []
    for idx, t in enumerate(range(cfg.delta_t_symbols, horizon_sym, period)):
        if t + cfg.n_symbols > horizon_sym:
            continue
        # only blocks starting less than one block before the occasion and
        # before its end can share symbols with it
        lo = bisect.bisect_right(block_starts, t - SS_BLOCK_SYMBOLS)
        hi = bisect.bisect_left(block_starts, t + cfg.n_symbols)
        collides = any(
            _spans_overlap(t, t + cfg.n_symbols, b.start_symbol, b.end_symbol)
            and _spans_overlap(
                cfg.delta_f_rb,
                cfg.delta_f_rb + cfg.bandwidth_rb,
                b.rb_start,
                b.rb_start + b.rb_count,
            )
            for b in ss_blocks[lo:hi]
        )
        if collides:
            continue
        g, u = (None, None) if sweep is None else sweep[idx % len(sweep)]
        events.append(
            TimelineEvent(
                start_symbol=t,
                duration_symbols=cfg.n_symbols,
                kind=EventKind.CSI_RS,
                gnb_beam=g,
                ue_beam=u,
                rb_start=cfg.delta_f_rb,
                rb_count=cfg.bandwidth_rb,
            )
        )
    return Timeline(horizon_sym, num.symbol_us, tuple(events), ss.burst_period_symbols)


def build_rach_timeline(
    ss: Timeline,
    gnb_is_directional: bool,
    num: Numerology,
    n_directions: int = 1,
    carrier_rb: Optional[int] = None,
) -> Timeline:
    """Schedule RACH opportunities after each burst's last block.

    A digital gNB listens in every direction at once, so one wildcard
    opportunity per burst suffices. A gNB that must steer (analog or
    hybrid) gets one opportunity per distinct direction label its burst
    carried, back to back in order of first appearance; blocks with
    wildcard labels fall back to the full ``n_directions`` fan.
    """
    if ss.burst_period_symbols is None:
        raise ConfigurationError("rach timeline needs an SS timeline with a burst period")
    if carrier_rb is None:
        carrier_rb = carrier_resource_blocks(num)
    period = ss.burst_period_symbols
    by_burst: dict[int, list[TimelineEvent]] = {}
    for b in ss.of_kind(EventKind.SS_BLOCK):
        by_burst.setdefault(b.start_symbol // period, []).append(b)

    events = []
    for j in sorted(by_burst):
        blocks = sorted(by_burst[j], key=lambda e: e.start_symbol)
        tail = max(b.end_symbol for b in blocks)
        if not gnb_is_directional:
            dirs: list[Optional[int]] = [None]
        elif any(b.gnb_beam is None for b in blocks):
            dirs = list(range(n_directions))
        else:
            dirs = list(dict.fromkeys(b.gnb_beam for b in blocks))
        for m, d in enumerate(dirs):
            start = tail + m * RACH_SYMBOLS
            if start + RACH_SYMBOLS > ss.horizon_symbols:
                break
            events.append(
                TimelineEvent(
                    start_symbol=start,
                    duration_symbols=RACH_SYMBOLS,
                    kind=EventKind.RACH,
                    gnb_beam=d,
                    rb_count=carrier_rb,
                )
            )
    return Timeline(ss.horizon_symbols, num.symbol_us, tuple(events), period)


def overhead(
    tl: Timeline,
    kinds: Iterable[EventKind],
    window_ms: float,
    total_rb: int,
) -> float:
    """Fraction of the time-frequency grid spent on the selected kinds.

    Counts the symbol*RB area of every event of a kind in ``kinds`` whose
    start falls inside the window, over the window's total area.
    """
    if window_ms <= 0:
        raise ConfigurationError(f"window_ms={window_ms:g}: must be positive")
    window_sym = round(window_ms * 1000.0 / tl.symbol_us)
    kindset = set(kinds)
    area = 0
    for e in tl.events:
        if e.kind in kindset and e.start_symbol < window_sym:
            if e.rb_count > total_rb:
                raise ConfigurationError(
                    f"total_rb={total_rb} is narrower than a counted event "
                    f"({e.rb_count} RB)"
                )
            area += e.duration_symbols * e.rb_count
    return area / (window_sym * total_rb)


def step_groups(array: ArrayConfig) -> list[range]:
    """Directions each steering step of a full scan covers, in sweep order."""
    m = array.elements
    if array.arch is Architecture.DIGITAL:
        return [range(m)]
    width = 1 if array.arch is Architecture.ANALOG else array.k_bf
    return [range(i, min(i + width, m)) for i in range(0, m, width)]


def covering_step(array: ArrayConfig, direction: int) -> int:
    """Index of the steering step whose group holds ``direction``."""
    for i, group in enumerate(step_groups(array)):
        if direction in group:
            return i
    raise DomainError(f"direction {direction} not covered by any steering step")


def sweep_labels(sc) -> list[tuple[Optional[int], Optional[int]]]:
    """(gnb_beam, ue_beam) of each sweep slot: UE outer, gNB inner; None
    on a digital side, which needs no steering."""
    def labels(array: ArrayConfig) -> list[Optional[int]]:
        if array.arch is Architecture.DIGITAL:
            return [None]
        return list(range(sweep_factor(array)))

    return [(g, u) for u in labels(sc.ue) for g in labels(sc.gnb)]


def first_rach_end(
    rach: Timeline, det_sym: float, g_label: Optional[int], skip: int = 0
) -> int:
    """End symbol of the first opportunity at or after ``det_sym`` that
    serves gNB beam ``g_label`` (any opportunity when it is None); the
    first ``skip`` events are known to start too early."""
    for i in range(skip, len(rach.events)):
        ev = rach.events[i]
        if ev.start_symbol >= det_sym and ev.gnb_beam in (None, g_label):
            return ev.end_symbol
    raise AssertionError("no opportunity found within the horizon")


def rach_tails_walked(sc) -> np.ndarray:
    """Report tails read off literal SS and RACH timelines.

    Entry ``[c, g]`` is the number of symbols from determination to the
    end of the report's opportunity when the sweep starts in burst ``c``
    of the cycle and the gNB chose beam ``g`` (one column for a digital
    gNB). Determination is at the end of the sweep's last block.
    """
    plan = sweep_plan(sc)
    directional = sc.gnb.arch is not Architecture.DIGITAL
    bursts = plan.cycle_bursts + plan.bursts_per_sweep + plan.rach_cycle + 1
    ss = build_ss_timeline(sc.ss, sc.numerology, bursts * sc.ss.t_ss_ms, sweep_labels(sc))
    rach = build_rach_timeline(ss, directional, sc.numerology, n_directions=plan.f_g)
    starts = [e.start_symbol for e in rach.events]
    labels = list(range(plan.f_g)) if directional else [None]
    tails = np.empty((plan.cycle_bursts, len(labels)), dtype=np.int64)
    for c in range(plan.cycle_bursts):
        det_sym = (c + plan.bursts_per_sweep - 1) * plan.t_ss_sym + plan.det_offset_sym
        skip = bisect.bisect_left(starts, det_sym)
        for i, g in enumerate(labels):
            tails[c, i] = first_rach_end(rach, det_sym, g, skip) - det_sym
    return tails


def surviving_csi_occasions(sc) -> tuple[int, int, dict[int, list[int]]]:
    """CSI occasions that survive the SS collisions over one hyperperiod.

    The pattern repeats once the burst grid and the round-robin of
    directions realign, after ``lcm(t_ss, s * t_csi)`` symbols. Returns
    that hyperperiod, the number of nominal occasions dropped in it, and
    each direction's surviving start symbols in time order; a direction
    with none is absent.
    """
    plan = sweep_plan(sc)
    period = sc.csi.t_csi_slots * SYMBOLS_PER_SLOT
    hyper = math.lcm(plan.t_ss_sym, plan.s * period)
    # one more burst, so occasions near the end meet the next burst's blocks
    horizon_ms = (hyper + plan.t_ss_sym) * plan.symbol_ms
    ss = build_ss_timeline(sc.ss, sc.numerology, horizon_ms, sweep_labels(sc))
    csi = build_csi_timeline(
        sc.csi,
        ss,
        sc.numerology,
        horizon_ms,
        carrier_rb=sc.carrier_rb,
        sweep=[(d, None) for d in range(plan.s)],
    )
    occasions: dict[int, list[int]] = {}
    kept = 0
    for e in csi.events:
        if e.start_symbol < hyper:
            occasions.setdefault(e.gnb_beam, []).append(e.start_symbol)
            kept += 1
    return hyper, hyper // period - kept, occasions


def omega_ia_walked(sc) -> float:
    """SS-block share of the grid over one burst period (configured view)."""
    tl = build_ss_timeline(sc.ss, sc.numerology, horizon_ms=sc.ss.t_ss_ms)
    return overhead(tl, (EventKind.SS_BLOCK,), sc.ss.t_ss_ms, sc.carrier_rb)


def omega_tr_walked(sc) -> float:
    """CSI-RS share of the nominal grid, counted over two CSI periods."""
    period_ms = sc.csi.t_csi_slots * sc.numerology.slot_ms
    empty_ss = Timeline(horizon_symbols=0, symbol_us=sc.numerology.symbol_us)
    tl = build_csi_timeline(
        sc.csi, empty_ss, sc.numerology, horizon_ms=3 * period_ms, carrier_rb=sc.carrier_rb
    )
    return overhead(tl, (EventKind.CSI_RS,), 2 * period_ms, sc.carrier_rb)


def tie_break_order(plan) -> np.ndarray:
    """Sweep slots by (gnb_beam, ue_beam): slot ``k`` sweeps gNB step
    ``k % f_g`` and UE step ``k // f_g``."""
    k = np.arange(plan.s)
    return np.lexsort((k // plan.f_g, k % plan.f_g))


def matrix_sweep_winner(plan, cp, base_db, k_star, rng):
    """Winning sweep slot, measuring every block of the sweep.

    ``base_db`` is each run's mean SNR through the aligned pair, whose
    slot is ``k_star``; the other slots sit ``side_lobe_floor_db`` lower.
    Draws a (runs x S) matrix of absolute per-block SNRs with iid
    shadowing and takes each row's argmax, ties going to the lowest
    (gnb_beam, ue_beam). ``draw_sweep_winner`` draws the same law's
    winner directly, without the mean.
    """
    rows = np.arange(base_db.size)
    snr = rng.normal(0.0, cp.shadowing_sigma_db, size=(base_db.size, plan.s))
    snr += base_db[:, None] + cp.side_lobe_floor_db
    snr[rows, k_star] -= cp.side_lobe_floor_db
    perm = tie_break_order(plan)
    return perm[np.argmax(snr[:, perm], axis=1)]


def ia_batch_matrix(sc, n_runs: int, rng: np.random.Generator) -> IaBatch:
    """Initial-access campaign with the winner from :func:`matrix_sweep_winner`
    and the report tail from :func:`rach_tails_walked`.

    The true pairs come first in the stream, as in ``simulate_ia_batch``;
    each run's mean SNR is then drawn at random over a wide range, which
    must not change the winner's law.
    """
    if n_runs < 1:
        raise DomainError(f"n_runs={n_runs}: need at least one run")
    plan = sweep_plan(sc)
    ig_of_dir = np.array([covering_step(sc.gnb, g) for g in range(sc.gnb.elements)])
    iu_of_dir = np.array([covering_step(sc.ue, u) for u in range(sc.ue.elements)])
    g_star = rng.integers(0, sc.gnb.elements, size=n_runs)
    u_star = rng.integers(0, sc.ue.elements, size=n_runs)
    k_star = iu_of_dir[u_star] * plan.f_g + ig_of_dir[g_star]
    base_db = rng.uniform(-40.0, 40.0, size=n_runs)
    best = matrix_sweep_winner(plan, sc.channel, base_db, k_star, rng)

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
    else:
        tails = rach_tails_walked(sc)[start_burst, chosen_g]
        t_br = tails * plan.symbol_ms
    return IaBatch(
        t_sweep_ms=t_sweep,
        t_br_ms=t_br,
        t_total_ms=t_sweep + t_br,
        chosen_g=chosen_g,
    )


def sweep_winner_formula(plan, cp, k_star, rng):
    """``draw_sweep_winner`` as first written: the same draws, merged by
    one ``np.where`` over freshly allocated arrays."""
    n = k_star.size
    s = plan.s
    if s == 1:
        return k_star
    sigma, floor = cp.shadowing_sigma_db, cp.side_lobe_floor_db
    if sigma == 0.0 and floor == 0.0:
        return np.full(n, tie_break_order(plan)[0])
    aligned = rng.random(n) < p_correct_beam(s, sigma, floor)
    j = rng.integers(0, s - 1, size=n)
    return np.where(aligned, k_star, j + (j >= k_star))


def ia_batch_formula(sc, n_runs: int, rng: np.random.Generator) -> IaBatch:
    """``simulate_ia_batch`` as first written: each quantity one expression,
    the report tail read at ``(g - first step of the last burst) mod f_g``
    and scaled to ms per run. The package's batch must equal it bit for
    bit."""
    plan = sweep_plan(sc)
    g_star = rng.integers(0, sc.gnb.elements, size=n_runs)
    u_star = rng.integers(0, sc.ue.elements, size=n_runs)
    k_star = u_star // plan.u_width * plan.f_g + g_star // plan.g_width
    best = sweep_winner_formula(plan, sc.channel, k_star, rng)

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
    else:
        last_first = (start_burst + plan.bursts_per_sweep - 1) * plan.blocks_per_burst
        t_br = plan.report_tail_sym[(chosen_g - last_first) % plan.f_g] * plan.symbol_ms
    return IaBatch(
        t_sweep_ms=t_sweep,
        t_br_ms=t_br,
        t_total_ms=t_sweep + t_br,
        chosen_g=chosen_g,
    )


def rlf_batch_formula(sc, n_runs: int, rng: np.random.Generator) -> IaBatch:
    """``simulate_rlf_batch`` as first written: NSA recovers in the LTE
    latency exactly, SA re-runs :func:`ia_batch_formula`."""
    if sc.mode is DeploymentMode.NSA:
        const = np.full(n_runs, float(sc.lte_latency_ms))
        return IaBatch(
            t_sweep_ms=np.zeros(n_runs),
            t_br_ms=const,
            t_total_ms=const.copy(),
            chosen_g=np.full(n_runs, -1, dtype=np.int64),
        )
    return ia_batch_formula(sc, n_runs, rng)


def tracking_batch_loop(
    sc,
    n_runs: int,
    rng: np.random.Generator,
    horizon_ms: float = 500.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Tracking campaign that scans the runs once per sweep direction,
    over the surviving occasions :func:`surviving_csi_occasions` walks.

    Draws the same random numbers in the same order as
    ``simulate_tracking_batch``, so the two agree bit for bit.
    """
    if n_runs < 1:
        raise DomainError(f"n_runs={n_runs}: need at least one run")
    s = sweep_plan(sc).s
    hyper, _, occasions = surviving_csi_occasions(sc)
    dirs = rng.integers(0, s, size=n_runs)
    t0 = rng.uniform(0.0, hyper, size=n_runs)
    waits = np.full(n_runs, np.nan)
    censored = np.zeros(n_runs, dtype=bool)
    for g in range(s):
        mask = dirs == g
        if not mask.any():
            continue
        if g not in occasions:
            censored[mask] = True
            continue
        occ = np.array(occasions[g], dtype=np.int64)
        t = t0[mask]
        idx = np.searchsorted(occ, t, side="left")
        wrapped = idx == occ.size
        nxt = np.where(wrapped, occ[0] + hyper, occ[np.minimum(idx, occ.size - 1)])
        waits[mask] = (nxt - t) * sc.numerology.symbol_ms
    over = ~np.isnan(waits) & (waits > horizon_ms)
    censored |= over
    waits[censored] = np.nan
    return waits, censored


def misdetection_drops(
    gnb: ArrayConfig, ue: ArrayConfig, cp: ChannelParams, n_drops: int, rng
) -> float:
    """Share of ``n_drops`` UEs, dropped uniformly over the cell disk, whose
    fully aligned pair (both endpoint gains, full transmit power) falls
    below the detection threshold under independent lognormal shadowing.
    A UE closer than 0.1 m is put at 0.1 m, where the path loss is finite.
    """
    r = np.maximum(cp.cell_radius_m * np.sqrt(rng.uniform(0.0, 1.0, size=n_drops)), 0.1)
    shadow = rng.normal(0.0, cp.shadowing_sigma_db, size=n_drops)
    gain = beamforming_gain_db(gnb) + beamforming_gain_db(ue)
    snr = drop_mean_snr_db(cp, gain, r) - shadow
    return float(np.mean(snr < cp.detection_threshold_db))


def drop_mean_snr_db(cp: ChannelParams, gain_db: float, r: np.ndarray) -> np.ndarray:
    """Mean SNR before shadowing at each distance of ``r``, written out over
    all drops at once: thermal noise of -174 dBm/Hz over the bandwidth plus
    the noise figure, and the floating-intercept path loss.
    """
    noise_dbm = -174.0 + 10.0 * math.log10(cp.bandwidth_hz) + cp.noise_figure_db
    path_loss_db = cp.pl_intercept_db + 10.0 * cp.pl_exponent * np.log10(r)
    return cp.tx_power_dbm + gain_db - noise_dbm - path_loss_db
