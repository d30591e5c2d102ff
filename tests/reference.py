"""Reference implementations the vectorized campaign code is tested against.

These are the straightforward forms of the samplers: slow, but written
so that each line can be checked against the model by eye.
"""
from __future__ import annotations

import numpy as np

from nrbeamsim.errors import DomainError
from nrbeamsim.procedures import (
    DeploymentMode,
    IaBatch,
    _covering_state_index,
    _draw_distances,
    _tracking_plan_for,
    sweep_plan,
)


def matrix_sweep_winner(plan, cp, base_db, k_star, rng):
    """Winning sweep slot and its SNR, measuring every block of the sweep.

    Draws a (runs x S) matrix of per-block SNRs with iid shadowing and
    takes each row's argmax, ties going to the lowest (gnb_beam,
    ue_beam). ``draw_sweep_winner`` draws the same law's winner directly.
    """
    rows = np.arange(base_db.size)
    snr = rng.normal(0.0, cp.shadowing_sigma_db, size=(base_db.size, plan.s))
    snr += base_db[:, None] + cp.side_lobe_floor_db
    snr[rows, k_star] -= cp.side_lobe_floor_db
    perm = plan.tie_break_order
    best = perm[np.argmax(snr[:, perm], axis=1)]
    return best, snr[rows, best]


def ia_batch_matrix(sc, n_runs: int, rng: np.random.Generator) -> IaBatch:
    """Initial-access campaign with the winner from :func:`matrix_sweep_winner`."""
    if n_runs < 1:
        raise DomainError(f"n_runs={n_runs}: need at least one run")
    plan = sweep_plan(sc)
    cp = sc.channel
    ig_of_dir = np.array(
        [_covering_state_index(plan.states_g, g) for g in range(sc.gnb.elements)]
    )
    iu_of_dir = np.array(
        [_covering_state_index(plan.states_u, u) for u in range(sc.ue.elements)]
    )
    r = _draw_distances(sc, rng, n_runs)
    g_star = rng.integers(0, sc.gnb.elements, size=n_runs)
    u_star = rng.integers(0, sc.ue.elements, size=n_runs)
    k_star = iu_of_dir[u_star] * plan.f_g + ig_of_dir[g_star]
    pl = cp.pl_intercept_db + 10.0 * cp.pl_exponent * np.log10(r)
    best, top = matrix_sweep_winner(
        plan, cp, plan.aligned_snr_level_db_offset - pl, k_star, rng
    )

    start_burst = rng.integers(0, plan.cycle_bursts, size=n_runs)
    phase = rng.uniform(0.0, plan.t_ss_ms, size=n_runs)
    t_sweep = (
        (plan.t_ss_ms - phase)
        + (plan.bursts_per_sweep - 1) * plan.t_ss_ms
        + plan.det_offset_sym * plan.symbol_ms
    )
    if sc.mode is DeploymentMode.NSA:
        t_br = np.full(n_runs, float(sc.lte_latency_ms))
    elif plan.digital_gnb:
        t_br = np.full(n_runs, plan.digital_tail_sym * plan.symbol_ms)
    else:
        det_pos = (start_burst + plan.bursts_per_sweep - 1) % plan.cycle_bursts
        tails = (
            plan.wait_end_sym[det_pos % plan.rach_cycle, plan.g_labels[best]]
            - plan.det_offset_sym
        )
        t_br = tails * plan.symbol_ms
    return IaBatch(
        t_sweep_ms=t_sweep,
        t_br_ms=t_br,
        t_total_ms=t_sweep + t_br,
        misdetected=top < cp.detection_threshold_db,
        chosen_g=plan.g_labels[best],
        chosen_u=plan.u_labels[best],
    )


def tracking_batch_loop(
    sc,
    n_runs: int,
    rng: np.random.Generator,
    horizon_ms: float = 500.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Tracking campaign that scans the runs once per sweep direction.

    Draws the same random numbers in the same order as
    ``simulate_tracking_batch``, so the two agree bit for bit.
    """
    if n_runs < 1:
        raise DomainError(f"n_runs={n_runs}: need at least one run")
    tp = _tracking_plan_for(sc)
    dirs = rng.integers(0, tp.s, size=n_runs)
    t0 = rng.uniform(0.0, tp.hyper_sym, size=n_runs)
    waits = np.full(n_runs, np.nan)
    censored = np.zeros(n_runs, dtype=bool)
    for g in range(tp.s):
        mask = dirs == g
        if not mask.any():
            continue
        occ = np.asarray(tp.surviving[g])
        if occ.size == 0:
            censored[mask] = True
            continue
        t = t0[mask]
        idx = np.searchsorted(occ, t, side="left")
        wrapped = idx == occ.size
        nxt = np.where(wrapped, occ[0] + tp.hyper_sym, occ[np.minimum(idx, occ.size - 1)])
        waits[mask] = (nxt - t) * tp.symbol_ms
    over = ~np.isnan(waits) & (waits > horizon_ms)
    censored |= over
    waits[censored] = np.nan
    return waits, censored
