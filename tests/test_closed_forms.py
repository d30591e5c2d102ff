"""The package's closed forms against the reference timelines.

Over random valid scenarios: the report wait of every (burst position,
gNB direction), the surviving CSI-RS occasions of one hyperperiod and
both grid overheads must equal what the event-by-event timelines in
``reference.py`` give, exactly; the mean report delay, a float average,
agrees to 1e-12.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import make_scenario, scenarios
from nrbeamsim.evaluation import omega_ia_for, omega_tr_for
from nrbeamsim.frame import CsiRsConfig
from nrbeamsim.link import ChannelParams
from nrbeamsim.procedures import (
    _tracking_plan_for,
    expected_beam_report_delay_ms,
    p_correct_beam,
    sweep_plan,
)
from reference import (
    covering_step,
    omega_ia_walked,
    omega_tr_walked,
    rach_tails_walked,
    surviving_csi_occasions,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def _unequal_hybrid(sigma, floor):
    # beam groups of 3, 3, 3 and 1 directions, two blocks per burst:
    # gcd(B, f_g) = 2, so each step meets half the report offsets
    cp = ChannelParams(shadowing_sigma_db=sigma, side_lobe_floor_db=floor)
    return make_scenario(m_gnb=10, arch_gnb="hybrid", k_bf_gnb=3, n_ss=2, channel=cp)


@PROPERTY
@given(scenarios())
@example(_unequal_hybrid(8.7, -10.0))
@example(_unequal_hybrid(0.0, -10.0))
@example(_unequal_hybrid(0.0, 0.0))
def test_rach_wait_equals_the_timeline_walk(sc):
    plan = sweep_plan(sc)
    walked = rach_tails_walked(sc)
    for c in range(plan.cycle_bursts):
        det_pos = (c + plan.bursts_per_sweep - 1) % plan.cycle_bursts
        for d in range(sc.gnb.elements):
            if plan.digital_gnb:
                assert walked[c, 0] == plan.digital_tail_sym
                continue
            closed = plan.rach_end_sym(det_pos, d // plan.g_width) - plan.det_offset_sym
            assert walked[c, covering_step(sc.gnb, d)] == closed, (c, d)
    cp = sc.channel
    if plan.digital_gnb:
        expected = walked.mean()
    elif cp.shadowing_sigma_db == 0.0 and cp.side_lobe_floor_db == 0.0:
        # every block ties and the lowest gNB step wins
        expected = walked[:, 0].mean()
    else:
        # the sweep picks the aligned slot of a uniform gNB direction with
        # probability p, otherwise one of the other slots uniformly
        p = p_correct_beam(plan.s, cp.shadowing_sigma_db, cp.side_lobe_floor_db)
        chosen = np.zeros(plan.f_g)
        for d in range(sc.gnb.elements):
            k_star = covering_step(sc.gnb, d)
            for k in range(plan.s):
                w = p if k == k_star else (1.0 - p) / (plan.s - 1)
                chosen[plan.g_labels[k]] += w / sc.gnb.elements
        expected = (walked @ chosen).mean()
    assert expected_beam_report_delay_ms(sc) == pytest.approx(
        expected * plan.symbol_ms, rel=1e-12
    )


@PROPERTY
@given(scenarios())
def test_overheads_equal_the_timeline_count(sc):
    assert omega_ia_for(sc) == omega_ia_walked(sc)
    assert omega_tr_for(sc) == omega_tr_walked(sc)


@PROPERTY
@given(scenarios())
# an occasion right after the sweep's 4 blocks, and one that ends where
# the next burst starts: both touch SS blocks without sharing a symbol
@example(make_scenario(m_gnb=4, m_ue=1, csi=CsiRsConfig(delta_t_symbols=16)))
@example(make_scenario(m_gnb=4, m_ue=1, csi=CsiRsConfig(delta_t_symbols=69)))
def test_occasion_keys_are_the_surviving_csi_occasions(sc):
    tp = _tracking_plan_for(sc)
    hyper, dropped, kept = surviving_csi_occasions(sc)
    assert tp.hyper_sym == hyper
    assert tp.dropped_count == dropped
    keys = sorted(d * tp.key_stride + t for d, t in kept)
    assert tp.occasion_keys.tolist() == keys + [tp.s * tp.key_stride]
    first = {}
    for d, t in kept:
        first.setdefault(d, t)
    assert tp.first_occasion.tolist() == [first.get(d, -1) for d in range(tp.s)]
