"""The package's closed forms against the reference timelines.

Over random valid scenarios: the report wait of every (burst position,
gNB direction), the surviving CSI-RS occasions of one hyperperiod and
both grid overheads must equal what the event-by-event timelines in
``reference.py`` give, exactly; the mean report delay, a float average,
agrees to 1e-12.
"""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings

from conftest import make_scenario, scenarios
from nrbeamsim.evaluation import omega_ia_for, omega_tr_for
from nrbeamsim.frame import CsiRsConfig
from nrbeamsim.procedures import (
    _tracking_plan_for,
    expected_beam_report_delay_ms,
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


@PROPERTY
@given(scenarios())
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
    # every step of an analog or hybrid gNB is equally likely to be chosen
    expected = walked.mean() if plan.digital_gnb else walked[0].mean()
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
