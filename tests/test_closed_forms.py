"""The package's closed forms against the reference timelines.

Over random valid scenarios: the report wait of every (burst position,
gNB direction), the surviving CSI-RS occasions of one hyperperiod and
both grid overheads must equal what the event-by-event timelines in
``reference.py`` give, exactly; the mean report delay, a float average,
agrees to 1e-12.
"""
from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import make_scenario
from nrbeamsim.evaluation import omega_ia_for, omega_tr_for
from nrbeamsim.frame import (
    CSI_PERIODS_SLOTS,
    CSI_SYMBOL_COUNTS,
    SS_PERIODS_MS,
    SYMBOLS_PER_SLOT,
    CsiRsConfig,
    carrier_resource_blocks,
    make_numerology,
)
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


@st.composite
def scenarios(draw):
    def array(max_elements):
        arch = draw(st.sampled_from(["analog", "hybrid", "digital"]))
        m = draw(st.integers(1, max_elements))
        k = draw(st.integers(1, m)) if arch == "hybrid" else None
        return arch, m, k

    arch_g, m_g, k_g = array(12)
    arch_u, m_u, k_u = array(3)
    n = draw(st.sampled_from([2, 3, 4]))
    t_csi = draw(st.sampled_from(CSI_PERIODS_SLOTS))
    delta_f = draw(st.sampled_from([0, 10, 19, 20, 60]))
    bandwidth = draw(st.integers(50, 80))
    assume(delta_f + bandwidth <= carrier_resource_blocks(make_numerology(n)))
    return make_scenario(
        m_gnb=m_g,
        arch_gnb=arch_g,
        k_bf_gnb=k_g,
        m_ue=m_u,
        arch_ue=arch_u,
        k_bf_ue=k_u,
        n=n,
        n_ss=draw(st.integers(1, 64)),
        t_ss_ms=float(draw(st.sampled_from(SS_PERIODS_MS))),
        csi=CsiRsConfig(
            t_csi_slots=t_csi,
            n_symbols=draw(st.sampled_from(CSI_SYMBOL_COUNTS)),
            bandwidth_rb=bandwidth,
            delta_t_symbols=draw(st.integers(0, t_csi * SYMBOLS_PER_SLOT - 1)),
            delta_f_rb=delta_f,
        ),
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
