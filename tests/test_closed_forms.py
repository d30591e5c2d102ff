"""The package's closed forms against the reference timelines.

Over random valid scenarios: the report wait of every (burst position,
gNB direction), the next surviving CSI occasion the tracking plan's
residue table gives for every nominal occasion, and both grid overheads
must equal what the event-by-event timelines in ``reference.py`` give,
exactly; the mean
report and tracking delays, float averages, agree to 1e-12. A scenario is
refused exactly when its timeline keeps no CSI-RS occasion.
"""
from __future__ import annotations

import bisect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import STARVED, make_scenario, scenario_kwargs, scenarios
from nrbeamsim.errors import ConfigurationError
from nrbeamsim.evaluation import omega_ia_for, omega_tr_for
from nrbeamsim.frame import SYMBOLS_PER_SLOT, CsiRsConfig
from nrbeamsim.link import ChannelParams
from nrbeamsim.procedures import (
    Scenario,
    expected_beam_report_delay_ms,
    expected_tracking_delay_ms,
    p_correct_beam,
    sweep_plan,
    tracking_plan,
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
        # offsets from the last burst's first block, with the start burst
        # not reduced modulo the cycle
        last_first = (c + plan.bursts_per_sweep - 1) * plan.blocks_per_burst
        for d in range(sc.gnb.elements):
            closed = plan.report_tail_sym[(d // plan.g_width - last_first) % plan.f_g]
            assert walked[c, covering_step(sc.gnb, d)] == closed, (c, d)
    cp = sc.channel
    if cp.shadowing_sigma_db == 0.0 and cp.side_lobe_floor_db == 0.0:
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
                chosen[k % plan.f_g] += w / sc.gnb.elements
        expected = (walked @ chosen).mean()
    assert expected_beam_report_delay_ms(sc) == pytest.approx(
        expected * plan.symbol_ms, rel=1e-12
    )


@PROPERTY
@given(scenarios())
def test_overheads_equal_the_timeline_count(sc):
    assert omega_ia_for(sc) == omega_ia_walked(sc)
    assert omega_tr_for(sc) == omega_tr_walked(sc)


# an occasion right after the sweep's 4 blocks, and one that ends where
# the next burst starts: both touch SS blocks without sharing a symbol
TOUCHING_OCCASIONS = [
    make_scenario(m_gnb=4, m_ue=1, csi=CsiRsConfig(delta_t_symbols=16)),
    make_scenario(m_gnb=4, m_ue=1, csi=CsiRsConfig(delta_t_symbols=69)),
]
# at n = 3 a 5 ms burst period is 560 symbols. A 20-slot CSI grid at
# delta_t = 0 puts every other occasion, direction 0's, on the first SS
# block, and a 40-slot grid puts every occasion there, a geometry that
# is refused: ALL_COLLIDE holds its arguments.
ONE_DIRECTION_COLLIDES = make_scenario(
    m_gnb=2, m_ue=1, n=3, t_ss_ms=5.0, csi=CsiRsConfig(t_csi_slots=20)
)
ALL_COLLIDE = dict(m_gnb=1, m_ue=1, n=3, t_ss_ms=5.0, csi=CsiRsConfig(t_csi_slots=40))


# g = gcd(q, s) = 1: q = 32 occasions span whole burst periods and
# s = 63 directions, so every direction visits every residue, in strides
# of 63 = -1 mod 32; the 252 block symbols drop residues 0-3, and from
# residue 3 the next survivor, 31, lies past the cycle's wrap, 4 rounds
# on. g = q: s = q = 32, so each direction keeps one residue, and
# direction 0's meets the 8 blocks every time.
ONE_CLASS = make_scenario(m_gnb=63)
CLASS_PER_RESIDUE = make_scenario(m_gnb=32, n_ss=8)


def _next_occasion(tp, m):
    """The plan's first surviving occasion at or after nominal occasion
    ``m``, or None when its direction's occasions all collide."""
    k = tp.skip[m % len(tp.skip)]
    return None if k < 0 else tp.delta_t_sym + (m + k * tp.s) * tp.period_sym


@PROPERTY
@given(scenarios())
@example(TOUCHING_OCCASIONS[0])
@example(TOUCHING_OCCASIONS[1])
@example(ONE_DIRECTION_COLLIDES)
@example(ONE_CLASS)
@example(CLASS_PER_RESIDUE)
def test_next_occasion_table_is_the_timeline_walk(sc):
    tp = tracking_plan(sc)
    hyper, dropped, occasions = surviving_csi_occasions(sc)
    assert tp.hyper_sym == hyper
    assert tp.dropped_count == dropped
    period = sc.csi.t_csi_slots * SYMBOLS_PER_SLOT
    # one entry per residue of the occasions after which the burst grid repeats
    t_ss = sweep_plan(sc).t_ss_sym
    assert len(tp.skip) == t_ss // math.gcd(period, t_ss)
    n_rounds = hyper // (tp.s * period)
    for d in range(tp.s):
        # rounds [0, J) and round J, the first of the next hyperperiod
        row = [_next_occasion(tp, j * tp.s + d) for j in range(n_rounds + 1)]
        if d not in occasions:
            assert row == [None] * (n_rounds + 1), d
            continue
        occ = occasions[d]
        # round j: the first occasion at or after nominal occasion j*s + d
        for j in range(n_rounds):
            nominal = sc.csi.delta_t_symbols + (j * tp.s + d) * period
            i = bisect.bisect_left(occ, nominal)
            assert row[j] == (occ[i] if i < len(occ) else occ[0] + hyper), (d, j)
        assert row[n_rounds] == occ[0] + hyper, d


@PROPERTY
@given(scenarios())
@example(TOUCHING_OCCASIONS[0])
@example(ONE_DIRECTION_COLLIDES)
@example(ONE_CLASS)
@example(CLASS_PER_RESIDUE)
def test_mean_tracking_delay_is_the_renewal_mean_of_the_walk(sc):
    hyper, _, occasions = surviving_csi_occasions(sc)
    # an arrival uniform over the hyperperiod waits half of each gap,
    # weighted by that gap: sum of squared gaps over twice the hyperperiod
    per_direction = []
    for occ in occasions.values():
        gaps = np.diff(occ + [occ[0] + hyper])
        per_direction.append(float(np.sum(gaps * gaps)) / (2.0 * hyper))
    expected = np.mean(per_direction) * sc.numerology.symbol_ms
    assert expected_tracking_delay_ms(sc) == pytest.approx(expected, rel=1e-12)


@PROPERTY
@given(scenario_kwargs())
@example(ALL_COLLIDE)
@example(dict(ALL_COLLIDE, csi=CsiRsConfig(t_csi_slots=40, delta_f_rb=20)))
def test_a_geometry_is_refused_when_the_timeline_keeps_no_csi_occasion(kw):
    # the timeline of the scenario as built without its checks
    with mock.patch.object(Scenario, "__post_init__", lambda sc: None):
        unchecked = make_scenario(**kw)
    if surviving_csi_occasions(unchecked)[2]:
        make_scenario(**kw)
        return
    with pytest.raises(ConfigurationError, match=STARVED) as info:
        make_scenario(**kw)
    named = ("csi.t_csi_slots", "csi.delta_t_symbols", "ss.t_ss_ms", "delta_f_rb >= 20")
    assert all(text in str(info.value) for text in named)
