from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import STARVED, make_scenario
from nrbeamsim import evaluation
from nrbeamsim.codebook import MAX_SWEEP_LENGTH, Architecture
from nrbeamsim.errors import (
    ConfigurationError,
    DomainError,
    NotApplicableError,
)
from nrbeamsim.evaluation import CampaignSettings, estimate_metrics
from nrbeamsim.frame import SS_BLOCK_SYMBOLS, CsiRsConfig
from nrbeamsim.link import ChannelParams
from nrbeamsim.procedures import (
    LTE_LATENCY_VALUES_MS,
    DeploymentMode,
    expected_beam_report_delay_ms,
    expected_tracking_delay_ms,
    omega_br,
    oracle_expected_ia,
    oracle_expected_rlf_sa,
    simulate_ia_batch,
    simulate_rlf_batch,
    simulate_tracking_batch,
    sweep_plan,
    tracking_plan,
)
from nrbeamsim.scenario_io import parse_scenario
from reference import (
    build_rach_timeline,
    build_ss_timeline,
    covering_step,
    first_rach_end,
    rach_tails_walked,
    sweep_labels,
)

SYM_MS = 0.125 / 14  # one OFDM symbol at 120 kHz, in ms
WORKLOADS = Path(__file__).resolve().parents[1] / "nrbench" / "workloads"


class TestSweepPlanGeometry:
    @pytest.mark.parametrize(
        "kw,expect",
        [
            # (s, blocks/burst, bursts/sweep, last-burst blocks, cycle, rach cycle)
            (dict(m_gnb=64, m_ue=1, n_ss=64), (64, 64, 1, 64, 1, 1)),
            (dict(m_gnb=64, m_ue=1, n_ss=8), (64, 8, 8, 8, 8, 8)),
            (dict(m_gnb=16, m_ue=4, n_ss=8), (64, 8, 8, 8, 8, 2)),
            (dict(m_gnb=8, m_ue=4, n_ss=12), (32, 12, 3, 8, 8, 2)),
            (dict(m_gnb=64, m_ue=16, arch_gnb="digital", n_ss=8), (16, 8, 2, 8, 2, 1)),
            (dict(m_gnb=64, m_ue=4, arch_gnb="hybrid", k_bf_gnb=8, n_ss=8), (32, 8, 4, 8, 4, 1)),
        ],
    )
    def test_counts(self, kw, expect):
        plan = sweep_plan(make_scenario(**kw))
        got = (
            plan.s,
            plan.blocks_per_burst,
            plan.bursts_per_sweep,
            plan.det_offset_sym // SS_BLOCK_SYMBOLS,
            plan.cycle_bursts,
            plan.rach_cycle,
        )
        assert got == expect

    @staticmethod
    def _labels(plan):
        # the UE side is analog in these cases: slot k sweeps UE step k // f_g
        return [(k % plan.f_g, k // plan.f_g) for k in range(plan.s)]

    def test_pair_order_is_ue_outer(self):
        sc = make_scenario(m_gnb=2, m_ue=2, n_ss=8)
        assert self._labels(sweep_plan(sc)) == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert sweep_labels(sc) == self._labels(sweep_plan(sc))

    def test_digital_side_stamps_wildcards(self):
        # the timeline stamps no beam on a digital side, whose one step
        # the plan labels 0
        sc = make_scenario(m_gnb=8, m_ue=2, arch_gnb="digital", n_ss=8)
        assert sweep_labels(sc) == [(None, 0), (None, 1)]
        assert self._labels(sweep_plan(sc)) == [(0, 0), (0, 1)]

    def test_aligned_slot_roundtrip(self):
        sc = make_scenario(m_gnb=4, m_ue=2, n_ss=8)
        plan = sweep_plan(sc)
        for u in range(2):
            for g in range(4):
                k = covering_step(sc.ue, u) * plan.f_g + covering_step(sc.gnb, g)
                assert (k % plan.f_g, k // plan.f_g) == (g, u)


class TestReportTailAgainstTimelines:
    """Closed-form report tails cross-checked against literal timeline walks."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(m_gnb=64, m_ue=1, n_ss=64),
            dict(m_gnb=64, m_ue=1, n_ss=8),
            dict(m_gnb=16, m_ue=4, n_ss=8),
            dict(m_gnb=8, m_ue=4, n_ss=12),
            dict(m_gnb=64, m_ue=4, arch_gnb="hybrid", k_bf_gnb=8, n_ss=8),
            dict(m_gnb=127, m_ue=1, n_ss=8),
            dict(m_gnb=64, m_ue=16, arch_gnb="digital", n_ss=8),
        ],
    )
    def test_tails_match(self, kw):
        sc = make_scenario(**kw)
        plan = sweep_plan(sc)
        walked = rach_tails_walked(sc)
        for c in range(plan.cycle_bursts):
            det_pos = (c + plan.bursts_per_sweep - 1) % plan.cycle_bursts
            for label in range(plan.f_g):
                d = (label - det_pos * plan.blocks_per_burst) % plan.f_g
                assert walked[c, label] == plan.report_tail_sym[d], (c, label)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(m_gnb=64, m_ue=1, n_ss=8),
            dict(m_gnb=16, m_ue=4, n_ss=8),
            dict(m_gnb=64, m_ue=4, arch_gnb="hybrid", k_bf_gnb=8, n_ss=8),
            dict(m_gnb=64, m_ue=16, arch_gnb="digital", n_ss=8),
        ],
    )
    def test_mean_ia_matches_closed_form(self, kw):
        """Uniform (arrival burst, true direction) average, walked end to end."""
        sc = make_scenario(**kw)
        plan = sweep_plan(sc)
        walked = rach_tails_walked(sc)
        totals = []
        for c in range(plan.cycle_bursts):
            for g_star in range(sc.gnb.elements):
                label = covering_step(sc.gnb, g_star)
                totals.append(
                    (plan.bursts_per_sweep - 1) * plan.t_ss_sym
                    + plan.det_offset_sym
                    + walked[c, label]
                )
        walked_ms = sc.ss.t_ss_ms / 2.0 + np.mean(totals) * plan.symbol_ms
        assert walked_ms == pytest.approx(oracle_expected_ia(sc), rel=1e-12)


class TestFrozenReportDelays:
    @pytest.mark.parametrize(
        "m_gnb,n_ss,expect",
        [
            (4, 64, 0.04464285714285714),
            (16, 64, 0.15178571428571427),
            (64, 64, 0.5803571428571428),
            (4, 8, 0.04464285714285714),
            (16, 8, 10.080357142857142),
            (64, 8, 70.08035714285714),
        ],
    )
    def test_expected_tail_values(self, m_gnb, n_ss, expect):
        sc = make_scenario(m_gnb=m_gnb, m_ue=1, n_ss=n_ss)
        assert expected_beam_report_delay_ms(sc) == pytest.approx(expect, rel=1e-12)

    def test_independent_of_ue_array(self):
        vals = {
            expected_beam_report_delay_ms(make_scenario(m_gnb=16, m_ue=m, n_ss=8))
            for m in (1, 4, 16)
        }
        assert len(vals) == 1

    def test_more_blocks_per_burst_report_sooner(self):
        fat = expected_beam_report_delay_ms(make_scenario(m_gnb=64, n_ss=64))
        thin = expected_beam_report_delay_ms(make_scenario(m_gnb=64, n_ss=8))
        assert fat < thin

    def test_nsa_is_the_lte_leg(self):
        sc = make_scenario(mode="NSA", lte_latency_ms=4.0)
        assert expected_beam_report_delay_ms(sc) == 4.0


class TestBeamReportDelayPointwise:
    """Hand-counted waits on the reference RACH timeline the closed form is
    checked against."""

    @staticmethod
    def _rach(sc, horizon_ms=60.0):
        ss = build_ss_timeline(sc.ss, sc.numerology, horizon_ms, sweep_labels(sc))
        plan = sweep_plan(sc)
        directional = sc.gnb.arch is not Architecture.DIGITAL
        return build_rach_timeline(ss, directional, sc.numerology, plan.f_g)

    def test_digital_next_opportunity(self):
        sc = make_scenario(m_gnb=64, m_ue=16, arch_gnb="digital", n_ss=8)
        # blocks end at symbol 32; determination at t=0 waits for 32+2
        assert first_rach_end(self._rach(sc), 0, None) == 34

    def test_directional_offset_by_rank(self):
        sc = make_scenario(m_gnb=4, m_ue=1, n_ss=64)
        rach = self._rach(sc)
        for g in range(4):
            # determination at the end of the 4-block sweep, symbol 16
            assert first_rach_end(rach, 16, g) - 16 == 2 * (g + 1)

    def test_missed_burst_rolls_over(self):
        sc = make_scenario(m_gnb=4, m_ue=1, n_ss=64)
        # past this burst's opportunities: wait for the next burst's
        assert first_rach_end(self._rach(sc), 40, 0) == 2240 + 16 + 2

    def test_nsa_constant(self):
        sc = make_scenario(mode="NSA", lte_latency_ms=0.8)
        batch = simulate_ia_batch(sc, 200, np.random.default_rng(0))
        assert (batch.t_br_ms == 0.8).all()


class TestSimulationAgainstOracle:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(m_gnb=64, m_ue=1, n_ss=64, t_ss_ms=40.0),
            dict(m_gnb=64, m_ue=1, n_ss=8),
            dict(m_gnb=16, m_ue=4, n_ss=8),
            dict(m_gnb=64, m_ue=4, arch_gnb="hybrid", k_bf_gnb=8, n_ss=8),
            dict(m_gnb=64, m_ue=16, arch_gnb="digital", n_ss=8),
        ],
    )
    def test_mean_total_within_three_se(self, kw):
        sc = make_scenario(**kw)
        batch = simulate_ia_batch(sc, 4000, np.random.default_rng(9))
        mean = batch.t_total_ms.mean()
        se = batch.t_total_ms.std(ddof=1) / math.sqrt(batch.t_total_ms.size)
        assert abs(mean - oracle_expected_ia(sc)) <= 3 * se

    def test_sweep_span_bounds(self):
        # 64x16 analog: 1024 slots in 8-block bursts, 128 bursts to cover
        sc = make_scenario(m_gnb=64, m_ue=16, n_ss=8)
        plan = sweep_plan(sc)
        assert plan.bursts_per_sweep == 128
        batch = simulate_ia_batch(sc, 500, np.random.default_rng(1))
        lo = 127 * 20.0 + 32 * SYM_MS
        hi = 128 * 20.0 + 32 * SYM_MS
        assert np.all(batch.t_sweep_ms > lo)
        assert np.all(batch.t_sweep_ms <= hi)

    def test_quiet_channel_picks_valid_labels(self):
        sc = make_scenario(
            m_gnb=8,
            m_ue=4,
            n_ss=8,
            channel=ChannelParams(shadowing_sigma_db=0.0),
        )
        batch = simulate_ia_batch(sc, 300, np.random.default_rng(5))
        assert set(np.unique(batch.chosen_g)) <= set(range(8))

    def test_batch_rejects_empty(self):
        with pytest.raises(DomainError):
            simulate_ia_batch(make_scenario(), 0, np.random.default_rng(0))

    def test_same_seed_same_batch(self):
        sc = make_scenario(m_gnb=16, m_ue=4, n_ss=8)
        a = simulate_ia_batch(sc, 100, np.random.default_rng(21))
        b = simulate_ia_batch(sc, 100, np.random.default_rng(21))
        assert np.array_equal(a.t_total_ms, b.t_total_ms)
        assert np.array_equal(a.chosen_g, b.chosen_g)


class TestOutcomeInvariants:
    def test_components_sum(self):
        rng = np.random.default_rng(2)
        for kw in (
            dict(),
            dict(arch_gnb="digital"),
            dict(mode="NSA", lte_latency_ms=10.0),
        ):
            out = simulate_ia_batch(make_scenario(**kw), 100, rng)
            assert (out.t_total_ms == out.t_sweep_ms + out.t_br_ms).all()

    def test_digital_gnb_chooses_its_one_step(self):
        out = simulate_ia_batch(
            make_scenario(m_gnb=8, arch_gnb="digital", m_ue=4),
            100,
            np.random.default_rng(4),
        )
        assert (out.chosen_g == 0).all()


class TestDigitalIsAOneStepSweep:
    """A digital gNB of M elements times like a hybrid gNB with k_bf = M:
    both sweep every direction in one step, so every timing result must
    be the same, bit for bit."""

    @staticmethod
    def _twins(m_gnb, ue, n_ss, mode, channel):
        kw = dict(m_gnb=m_gnb, n_ss=n_ss, channel=channel, **ue)
        if mode == "NSA":
            kw.update(mode="NSA", lte_latency_ms=4.0)
        digital = make_scenario(arch_gnb="digital", **kw)
        hybrid = make_scenario(arch_gnb="hybrid", k_bf_gnb=m_gnb, **kw)
        return digital, hybrid

    @pytest.mark.parametrize("mode", ["SA", "NSA"])
    @pytest.mark.parametrize(
        "channel",
        [ChannelParams(), ChannelParams(shadowing_sigma_db=0.0, side_lobe_floor_db=0.0)],
        ids=["shadowed", "ties"],
    )
    @pytest.mark.parametrize("n_ss", [3, 64])
    @pytest.mark.parametrize(
        "ue",
        [
            dict(m_ue=4),
            dict(m_ue=16, arch_ue="digital"),
            dict(m_ue=16, arch_ue="hybrid", k_bf_ue=3),
        ],
        ids=["analog-ue", "digital-ue", "hybrid-ue"],
    )
    @pytest.mark.parametrize("m_gnb", [1, 8, 64])
    def test_same_timing_as_a_one_step_hybrid(self, m_gnb, ue, n_ss, mode, channel):
        digital, hybrid = self._twins(m_gnb, ue, n_ss, mode, channel)
        a = simulate_ia_batch(digital, 500, np.random.default_rng(31))
        b = simulate_ia_batch(hybrid, 500, np.random.default_rng(31))
        for field in ("t_sweep_ms", "t_br_ms", "t_total_ms", "chosen_g"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        for closed_form in (expected_beam_report_delay_ms, oracle_expected_ia, omega_br):
            assert closed_form(digital) == closed_form(hybrid), closed_form.__name__


class TestRlfRecovery:
    @pytest.mark.parametrize("lte", LTE_LATENCY_VALUES_MS)
    def test_nsa_recovers_in_exactly_the_lte_latency(self, lte):
        sc = make_scenario(mode="NSA", lte_latency_ms=lte)
        ia = simulate_ia_batch(sc, 1000, np.random.default_rng(0))
        batch = simulate_rlf_batch(sc, ia)
        assert batch.t_total_ms.size == 1000
        assert np.all(batch.t_total_ms == lte)
        assert np.ptp(batch.t_total_ms) == 0.0

    def test_sa_recovery_is_the_ia_campaign(self):
        sc = make_scenario(m_gnb=16, m_ue=4, n_ss=8)
        assert oracle_expected_rlf_sa(sc) == oracle_expected_ia(sc)
        ia = simulate_ia_batch(sc, 4000, np.random.default_rng(14))
        batch = simulate_rlf_batch(sc, ia)
        assert batch is ia
        se = batch.t_total_ms.std(ddof=1) / math.sqrt(batch.t_total_ms.size)
        assert abs(batch.t_total_ms.mean() - oracle_expected_rlf_sa(sc)) <= 3 * se

    def test_nsa_has_no_sa_oracle(self):
        with pytest.raises(NotApplicableError):
            oracle_expected_rlf_sa(make_scenario(mode="NSA", lte_latency_ms=0.8))


class TestTracking:
    def test_frozen_default_means(self):
        # Hand-derived: t_csi=5 slots = 70 symbols; t_ss=20 ms = 2240 symbols.
        # Occasions at 70m collide when 70m mod 2240 < 256, killing the
        # only occasion of directions 0-3 and 32-35 over the 64-occasion
        # hyperperiod; every surviving direction keeps one occasion per
        # 4480 symbols, so its renewal mean is 2240 symbols = 20 ms.
        t20 = expected_tracking_delay_ms(make_scenario(t_ss_ms=20.0))
        assert t20 == pytest.approx(20.0, rel=1e-12)
        # At t_ss=80 ms the pattern holds 128 occasions; directions 0-3
        # lose one of their two and wait 40 ms on average, the rest 20:
        # (4*40 + 60*20) / 64 = 21.25.
        t80 = expected_tracking_delay_ms(make_scenario(t_ss_ms=80.0))
        assert t80 == pytest.approx(21.25, rel=1e-12)

    def test_no_collisions_gives_half_the_service_period(self):
        sc = make_scenario(
            m_gnb=64, m_ue=1, csi=CsiRsConfig(t_csi_slots=5, delta_f_rb=20)
        )
        # 64 directions, one occasion each per 64*70 symbols, equal gaps
        assert expected_tracking_delay_ms(sc) == pytest.approx(
            64 * 70 / 2 * SYM_MS, rel=1e-12
        )

    def test_simulation_matches_renewal_mean(self):
        sc = make_scenario(m_gnb=64, m_ue=16, arch_gnb="digital")
        waits, censored = simulate_tracking_batch(
            tracking_plan(sc), 8000, np.random.default_rng(17)
        )
        assert not censored.any()
        kept = waits[~np.isnan(waits)]
        se = kept.std(ddof=1) / math.sqrt(kept.size)
        assert abs(kept.mean() - expected_tracking_delay_ms(sc)) <= 3 * se

    def test_censors_exactly_the_runs_of_directions_with_no_occasion(self):
        # the default 64 x 1 analog sweep: directions 0-3 and 32-35 lose
        # their only occasion (see test_frozen_default_means). A run's
        # direction is the batch's first draw.
        tp = tracking_plan(make_scenario(m_gnb=64, m_ue=1))
        g = math.gcd(len(tp.skip), tp.s)
        dead = [d for d in range(tp.s) if all(k < 0 for k in tp.skip[d % g :: g])]
        assert dead == [0, 1, 2, 3, 32, 33, 34, 35]
        waits, censored = simulate_tracking_batch(tp, 4000, np.random.default_rng(9))
        dirs = np.random.default_rng(9).integers(0, tp.s, size=4000)
        np.testing.assert_array_equal(censored, np.isin(dirs, dead))
        assert 0 < censored.sum() < censored.size
        assert np.isnan(waits[censored]).all() and np.isfinite(waits[~censored]).all()

    def test_long_waits_count_toward_the_renewal_mean(self):
        # 64 x 16 analog, n_ss = 8: one direction in 32 has no occasion,
        # and about a fifth of the other waits last over 500 ms; they all
        # enter the mean, which estimates the closed form
        sc = make_scenario(m_gnb=64, m_ue=16, n_ss=8)
        waits, censored = simulate_tracking_batch(
            tracking_plan(sc), 8000, np.random.default_rng(5)
        )
        kept = waits[~censored]
        assert 0 < censored.sum() < censored.size
        assert (kept > 500.0).mean() > 0.1
        se = kept.std(ddof=1) / math.sqrt(kept.size)
        assert abs(kept.mean() - expected_tracking_delay_ms(sc)) <= 3 * se

    def test_everything_collides_is_not_applicable(self):
        # occasions every 160 slots land exactly on each burst start, so no
        # direction would ever be tracked, and the geometry is refused; off
        # the SS blocks' RBs they survive
        csi = CsiRsConfig(t_csi_slots=160, delta_f_rb=0)
        with pytest.raises(ConfigurationError, match=STARVED):
            make_scenario(m_gnb=4, m_ue=1, n_ss=64, csi=csi)
        csi = dataclasses.replace(csi, delta_f_rb=20)
        tp = tracking_plan(make_scenario(m_gnb=4, m_ue=1, n_ss=64, csi=csi))
        assert tp.dropped_count == 0

    @pytest.mark.parametrize("m_gnb", [MAX_SWEEP_LENGTH, MAX_SWEEP_LENGTH - 1])
    def test_the_longest_sweeps_plan_holds_one_entry_per_residue(self, m_gnb):
        # n = 4, t_ss 160 ms, t_csi 5 slots: the 35,840-symbol burst grid
        # repeats after q = 512 occasions of 70 symbols. The hyperperiod
        # holds lcm(q, s) occasions, 4096 here and 2,096,640 at the odd
        # s = 4095, but the plan holds only the q residues.
        sc = make_scenario(m_gnb=m_gnb, n=4, t_ss_ms=160.0)
        tp = tracking_plan(sc)
        assert tp.s == m_gnb
        assert tp.hyper_sym == math.lcm(512, m_gnb) * 70
        sized = [v for v in vars(tp).values() if hasattr(v, "__len__")]
        assert sized and max(map(len, sized)) == len(tp.skip) == 512


class TestOmegaBr:
    def test_directional_scales_with_direction_groups(self):
        window_sym = 200.0 * 14 / 0.125
        assert omega_br(make_scenario(m_gnb=64)) == pytest.approx(
            64 * 2 / window_sym, rel=1e-12
        )
        assert omega_br(
            make_scenario(m_gnb=64, arch_gnb="hybrid", k_bf_gnb=8)
        ) == pytest.approx(8 * 2 / window_sym, rel=1e-12)

    def test_single_opportunity_cases(self):
        window_sym = 200.0 * 14 / 0.125
        one = 2 / window_sym
        assert omega_br(make_scenario(arch_gnb="digital")) == pytest.approx(one)
        assert omega_br(make_scenario(mode="NSA", lte_latency_ms=10.0)) == pytest.approx(one)

    def test_window_rescales(self):
        a = omega_br(make_scenario(omega_br_window_ms=100.0))
        b = omega_br(make_scenario(omega_br_window_ms=200.0))
        assert a == pytest.approx(2 * b, rel=1e-12)


class TestScenarioValidation:
    def test_nsa_requires_lte_leg(self):
        with pytest.raises(ConfigurationError, match="lte_latency_ms"):
            make_scenario(mode="NSA")

    def test_lte_latency_from_known_set(self):
        with pytest.raises(ConfigurationError, match="lte_latency_ms"):
            make_scenario(mode="NSA", lte_latency_ms=7.0)
        # each refusal shows the value as given: the string crashed the
        # message's {:g} format, and True read as "=1"
        latencies = list(LTE_LATENCY_VALUES_MS)
        for value, rule in [
            ("10", "a real number"),
            (True, "a real number"),
            (10.0000001, f"one of {latencies}"),
        ]:
            message = re.escape(f"deployment.lte_latency_ms={value!r}: must be {rule}")
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                make_scenario(mode="NSA", lte_latency_ms=value)

    def test_mode_takes_a_member_or_its_value(self):
        # a value was once stored as given: "XYZ" was accepted, and "NSA"
        # skipped the LTE latency check, then failed in estimate_metrics
        sa = make_scenario(m_gnb=4, n_ss=8)
        nsa = dataclasses.replace(sa, mode="NSA", lte_latency_ms=10)
        assert nsa.mode is DeploymentMode.NSA
        assert dataclasses.replace(sa, mode="SA").mode is DeploymentMode.SA
        twin = make_scenario(m_gnb=4, n_ss=8, mode="NSA", lte_latency_ms=10.0)
        settings = CampaignSettings(n_runs=50)
        assert estimate_metrics(nsa, settings) == estimate_metrics(twin, settings)
        with pytest.raises(ConfigurationError, match="requires deployment.lte_latency_ms"):
            dataclasses.replace(sa, mode="NSA")
        for value in ("XYZ", "nsa", 1, None):
            message = re.escape(f"deployment.mode={value!r}: must be one of ['SA', 'NSA']")
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                dataclasses.replace(sa, mode=value)

    def test_mmwave_needs_wide_subcarriers(self):
        with pytest.raises(ConfigurationError, match="numerology"):
            make_scenario(n=1)

    @pytest.mark.parametrize("ms", [0.0, -200.0, math.nan, math.inf, "200", True, None])
    def test_omega_br_window_must_be_positive_and_finite(self, ms):
        # unchecked, nan gave omega_br = nan and inf gave 0, and a string
        # or None failed with a bare TypeError
        with pytest.raises(ConfigurationError, match=r"deployment\.omega_br_window_ms"):
            make_scenario(omega_br_window_ms=ms)

    def test_csi_band_must_fit_carrier(self):
        with pytest.raises(ConfigurationError, match="carrier"):
            make_scenario(csi=CsiRsConfig(delta_f_rb=240, bandwidth_rb=50))

    def test_scenario_id_encodes_the_setup(self):
        sc = make_scenario(m_gnb=64, m_ue=4, n_ss=8, t_ss_ms=40.0)
        assert sc.scenario_id == "sa_a64xa4_n3_nss8_tss40"
        nsa = make_scenario(mode="NSA", lte_latency_ms=0.8)
        assert nsa.scenario_id.endswith("_lte0.8")

    def test_label_overrides_id(self):
        assert make_scenario(label="case7").scenario_id == "case7"


class TestPlanCaches:
    @pytest.mark.parametrize("workload, plans", [("dense_grid", 8), ("wide_arrays", 6)])
    def test_one_tracking_batch_per_distinct_tracking_plan(
        self, workload, plans, monkeypatch
    ):
        # the tracking plan reads only the sweep length, bursts, numerology
        # and CSI-RS grid, so SA and NSA twins get equal plans, and so do
        # dense_grid's 64x1, 16x4 and 4x16 arrays, which sweep 64 slots each
        scenarios = parse_scenario(WORKLOADS / f"{workload}.yaml").scenarios
        assert len({tracking_plan(sc) for sc in scenarios}) == plans
        batches = []

        def tracking_batch(tp, *args, **kwargs):
            batches.append(tp)
            return simulate_tracking_batch(tp, *args, **kwargs)

        monkeypatch.setattr(evaluation, "simulate_tracking_batch", tracking_batch)
        evaluation._tracking_stats.cache_clear()
        for sc in scenarios:
            estimate_metrics(sc, CampaignSettings(n_runs=20, seed=1))
        assert len(batches) == len(set(batches)) == plans
