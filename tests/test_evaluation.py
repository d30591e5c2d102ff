from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_scenario, scenarios
from nrbeamsim.cli import EXIT_CONFIG, EXIT_OK, main
from nrbeamsim.errors import ConfigurationError
from nrbeamsim.evaluation import (
    KIVIAT_SCALE,
    MAX_RUNS,
    CampaignSettings,
    MetricStat,
    estimate_metrics,
    kiviat_normalize,
    omega_ia_for,
    omega_tr_for,
    stat_from_samples,
)
from nrbeamsim.procedures import (
    LTE_LATENCY_VALUES_MS,
    DeploymentMode,
    expected_tracking_delay_ms,
    oracle_expected_ia,
    oracle_expected_rlf_sa,
    simulate_tracking_batch,
    sweep_plan,
    tracking_plan,
)
from nrbeamsim.reporting import reports_from_json
from nrbeamsim.scenario_io import parse_scenario, scenario_file_from_dict

WORKLOADS = Path(__file__).resolve().parents[1] / "nrbench" / "workloads"
FINITE = st.floats(-1e6, 1e6)
DIGITAL_16X4 = dict(m_gnb=16, arch_gnb="digital", m_ue=4, n_ss=8)

# campaign values that neither a caller nor a scenario file may set; a
# file also reads 2.0 as the integer 2 and "500" as the number 500, so
# those are refused by the library alone
BAD_CAMPAIGNS = [
    ("n_runs", 0),
    ("n_runs", MAX_RUNS + 1),
    ("n_runs", 10**12),
    ("n_runs", True),
    ("seed", -1),
    ("seed", True),
    ("seed", 1.5),
    ("seed", "7"),
]


class TestMetricStat:
    def test_from_samples(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        st = stat_from_samples(x)
        assert st.mean == 2.5
        assert st.stderr == pytest.approx(x.std(ddof=1) / 2.0)
        assert st.n_samples == 4

    def test_nan_samples_are_dropped(self):
        st = stat_from_samples(np.array([1.0, np.nan, 3.0]))
        assert st.mean == 2.0
        assert st.n_samples == 2

    def test_empty_and_singleton(self):
        assert stat_from_samples(np.array([])).n_samples == 0
        assert math.isnan(stat_from_samples(np.array([])).mean)
        one = stat_from_samples(np.array([7.0]))
        assert (one.mean, one.stderr, one.n_samples) == (7.0, 0.0, 1)

    @pytest.mark.parametrize("which", ["lte_0.8", "digital_tail"])
    def test_constant_samples_are_exact(self, which):
        if which == "lte_0.8":
            value = 0.8
        else:
            plan = sweep_plan(make_scenario(**DIGITAL_16X4))
            value = float(plan.report_tail_sym[0] * plan.symbol_ms)
        x = np.full(10_000, value)
        assert x.mean() != value  # a float average misses the last digit
        x[5] = np.nan
        assert stat_from_samples(x) == MetricStat(value, 0.0, 9_999)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        x=st.one_of(
            # random samples, lengths 1 and 2 among them
            arrays(np.float64, st.integers(1, 400), elements=FINITE),
            arrays(np.float64, st.integers(1, 2), elements=FINITE),
            # NaN-bearing samples, all-NaN ones among them
            arrays(np.float64, st.integers(1, 400), elements=FINITE | st.just(math.nan)),
            # constant samples, with or without NaNs
            st.builds(
                lambda value, n, nan_at: np.where(np.arange(n) == nan_at, math.nan, value),
                FINITE,
                st.integers(1, 400),
                st.integers(-1, 5),
            ),
        )
    )
    @example(x=np.array([0.0, -0.0]))
    @example(x=np.array([math.nan, math.nan]))
    @example(x=np.full(10_000, 0.8))
    def test_matches_numpy_mean_and_std_bit_for_bit(self, x):
        kept = x[~np.isnan(x)]
        before = x.tobytes()
        got = stat_from_samples(x)
        assert x.tobytes() == before  # the samples are not written to
        assert got.n_samples == kept.size
        if kept.size == 0:
            assert math.isnan(got.mean) and math.isnan(got.stderr)
        elif kept.min() == kept.max():
            assert got.mean.hex() == float(kept.min()).hex() and got.stderr == 0.0
        else:
            want_stderr = float(kept.std(ddof=1) / math.sqrt(kept.size))
            assert got.mean.hex() == float(kept.mean()).hex()
            assert got.stderr.hex() == want_stderr.hex()

    def test_ci95_symmetric(self):
        st = MetricStat(mean=10.0, stderr=1.0, n_samples=100)
        lo, hi = st.ci95()
        assert (lo, hi) == (10.0 - 1.96, 10.0 + 1.96)


class TestEstimateMetrics:
    def test_same_seed_reproduces_exactly(self):
        sc = make_scenario(m_gnb=16, m_ue=4, n_ss=8)
        a = estimate_metrics(sc, CampaignSettings(n_runs=300, seed=5))
        b = estimate_metrics(sc, CampaignSettings(n_runs=300, seed=5))
        assert a == b

    def test_seed_matters(self):
        sc = make_scenario(m_gnb=16, m_ue=4, n_ss=8)
        a = estimate_metrics(sc, CampaignSettings(n_runs=300, seed=5))
        b = estimate_metrics(sc, CampaignSettings(n_runs=300, seed=6))
        assert a.t_ia.mean != b.t_ia.mean

    def test_nsa_deterministic_legs_have_zero_error(self):
        # read off 10,000-run batches, which a float average would miss
        for lte in LTE_LATENCY_VALUES_MS:
            sc = make_scenario(mode="NSA", lte_latency_ms=lte, n_ss=8)
            rep = estimate_metrics(sc, CampaignSettings(n_runs=10_000, seed=1))
            assert rep.t_br == MetricStat(lte, 0.0, 10_000)
            assert rep.t_rlf == MetricStat(lte, 0.0, 10_000)

    def test_digital_reporting_leg_is_constant(self):
        sc = make_scenario(**DIGITAL_16X4)
        rep = estimate_metrics(sc, CampaignSettings(n_runs=10_000, seed=1))
        plan = sweep_plan(sc)
        tail_ms = float(plan.report_tail_sym[0] * plan.symbol_ms)
        assert rep.t_br == MetricStat(tail_ms, 0.0, 10_000)
        # all blocks sent in one burst: wait (8-8)*4+2 symbols
        assert rep.t_br.mean == pytest.approx(2 * 0.125 / 14)

    def test_report_identity_fields(self):
        sc = make_scenario(m_gnb=8, m_ue=4, n_ss=8, t_ss_ms=40.0)
        rep = estimate_metrics(sc, CampaignSettings(n_runs=50, seed=2))
        assert rep.scenario_id == sc.scenario_id
        assert (rep.m_gnb, rep.m_ue) == (8, 4)
        assert (rep.mode, rep.arch_gnb, rep.arch_ue) == ("SA", "analog", "analog")
        assert (rep.n, rep.n_ss, rep.t_ss_ms) == (3, 8, 40.0)
        assert (rep.seed, rep.n_runs) == (2, 50)

    def test_accuracy_is_a_probability(self):
        rep = estimate_metrics(make_scenario(), CampaignSettings(n_runs=50, seed=3))
        assert 0.0 <= rep.accuracy <= 1.0

    def test_rejects_empty_campaign(self):
        with pytest.raises(ConfigurationError):
            estimate_metrics(make_scenario(), CampaignSettings(n_runs=0))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("seed", True),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", "7"),
            ("n_runs", True),
            ("n_runs", 2.0),
        ],
    )
    def test_rejects_a_bad_seed_or_run_count(self, name, value):
        # a bool seed was written to the report as `true`, and the others
        # raised numpy's TypeError or ValueError without the argument's name
        args = dict(n_runs=50, seed=1) | {name: value}
        with pytest.raises(ConfigurationError, match=rf"^{name}="):
            estimate_metrics(
                make_scenario(m_gnb=4, m_ue=1, n_ss=8), CampaignSettings(**args)
            )

    def test_numpy_integers_are_plain_ints_in_the_report(self):
        sc = make_scenario(m_gnb=4, m_ue=1, n_ss=8)
        rep = estimate_metrics(
            sc, CampaignSettings(n_runs=np.int64(50), seed=np.uint32(1))
        )
        assert rep == estimate_metrics(sc, CampaignSettings(n_runs=50, seed=1))
        assert type(rep.seed) is int and type(rep.n_runs) is int

    @pytest.mark.parametrize("n_runs", [MAX_RUNS + 1, 10**12])
    def test_rejects_runs_above_the_cap(self, n_runs):
        # refused before a batch allocates anything
        with pytest.raises(
            ConfigurationError, match=rf"^n_runs={n_runs}: must be in 1\.\.{MAX_RUNS}"
        ):
            estimate_metrics(make_scenario(), CampaignSettings(n_runs=n_runs))


class TestCampaignSettings:
    def test_defaults_are_the_scenario_files(self):
        assert CampaignSettings() == CampaignSettings(10_000, 42)
        assert scenario_file_from_dict({}).campaign == CampaignSettings()

    def test_a_campaign_is_its_run_count_and_seed(self):
        # no stopping rule: a tracking wait is never cut at a horizon
        assert [f.name for f in dataclasses.fields(CampaignSettings)] == [
            "n_runs",
            "seed",
        ]
        with pytest.raises(TypeError, match="horizon_ms"):
            CampaignSettings(horizon_ms=500.0)

    @pytest.mark.parametrize("key, value", BAD_CAMPAIGNS + [("n_runs", 2.0)])
    def test_a_bad_value_names_the_bare_key(self, key, value):
        with pytest.raises(ConfigurationError, match=rf"^{key}="):
            CampaignSettings(**{key: value})

    @pytest.mark.parametrize("key, value", BAD_CAMPAIGNS)
    def test_a_bad_file_value_names_the_file_and_key(
        self, key, value, tmp_path, capsys
    ):
        p = tmp_path / "campaign.yaml"
        p.write_text(yaml.safe_dump({"campaign": {key: value}}), encoding="utf-8")
        assert main(["validate", str(p)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {p}: campaign.{key}")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""

    def test_the_default_campaign_is_the_cli_default(self, tmp_path, capsys):
        # a file with no campaign block runs what estimate_metrics runs by
        # default
        p = tmp_path / "default.yaml"
        p.write_text("gnb: {elements: 16}\nss: {n_ss: 8}\n", encoding="utf-8")
        assert main(["sweep", str(p), "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        (written,) = reports_from_json((tmp_path / "reports.json").read_text())
        assert written == estimate_metrics(parse_scenario(p).scenarios[0])
        assert (written.seed, written.n_runs) == (42, 10_000)


class TestSharedTrackingCampaign:
    """Scenarios with equal tracking plans, such as SA and NSA twins,
    share one tracking campaign; any other seed or run count is a fresh
    campaign."""

    @staticmethod
    def _direct(sc, n_runs, seed):
        # the tracking campaign as estimate_metrics drew it per scenario
        tr_ss = np.random.SeedSequence(seed).spawn(3)[1]
        waits, censored = simulate_tracking_batch(
            tracking_plan(sc), n_runs, np.random.default_rng(tr_ss)
        )
        return stat_from_samples(waits), int(np.count_nonzero(censored))

    @pytest.mark.parametrize("workload", ["dense_grid", "wide_arrays"])
    def test_nsa_twin_reports_its_sa_twins_tracking(self, workload):
        scenarios = parse_scenario(WORKLOADS / f"{workload}.yaml").scenarios
        campaign = CampaignSettings(n_runs=300, seed=4)
        reports = {sc.scenario_id: estimate_metrics(sc, campaign) for sc in scenarios}
        nsa = [sc for sc in scenarios if sc.mode is DeploymentMode.NSA]
        assert 2 * len(nsa) == len(scenarios)
        for sc in nsa:
            sa = reports[sc.scenario_id.replace("mode=NSA", "mode=SA")]
            got = reports[sc.scenario_id]
            assert (got.t_tr, got.censored_tracking) == (sa.t_tr, sa.censored_tracking)
            assert (got.t_tr, got.censored_tracking) == self._direct(sc, 300, 4)

    @pytest.mark.parametrize("n_ss", [8, 64])
    def test_arrays_of_one_sweep_length_share_a_campaign(self, n_ss):
        # 64x1 and 16x4 both sweep 64 slots, so their tracking plans are
        # equal values, built apart, and key one cached campaign
        wide = make_scenario(m_gnb=64, m_ue=1, n_ss=n_ss)
        split = make_scenario(m_gnb=16, m_ue=4, n_ss=n_ss)
        plan = tracking_plan(wide)
        assert plan is not tracking_plan(split)
        assert plan == tracking_plan(split)
        assert hash(plan) == hash(tracking_plan(split))
        campaign = CampaignSettings(n_runs=400, seed=3)
        direct = self._direct(wide, 400, 3)
        for sc in (wide, split):
            rep = estimate_metrics(sc, campaign)
            assert (rep.t_tr, rep.censored_tracking) == direct

    def test_seed_and_run_count_each_get_a_fresh_campaign(self):
        sc = make_scenario(m_gnb=64, m_ue=4)
        base = dict(n_runs=400, seed=3)
        for change in ({}, {"seed": 8}, {"n_runs": 700}):
            args = base | change
            rep = estimate_metrics(sc, CampaignSettings(**args))
            assert rep.censored_tracking > 0
            assert (rep.t_tr, rep.censored_tracking) == self._direct(sc, **args)


class TestOverheadViews:
    def test_omega_ia_normalized_grid(self):
        # configured blocks over the burst period, scaled so the densest
        # configuration (64 blocks / 20 ms) sits at 10
        grid = {
            (64, 20.0): 10.0,
            (64, 80.0): 2.5,
            (8, 20.0): 1.25,
            (8, 80.0): 0.3125,
        }
        values = {
            key: omega_ia_for(make_scenario(n_ss=key[0], t_ss_ms=key[1]))
            for key in grid
        }
        top = max(values.values())
        for key, expect in grid.items():
            assert 10.0 * values[key] / top == pytest.approx(expect, rel=1e-12)

    def test_omega_ia_counts_configured_blocks(self):
        # the same n_ss costs the same even when the sweep needs fewer
        a = omega_ia_for(make_scenario(m_gnb=4, m_ue=1, n_ss=64))
        b = omega_ia_for(make_scenario(m_gnb=64, m_ue=1, n_ss=64))
        assert a == b

    def test_omega_tr_ignores_collisions(self):
        # the reserved share does not depend on how bursts overlap it
        clear = omega_tr_for(make_scenario())
        shifted = omega_tr_for(make_scenario(t_ss_ms=80.0))
        assert clear == pytest.approx(shifted, rel=1e-12)

    def test_omega_tr_frozen_default(self):
        # 1 symbol x 50 RB every 5 slots on a 277-RB carrier
        expect = 50 / (5 * 14 * 277)
        assert omega_tr_for(make_scenario()) == pytest.approx(expect, rel=1e-12)


class TestKiviat:
    def _reports(self):
        campaign = CampaignSettings(n_runs=200, seed=9)
        quick = estimate_metrics(make_scenario(m_gnb=4, m_ue=1, n_ss=8), campaign)
        slow = estimate_metrics(make_scenario(m_gnb=64, m_ue=1, n_ss=8), campaign)
        return quick, slow

    def test_axis_maximum_is_the_scale(self):
        quick, slow = self._reports()
        ks = kiviat_normalize([quick, slow])
        for a in range(len(ks.axes)):
            col = [ks.values[i][a] for i in range(2)]
            assert max(col) == pytest.approx(KIVIAT_SCALE)
            assert all(0 <= v <= KIVIAT_SCALE + 1e-12 for v in col)

    def test_delays_invert_to_reactiveness(self):
        quick, slow = self._reports()
        ks = kiviat_normalize([quick, slow])
        assert ks.axes == (
            "ia_reactiveness", "tracking_reactiveness", "omega_ia", "omega_tr"
        )
        # the faster scenario scores higher
        assert ks.values[0][0] > ks.values[1][0]
        assert ks.raw[0][0] == 1.0 / quick.t_ia.mean
        assert ks.raw[1][1] == 1.0 / slow.t_tr.mean
        assert ks.raw[0][2:] == (quick.omega_ia, quick.omega_tr)

    def test_scale_invariance(self):
        quick, slow = self._reports()
        a = kiviat_normalize([quick, slow]).values
        b = kiviat_normalize([slow, quick]).values
        assert a[0] == b[1]
        assert a[1] == b[0]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            kiviat_normalize([])


def _within_5_stderr(stat: MetricStat, expected: float) -> None:
    if stat.stderr == 0.0:
        assert stat.mean == pytest.approx(expected, rel=1e-9)
    else:
        assert abs(stat.mean - expected) <= 5.0 * stat.stderr, (stat, expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scenarios())
def test_simulated_means_sit_near_the_oracles(sc):
    # at 5 stderr a correct model misses about once in 2 million checks
    report = estimate_metrics(sc, CampaignSettings(n_runs=2000, seed=42))
    _within_5_stderr(report.t_ia, oracle_expected_ia(sc))
    _within_5_stderr(report.t_rlf, oracle_expected_rlf_sa(sc))
    if report.censored_tracking == 0:
        _within_5_stderr(report.t_tr, expected_tracking_delay_ms(sc))
