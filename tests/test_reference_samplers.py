"""The vectorized campaign samplers against their reference forms."""
from __future__ import annotations

import dataclasses
import math
import statistics

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import make_scenario, scenarios
from nrbeamsim.errors import ConfigurationError
from nrbeamsim.evaluation import CampaignSettings, MetricStat, estimate_metrics
from nrbeamsim.frame import (
    CSI_PERIODS_SLOTS,
    CSI_SYMBOL_COUNTS,
    SS_PERIODS_MS,
    SYMBOLS_PER_SLOT,
    CsiRsConfig,
)
from nrbeamsim.link import ChannelParams
from nrbeamsim.procedures import (
    LTE_LATENCY_VALUES_MS,
    DeploymentMode,
    draw_sweep_winner,
    p_correct_beam,
    simulate_ia_batch,
    simulate_rlf_batch,
    simulate_tracking_batch,
    sweep_plan,
    tracking_plan,
)
from reference import (
    ia_batch_formula,
    ia_batch_matrix,
    matrix_sweep_winner,
    rlf_batch_formula,
    tracking_batch_loop,
)

N_WINNERS = 20_000

# sweep lengths 1, 2, 4, 64 (analog), 32 (hybrid), 16 (digital gNB)
WINNER_CASES = {
    "s1": dict(m_gnb=1, m_ue=1),
    "analog2x1": dict(m_gnb=2, m_ue=1),
    "analog4x1": dict(m_gnb=4, m_ue=1),
    "analog4x1_floor0": dict(
        m_gnb=4, m_ue=1, channel=ChannelParams(side_lobe_floor_db=0.0)
    ),
    "analog16x4": dict(m_gnb=16, m_ue=4),
    "analog16x4_sigma2": dict(
        m_gnb=16, m_ue=4, channel=ChannelParams(shadowing_sigma_db=2.0)
    ),
    "hybrid64x4": dict(m_gnb=64, m_ue=4, arch_gnb="hybrid", k_bf_gnb=8),
    "digital64x16": dict(m_gnb=64, m_ue=16, arch_gnb="digital"),
}


def _winners(sc, seed):
    """Best slots of N_WINNERS sweeps at a fixed aligned slot, drawn from the
    shadowing offsets alone and by the argmax of absolute per-block SNRs
    on a random mean SNR per run."""
    plan = sweep_plan(sc)
    k_star = np.full(N_WINNERS, plan.s // 2)
    rng = np.random.default_rng(seed)
    base_db = rng.uniform(-40.0, 40.0, size=N_WINNERS)
    return (
        draw_sweep_winner(plan, sc.channel, k_star, rng),
        matrix_sweep_winner(plan, sc.channel, base_db, k_star, rng),
    )


def _chi2_critical(df: int, alpha: float) -> float:
    """Upper chi-square quantile by the Wilson-Hilferty approximation."""
    z = statistics.NormalDist().inv_cdf(1.0 - alpha)
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def _se_apart(a: np.ndarray, b: np.ndarray) -> float:
    """Difference of two sample means in units of its standard error."""
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    if se == 0.0:
        return 0.0 if a.mean() == b.mean() else math.inf
    return abs(a.mean() - b.mean()) / se


class TestSweepWinnerAgainstMatrix:
    @pytest.mark.parametrize("name", sorted(set(WINNER_CASES) - {"s1"}))
    def test_chosen_labels_chi_square(self, name):
        sc = make_scenario(n_ss=8, **WINNER_CASES[name])
        keys = _winners(sc, 11)
        cats = np.unique(np.concatenate(keys))
        counts = np.array([[np.count_nonzero(k == c) for c in cats] for k in keys])
        expected = counts.sum(axis=0) * counts.sum(axis=1)[:, None] / counts.sum()
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < _chi2_critical(cats.size - 1, 1e-3)

    @pytest.mark.parametrize("name", ["hybrid64x4", "analog16x4", "analog4x1"])
    def test_batch_delays_match(self, name):
        sc = make_scenario(n_ss=8, **WINNER_CASES[name])
        new = simulate_ia_batch(sc, N_WINNERS, np.random.default_rng(31))
        ref = ia_batch_matrix(sc, N_WINNERS, np.random.default_rng(32))
        assert _se_apart(new.t_br_ms, ref.t_br_ms) <= 4.0
        assert _se_apart(new.t_total_ms, ref.t_total_ms) <= 4.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(m_gnb=1, m_ue=1),
            dict(m_gnb=16, m_ue=4, channel=ChannelParams(shadowing_sigma_db=0.0)),
            dict(
                m_gnb=16,
                m_ue=4,
                channel=ChannelParams(shadowing_sigma_db=0.0, side_lobe_floor_db=0.0),
            ),
            dict(
                m_gnb=64,
                m_ue=4,
                arch_gnb="hybrid",
                k_bf_gnb=8,
                channel=ChannelParams(shadowing_sigma_db=0.0, side_lobe_floor_db=0.0),
            ),
            dict(
                m_gnb=64,
                m_ue=4,
                arch_gnb="digital",
                channel=ChannelParams(shadowing_sigma_db=0.0, side_lobe_floor_db=0.0),
            ),
        ],
        ids=[
            "s1",
            "sigma0",
            "sigma0_floor0",
            "sigma0_floor0_hybrid",
            "sigma0_floor0_digital",
        ],
    )
    def test_deterministic_winner_is_exact(self, kw):
        # the arrival phase and then the true pairs come first in both
        # streams, so the runs line up one to one when the winner is not
        # random
        sc = make_scenario(n_ss=8, **kw)
        new = simulate_ia_batch(sc, 2000, np.random.default_rng(41))
        ref = ia_batch_matrix(sc, 2000, np.random.default_rng(41))
        assert np.array_equal(new.chosen_g, ref.chosen_g)
        plan = sweep_plan(sc)
        rng = np.random.default_rng(42)
        k_star = rng.integers(0, plan.s, size=2000)
        base_db = rng.uniform(-40.0, 40.0, size=2000)
        assert np.array_equal(
            draw_sweep_winner(plan, sc.channel, k_star, rng),
            matrix_sweep_winner(plan, sc.channel, base_db, k_star, rng),
        )


def _p_quadrature(s, sigma, floor):
    """p_correct_beam by adaptive quadrature, split where the integrand peaks."""
    from scipy import integrate, special

    def f(z):
        return math.exp(-0.5 * z * z + (s - 1) * special.log_ndtr(z - floor / sigma))

    cuts = (-40.0, -5.0, 0.0, 2.0, 4.0, 6.0, 10.0, 40.0)
    total = sum(
        integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for a, b in zip(cuts, cuts[1:])
    )
    return total / math.sqrt(2.0 * math.pi)


class TestCorrectBeamProbability:
    @pytest.mark.parametrize("s", [2, 4, 64, 256, 1024])
    @pytest.mark.parametrize("floor", [-10.0, -3.0, 0.0])
    def test_matches_the_matrix_sampler(self, s, floor):
        cp = ChannelParams(side_lobe_floor_db=floor)
        sc = make_scenario(m_gnb=s, m_ue=1, channel=cp)
        plan = sweep_plan(sc)
        n = min(20_000, 2_000_000 // s)
        rng = np.random.default_rng(s)
        k_star = rng.integers(0, s, size=n)
        base_db = rng.uniform(-40.0, 40.0, size=n)
        wins = matrix_sweep_winner(plan, sc.channel, base_db, k_star, rng) == k_star
        p = p_correct_beam(s, sc.channel.shadowing_sigma_db, floor)
        assert abs(wins.mean() - p) <= 4.5 * math.sqrt(p * (1.0 - p) / n)

    @pytest.mark.parametrize("s", [2, 4, 64, 256, 1024, 4096])
    @pytest.mark.parametrize("floor", [-10.0, -3.0, 0.0])
    @pytest.mark.parametrize("sigma", [0.5, 8.7, 40.0])
    def test_matches_adaptive_quadrature(self, s, floor, sigma):
        pytest.importorskip("scipy")
        assert p_correct_beam(s, sigma, floor) == pytest.approx(
            _p_quadrature(s, sigma, floor), rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize("s", [2, 3, 64, 4096])
    def test_exact_cases(self, s):
        # the winners these imply are pinned by test_deterministic_winner_is_exact
        assert p_correct_beam(1, 8.7, -10.0) == 1.0
        assert p_correct_beam(s, 0.0, -10.0) == 1.0
        assert p_correct_beam(s, 0.0, -1e-9) == 1.0
        assert p_correct_beam(s, 8.7, 0.0) == 1.0 / s
        assert p_correct_beam(s, 1e-6, 0.0) == 1.0 / s


@st.composite
def tracking_cases(draw):
    t_csi = draw(st.sampled_from(CSI_PERIODS_SLOTS))
    csi = dict(
        t_csi_slots=t_csi,
        n_symbols=draw(st.sampled_from(CSI_SYMBOL_COUNTS)),
        delta_t_symbols=draw(st.integers(0, t_csi * SYMBOLS_PER_SLOT - 1)),
        delta_f_rb=draw(st.integers(0, 40)),
    )
    arch_gnb = draw(st.sampled_from(["analog", "digital", "hybrid"]))
    m_gnb = draw(st.integers(1, 32))
    kw = dict(
        m_gnb=m_gnb,
        m_ue=draw(st.integers(1, 8)),
        arch_gnb=arch_gnb,
        arch_ue=draw(st.sampled_from(["analog", "digital"])),
        k_bf_gnb=draw(st.integers(1, m_gnb)) if arch_gnb == "hybrid" else None,
        n=draw(st.integers(2, 4)),
        n_ss=draw(st.integers(1, 64)),
        t_ss_ms=float(draw(st.sampled_from(SS_PERIODS_MS))),
    )
    return kw, csi


class ScriptedDraws:
    """Stands in for a Generator in a tracking campaign: the campaign's
    two draws return these directions and arrival instants."""

    def __init__(self, dirs, t0):
        self.dirs = np.array(dirs, dtype=np.int64)
        self.t0 = np.array(t0, dtype=np.float64)

    def integers(self, low, high, size):
        assert size == self.dirs.size and self.dirs.max() < high
        return self.dirs.copy()

    def uniform(self, low, high, size):
        assert size == self.t0.size and self.t0.max() < high
        return self.t0.copy()


# n = 3, 5 ms bursts of 560 symbols and a 20-slot (280-symbol) CSI grid
# at delta_t = 0: direction 0's occasions all sit on the first SS block,
# and direction 1 has one occasion per burst, at symbol 280
ONE_DIRECTION_COLLIDES = (
    dict(m_gnb=2, m_ue=1, n=3, t_ss_ms=5.0),
    dict(t_csi_slots=20),
)
# arrivals on direction 1's occasion, just before and after it, after it
# to the end of the hyperperiod (wrapping to the next one), and on the
# censored direction 0
ON_AND_AROUND_OCCASIONS = ScriptedDraws(
    dirs=[1, 1, 1, 1, 1, 0, 0],
    t0=[280.0, 279.5, 280.5, 559.75, 0.0, 280.0, 0.25],
)
SCRIPTED = dict(case=ONE_DIRECTION_COLLIDES, n_runs=7, seed=ON_AND_AROUND_OCCASIONS)


class TestTrackingBatchAgainstLoop:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        case=tracking_cases(),
        n_runs=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(**SCRIPTED)
    @example(case=ONE_DIRECTION_COLLIDES, n_runs=400, seed=3)
    def test_bit_for_bit(self, case, n_runs, seed):
        kw, csi = case
        try:
            sc = make_scenario(csi=CsiRsConfig(**csi), **kw)
        except ConfigurationError:
            assume(False)

        def rng():
            if isinstance(seed, ScriptedDraws):
                return seed
            return np.random.default_rng(seed)

        tp = tracking_plan(sc)
        got_w, got_c = simulate_tracking_batch(tp, n_runs, rng())
        ref_w, ref_c = tracking_batch_loop(sc, n_runs, rng())
        assert got_w.tobytes() == ref_w.tobytes()
        assert np.array_equal(got_c, ref_c)
        if seed is ON_AND_AROUND_OCCASIONS:
            # in symbols: 0, 0.5, 559.5, 280.25 (wrapped), 280; censored twice
            waits_sym = got_w / sc.numerology.symbol_ms
            assert waits_sym[:5] == pytest.approx([0.0, 0.5, 559.5, 280.25, 280.0])
            assert got_c.tolist() == [False] * 5 + [True] * 2


def nsa_twin(sc, lte_latency_ms=10.0):
    """The NSA deployment of SA scenario ``sc``: the same geometry, with
    the report and recovery over an LTE leg of ``lte_latency_ms``."""
    return dataclasses.replace(
        sc, mode=DeploymentMode.NSA, lte_latency_ms=lte_latency_ms
    )


# beyond the small random SA scenarios: NSA, a digital gNB, a hybrid gNB
# whose last beam group is short, odd arrays co-prime to n_ss, the NSA
# twins of those four, and the shadowless tie at a 0 dB floor
FORMULA_EXAMPLES = {
    "nsa16x4": make_scenario(m_gnb=16, m_ue=4, n_ss=8, mode="NSA", lte_latency_ms=10.0),
    "digital64x16": make_scenario(m_gnb=64, m_ue=16, arch_gnb="digital", n_ss=8),
    "hybrid64x4": make_scenario(m_gnb=64, m_ue=4, arch_gnb="hybrid", k_bf_gnb=6, n_ss=8),
    "odd127x1": make_scenario(m_gnb=127, m_ue=1, n_ss=8),
    "odd255x1": make_scenario(m_gnb=255, m_ue=1, n_ss=64),
    "tie16x4": make_scenario(
        m_gnb=16,
        m_ue=4,
        n_ss=8,
        channel=ChannelParams(shadowing_sigma_db=0.0, side_lobe_floor_db=0.0),
    ),
}
for _name in ("digital64x16", "hybrid64x4", "odd127x1", "odd255x1"):
    FORMULA_EXAMPLES[f"nsa_{_name}"] = nsa_twin(FORMULA_EXAMPLES[_name])
BATCH_FIELDS = ("t_sweep_ms", "t_br_ms", "t_total_ms", "chosen_g")


class TestBatchesAgainstFormula:
    """The in-place IA and recovery batches against their first,
    one-expression-per-quantity form: the same draws must give the same
    bits."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sc=scenarios(), n_runs=st.integers(1, 500), seed=st.integers(0, 2**32 - 1))
    @example(sc=FORMULA_EXAMPLES["nsa16x4"], n_runs=2_000, seed=1)
    @example(sc=FORMULA_EXAMPLES["digital64x16"], n_runs=2_000, seed=2)
    @example(sc=FORMULA_EXAMPLES["hybrid64x4"], n_runs=2_000, seed=3)
    @example(sc=FORMULA_EXAMPLES["odd127x1"], n_runs=2_000, seed=4)
    @example(sc=FORMULA_EXAMPLES["odd255x1"], n_runs=2_000, seed=5)
    @example(sc=FORMULA_EXAMPLES["tie16x4"], n_runs=2_000, seed=6)
    @example(sc=FORMULA_EXAMPLES["nsa_digital64x16"], n_runs=2_000, seed=7)
    @example(sc=FORMULA_EXAMPLES["nsa_hybrid64x4"], n_runs=2_000, seed=8)
    @example(sc=FORMULA_EXAMPLES["nsa_odd127x1"], n_runs=2_000, seed=9)
    @example(sc=FORMULA_EXAMPLES["nsa_odd255x1"], n_runs=2_000, seed=10)
    def test_ia_and_rlf_batches_bit_for_bit(self, sc, n_runs, seed):
        ia = simulate_ia_batch(sc, n_runs, np.random.default_rng(seed))
        for name, got, formula in (
            ("ia", ia, ia_batch_formula),
            ("rlf", simulate_rlf_batch(sc, ia), rlf_batch_formula),
        ):
            want = formula(sc, n_runs, np.random.default_rng(seed))
            for field in BATCH_FIELDS:
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype, (name, field)
                assert np.array_equal(a, b), (name, field)


class TestSharedCampaign:
    """An NSA twin's IA batch draws only the arrival, so its sweep times
    are its SA twin's, bit for bit, and SA recovery reads the IA
    campaign."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        sc=scenarios(),
        n_runs=st.integers(1, 500),
        seed=st.integers(0, 2**32 - 1),
        lte=st.sampled_from(LTE_LATENCY_VALUES_MS),
    )
    @example(sc=FORMULA_EXAMPLES["digital64x16"], n_runs=2_000, seed=7, lte=0.8)
    @example(sc=FORMULA_EXAMPLES["odd255x1"], n_runs=2_000, seed=10, lte=40.0)
    def test_nsa_twin_sweeps_like_its_sa_twin(self, sc, n_runs, seed, lte):
        sa = simulate_ia_batch(sc, n_runs, np.random.default_rng(seed))
        nsa = simulate_ia_batch(nsa_twin(sc, lte), n_runs, np.random.default_rng(seed))
        assert nsa.t_sweep_ms.tobytes() == sa.t_sweep_ms.tobytes()
        assert np.array_equal(nsa.t_total_ms, nsa.t_sweep_ms + lte)
        assert np.all(nsa.t_br_ms == lte)
        assert np.all(nsa.chosen_g == -1)

    @pytest.mark.parametrize("name", ["digital64x16", "hybrid64x4", "odd127x1"])
    def test_reports_read_one_ia_campaign(self, name):
        campaign = CampaignSettings(n_runs=2_000, seed=5)
        sa = estimate_metrics(FORMULA_EXAMPLES[name], campaign)
        nsa = estimate_metrics(nsa_twin(FORMULA_EXAMPLES[name], 4.0), campaign)
        assert sa.t_rlf == sa.t_ia
        assert nsa.t_rlf == MetricStat(4.0, 0.0, campaign.n_runs)
        assert nsa.t_br == MetricStat(4.0, 0.0, campaign.n_runs)
