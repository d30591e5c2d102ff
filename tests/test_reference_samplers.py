"""The vectorized campaign samplers against their reference forms."""
from __future__ import annotations

import math
import statistics

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_scenario
from nrbeamsim.errors import ConfigurationError
from nrbeamsim.frame import (
    CSI_PERIODS_SLOTS,
    CSI_SYMBOL_COUNTS,
    SS_PERIODS_MS,
    SYMBOLS_PER_SLOT,
    CsiRsConfig,
)
from nrbeamsim.link import ChannelParams
from nrbeamsim.procedures import (
    draw_sweep_winner,
    normal_inv_cdf,
    simulate_ia_batch,
    simulate_tracking_batch,
    sweep_plan,
)
from reference import ia_batch_matrix, matrix_sweep_winner, tracking_batch_loop

N_WINNERS = 20_000
SAMPLERS = (draw_sweep_winner, matrix_sweep_winner)

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


def _winners(sampler, sc, seed):
    """(best slot, top SNR) of N_WINNERS sweeps at a fixed aligned slot."""
    plan = sweep_plan(sc)
    base = np.zeros(N_WINNERS)
    k_star = np.full(N_WINNERS, plan.s // 2)
    return sampler(plan, sc.channel, base, k_star, np.random.default_rng(seed))


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
        plan = sweep_plan(sc)
        keys = []
        for sampler, seed in zip(SAMPLERS, (11, 12)):
            best, _ = _winners(sampler, sc, seed)
            keys.append(plan.g_labels[best] * 1000 + plan.u_labels[best])
        cats = np.unique(np.concatenate(keys))
        counts = np.array([[np.count_nonzero(k == c) for c in cats] for k in keys])
        expected = counts.sum(axis=0) * counts.sum(axis=1)[:, None] / counts.sum()
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < _chi2_critical(cats.size - 1, 1e-3)

    @pytest.mark.parametrize("name", sorted(WINNER_CASES))
    def test_top_snr_mean_and_misdetection(self, name):
        sc = make_scenario(n_ss=8, **WINNER_CASES[name])
        (_, top_new), (_, top_ref) = (
            _winners(sampler, sc, seed) for sampler, seed in zip(SAMPLERS, (21, 22))
        )
        assert _se_apart(top_new, top_ref) <= 4.0
        # misdetection rates at the reference's quartiles as thresholds
        for thr in np.quantile(top_ref, (0.25, 0.5, 0.75)):
            assert _se_apart(top_new < thr, top_ref < thr) <= 4.0

    @pytest.mark.parametrize("name", ["hybrid64x4", "analog16x4", "analog4x1"])
    def test_batch_delays_match(self, name):
        sc = make_scenario(n_ss=8, **WINNER_CASES[name])
        new = simulate_ia_batch(sc, N_WINNERS, np.random.default_rng(31))
        ref = ia_batch_matrix(sc, N_WINNERS, np.random.default_rng(32))
        assert _se_apart(new.t_br_ms, ref.t_br_ms) <= 4.0
        assert _se_apart(new.t_total_ms, ref.t_total_ms) <= 4.0
        assert _se_apart(new.misdetected, ref.misdetected) <= 4.0

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
        ],
        ids=["s1", "sigma0", "sigma0_floor0", "sigma0_floor0_hybrid"],
    )
    def test_deterministic_winner_is_exact(self, kw):
        # distances and true pairs come first in both streams, so the
        # runs line up one to one when the winner is not random
        sc = make_scenario(n_ss=8, **kw)
        new = simulate_ia_batch(sc, 2000, np.random.default_rng(41))
        ref = ia_batch_matrix(sc, 2000, np.random.default_rng(41))
        assert np.array_equal(new.chosen_g, ref.chosen_g)
        assert np.array_equal(new.chosen_u, ref.chosen_u)
        assert np.array_equal(new.misdetected, ref.misdetected)

    def test_extreme_draws_stay_finite(self):
        class EdgeRng:
            """Exponential draws at 0 and far in the tail, zero shadowing."""

            def normal(self, loc, scale, size):
                return np.zeros(size)

            def standard_exponential(self, size):
                return np.resize([0.0, 1e-300, 50.0, 1e300], size)

            def integers(self, low, high, size):
                return np.zeros(size, dtype=np.int64)

        sc = make_scenario(
            m_gnb=2, m_ue=1, channel=ChannelParams(shadowing_sigma_db=8.7)
        )
        plan = sweep_plan(sc)
        best, top = draw_sweep_winner(
            plan, sc.channel, np.zeros(4), np.zeros(4, dtype=np.int64), EdgeRng()
        )
        assert np.isfinite(top).all()
        assert set(best.tolist()) <= {0, 1}


class TestNormalInvCdf:
    def test_matches_statistics_normal_dist(self):
        rng = np.random.default_rng(3)
        p = np.concatenate(
            [
                rng.random(2000),
                10.0 ** -rng.uniform(0.0, 300.0, 2000),
                1.0 - 10.0 ** -rng.uniform(0.0, 15.0, 2000),
                [0.075, 0.5, 0.925, 1e-300, 1.0 - 1e-15],
            ]
        )
        p = p[(p > 0.0) & (p < 1.0)]
        ref = np.array([statistics.NormalDist().inv_cdf(float(v)) for v in p])
        np.testing.assert_allclose(normal_inv_cdf(p), ref, rtol=0.0, atol=1e-12)

    def test_finite_at_the_ends_of_the_interval(self):
        ends = np.array([np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0)])
        x = normal_inv_cdf(ends)
        assert np.isfinite(x).all()
        assert x[0] < -37.0 and x[1] > 8.0


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


class TestTrackingBatchAgainstLoop:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        case=tracking_cases(),
        n_runs=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
        horizon_ms=st.sampled_from([0.05, 5.0, 500.0]),
    )
    def test_bit_for_bit(self, case, n_runs, seed, horizon_ms):
        kw, csi = case
        try:
            sc = make_scenario(csi=CsiRsConfig(**csi), **kw)
        except ConfigurationError:
            assume(False)
        got_w, got_c = simulate_tracking_batch(
            sc, n_runs, np.random.default_rng(seed), horizon_ms=horizon_ms
        )
        ref_w, ref_c = tracking_batch_loop(
            sc, n_runs, np.random.default_rng(seed), horizon_ms=horizon_ms
        )
        assert got_w.tobytes() == ref_w.tobytes()
        assert np.array_equal(got_c, ref_c)
