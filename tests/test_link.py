from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrbeamsim.codebook import Architecture, ArrayConfig, beamforming_gain_db
from nrbeamsim.errors import ConfigurationError, DomainError
from nrbeamsim.link import (
    ChannelParams,
    log_normal_cdf,
    mean_snr_db,
    misdetection_probability,
    noise_power_dbm,
    path_loss_db,
)
from reference import drop_mean_snr_db, misdetection_drops


def arr(m, arch="analog", k=None):
    return ArrayConfig(elements=m, arch=Architecture(arch), k_bf=k)


class TestPathLoss:
    def test_frozen_value_at_50m(self):
        # 72 + 29.2 * log10(50), no shadowing
        assert path_loss_db(50.0, ChannelParams()) == pytest.approx(
            121.60992412661174, abs=1e-9
        )

    def test_one_meter_is_intercept(self):
        assert path_loss_db(1.0, ChannelParams()) == 72.0

    def test_monotone_in_distance(self):
        cp = ChannelParams()
        pl = [path_loss_db(d, cp) for d in (1.0, 10.0, 50.0, 150.0)]
        assert pl == sorted(pl)
        assert pl[0] < pl[-1]

    def test_shadowing_is_added_loss(self):
        cp = ChannelParams()
        assert path_loss_db(50.0, cp, shadowing_db=6.0) == pytest.approx(
            path_loss_db(50.0, cp) + 6.0
        )

    def test_rejects_nonpositive_distance(self):
        for d_m in (0.0, -3.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="positive, finite distance"):
                path_loss_db(d_m, ChannelParams())
        for shadowing_db in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite shadowing"):
                path_loss_db(50.0, ChannelParams(), shadowing_db=shadowing_db)


class TestNoiseAndSnr:
    def test_noise_power_400mhz(self):
        # -174 + 10 log10(4e8) + 5
        assert noise_power_dbm(ChannelParams()) == pytest.approx(
            -82.97940008672037, abs=1e-9
        )

    def test_snr_aligned_closed_form(self):
        cp = ChannelParams()
        got = mean_snr_db(cp, 10 * math.log10(64) + 10 * math.log10(4), 50.0)
        expect = (
            30.0
            + 10 * math.log10(64)
            + 10 * math.log10(4)
            - 121.60992412661174
            - (-82.97940008672037)
        )
        assert got == pytest.approx(expect, abs=1e-9)

    def test_drop_sampler_budget_matches_pointwise(self):
        # the oracle's array link budget against the package's scalar one
        cp = ChannelParams()
        d = np.array([0.1, 1.0, 10.0, 50.0, 150.0, 4999.0])
        got = drop_mean_snr_db(cp, 27.0, d).tolist()
        assert got == pytest.approx([mean_snr_db(cp, 27.0, x) for x in d], abs=1e-9)


@pytest.mark.parametrize(
    "x", [-1e4, -300.0, -40.0, -36.7, -30.0, -5.0, -1e-3, 0.0, 1e-3, 3.0, 8.0, 20.0]
)
def test_log_normal_cdf_matches_scipy(x):
    # below x = -36.8 the erfc underflows and the asymptotic series takes over
    special = pytest.importorskip("scipy.special")
    assert log_normal_cdf(x) == pytest.approx(float(special.log_ndtr(x)), rel=1e-13)


class TestMisdetection:
    def test_more_gain_fewer_misses(self):
        cp = ChannelParams()
        big = misdetection_probability(arr(64), arr(16), cp)
        small = misdetection_probability(arr(4), arr(4), cp)
        assert big < small

    def test_probability_bounds(self):
        p = misdetection_probability(arr(16), arr(4), ChannelParams())
        assert 0.0 < p < 1.0

    def test_no_shadowing_high_gain_always_detects(self):
        cp = ChannelParams(shadowing_sigma_db=0.0)
        assert misdetection_probability(arr(64), arr(16), cp) == 0.0

    def test_no_shadowing_is_the_uncovered_ring(self):
        # mean SNR meets the threshold at r, and 1 - (r / R)^2 of the disk lies beyond
        cp = ChannelParams(shadowing_sigma_db=0.0)
        gain = beamforming_gain_db(arr(4)) + beamforming_gain_db(arr(1))
        over_1m = mean_snr_db(cp, gain, 1.0) - cp.detection_threshold_db
        r = 10.0 ** (over_1m / (10.0 * cp.pl_exponent))
        assert mean_snr_db(cp, gain, r) == pytest.approx(cp.detection_threshold_db)
        got = misdetection_probability(arr(4), arr(1), cp)
        assert got == pytest.approx(1.0 - (r / cp.cell_radius_m) ** 2, rel=1e-12)

    @pytest.mark.parametrize(
        "threshold_db, expect", [(-1e5, 0.0), (-4000.0, 0.0), (4000.0, 1.0), (1e5, 1.0)]
    )
    @pytest.mark.parametrize("sigma", [0.01, 8.7, 60.0])
    def test_far_tails(self, threshold_db, expect, sigma):
        # the edge SNR far above the threshold is where exp * erfc overflows
        cp = ChannelParams(shadowing_sigma_db=sigma, detection_threshold_db=threshold_db)
        with np.errstate(all="raise"):
            got = misdetection_probability(arr(64), arr(16), cp)
        assert got == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("pl_exponent", [1e-300, 2.92, 1e300])
    @pytest.mark.parametrize("sigma", [1e-300, 1e300])
    def test_extreme_parameters_stay_probabilities(self, sigma, pl_exponent):
        cp = ChannelParams(shadowing_sigma_db=sigma, pl_exponent=pl_exponent)
        with np.errstate(all="raise"):
            got = misdetection_probability(arr(16), arr(4), cp)
        if sigma < 1.0:
            unshadowed = dataclasses.replace(cp, shadowing_sigma_db=0.0)
            assert got == misdetection_probability(arr(16), arr(4), unshadowed)
        assert 0.0 <= got <= 1.0

    def test_overflowing_path_loss_is_a_domain_error(self):
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="pl_exponent"):
            misdetection_probability(arr(4), arr(4), ChannelParams(pl_exponent=1e308))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m_gnb=st.sampled_from([1, 4, 16, 64, 256]),
        m_ue=st.sampled_from([1, 4, 16]),
        sigma=st.one_of(st.just(0.0), st.floats(0.1, 30.0)),
        threshold_db=st.floats(-40.0, 40.0),
        pl_exponent=st.floats(1.5, 4.5),
        radius=st.floats(20.0, 1000.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_drop_sampler(
        self, m_gnb, m_ue, sigma, threshold_db, pl_exponent, radius, seed
    ):
        cp = ChannelParams(
            shadowing_sigma_db=sigma,
            detection_threshold_db=threshold_db,
            pl_exponent=pl_exponent,
            cell_radius_m=radius,
        )
        n = 200_000
        got = misdetection_probability(arr(m_gnb), arr(m_ue), cp)
        drops = misdetection_drops(arr(m_gnb), arr(m_ue), cp, n, np.random.default_rng(seed))
        # the sampler puts the UEs within 0.1 m at 0.1 m
        tol = 5.0 * math.sqrt(got * (1.0 - got) / n) + (0.1 / radius) ** 2 + 1e-6
        assert abs(drops - got) <= tol


class TestChannelValidation:
    def test_sigma_nonnegative(self):
        with pytest.raises(ConfigurationError):
            ChannelParams(shadowing_sigma_db=-1.0)

    def test_radius_positive(self):
        with pytest.raises(ConfigurationError):
            ChannelParams(cell_radius_m=0.0)

    def test_bandwidth_positive(self):
        with pytest.raises(ConfigurationError):
            ChannelParams(bandwidth_hz=-4e8)

    @pytest.mark.parametrize("field", ["shadowing_sigma_db", "tx_power_dbm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=rf"channel\.{field}=.*finite"):
            ChannelParams(**{field: value})
