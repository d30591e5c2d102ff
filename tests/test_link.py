from __future__ import annotations

import math

import pytest

from nrbeamsim.codebook import Architecture, ArrayConfig, SteeringState
from nrbeamsim.errors import ConfigurationError, DomainError
from nrbeamsim.link import (
    ChannelParams,
    measure,
    misdetection_probability,
    noise_power_dbm,
    pair_gain_db,
    path_loss_db,
    snr_db,
)


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
        with pytest.raises(DomainError):
            path_loss_db(0.0, ChannelParams())
        with pytest.raises(DomainError):
            path_loss_db(-3.0, ChannelParams())


class TestNoiseAndSnr:
    def test_noise_power_400mhz(self):
        # -174 + 10 log10(4e8) + 5
        assert noise_power_dbm(ChannelParams()) == pytest.approx(
            -82.97940008672037, abs=1e-9
        )

    def test_snr_aligned_closed_form(self):
        cp = ChannelParams()
        g = pair_gain_db(arr(64), arr(4), aligned=True, cp=cp)
        got = snr_db(g, 50.0, cp)
        expect = (
            30.0
            + 10 * math.log10(64)
            + 10 * math.log10(4)
            - 121.60992412661174
            - (-82.97940008672037)
        )
        assert got == pytest.approx(expect, abs=1e-9)

    def test_misaligned_pair_sits_on_floor(self):
        cp = ChannelParams()
        hit = pair_gain_db(arr(64), arr(4), aligned=True, cp=cp)
        miss = pair_gain_db(arr(64), arr(4), aligned=False, cp=cp)
        assert hit - miss == pytest.approx(-cp.side_lobe_floor_db)

    def test_hybrid_sweep_penalty_only_while_sweeping(self):
        cp = ChannelParams()
        gnb, ue = arr(64, "hybrid", 8), arr(1)
        swept = pair_gain_db(gnb, ue, aligned=True, cp=cp, sweeping=True)
        settled = pair_gain_db(gnb, ue, aligned=True, cp=cp, sweeping=False)
        assert settled - swept == pytest.approx(10 * math.log10(8))

    def test_analog_sweep_has_no_penalty(self):
        cp = ChannelParams()
        gnb, ue = arr(64), arr(1)
        assert pair_gain_db(gnb, ue, True, cp, sweeping=True) == pair_gain_db(
            gnb, ue, True, cp, sweeping=False
        )

    def test_pair_gain_composition(self):
        cp = ChannelParams()
        g = pair_gain_db(arr(16), arr(4), aligned=True, cp=cp)
        assert g == pytest.approx(10 * math.log10(16) + 10 * math.log10(4))


class TestMeasure:
    def test_report_fields_consistent(self):
        cp = ChannelParams(shadowing_sigma_db=0.0)
        gnb, ue = arr(16), arr(4)
        state = (
            SteeringState(beam=3, covers=(3,)),
            SteeringState(beam=1, covers=(1,)),
        )
        m = measure(state, (3, 1), gnb, ue, 50.0, cp)
        assert m.rssi_dbm - m.rsrp_dbm == pytest.approx(cp.rssi_offset_db)
        assert m.rsrq_db == pytest.approx(-cp.rssi_offset_db)
        assert m.sinr_db == pytest.approx(m.rsrp_dbm - noise_power_dbm(cp))

    def test_alignment_raises_rsrp(self):
        cp = ChannelParams(shadowing_sigma_db=0.0)
        gnb, ue = arr(16), arr(4)
        on = measure(
            (SteeringState(2, (2,)), SteeringState(0, (0,))), (2, 0), gnb, ue, 50.0, cp
        )
        off = measure(
            (SteeringState(2, (2,)), SteeringState(0, (0,))), (5, 0), gnb, ue, 50.0, cp
        )
        assert on.rsrp_dbm - off.rsrp_dbm == pytest.approx(-cp.side_lobe_floor_db)

    def test_shadowing_reduces_rsrp(self):
        cp = ChannelParams(shadowing_sigma_db=0.0)
        gnb, ue = arr(16), arr(4)
        state = (SteeringState(0, (0,)), SteeringState(0, (0,)))
        base = measure(state, (0, 0), gnb, ue, 50.0, cp)
        shifted = measure(state, (0, 0), gnb, ue, 50.0, cp, shadowing_db=4.0)
        assert base.rsrp_dbm - shifted.rsrp_dbm == pytest.approx(4.0)


class TestMisdetection:
    def test_deterministic_given_seed(self):
        cp = ChannelParams()
        a = misdetection_probability(arr(64), arr(4), cp, n_drops=2000, seed=7)
        b = misdetection_probability(arr(64), arr(4), cp, n_drops=2000, seed=7)
        assert a == b

    def test_seed_changes_estimate(self):
        cp = ChannelParams()
        a = misdetection_probability(arr(4), arr(4), cp, n_drops=500, seed=1)
        b = misdetection_probability(arr(4), arr(4), cp, n_drops=500, seed=2)
        assert a != b

    def test_more_gain_fewer_misses(self):
        cp = ChannelParams()
        big = misdetection_probability(arr(64), arr(16), cp, n_drops=4000, seed=11)
        small = misdetection_probability(arr(4), arr(4), cp, n_drops=4000, seed=11)
        assert big < small

    def test_probability_bounds(self):
        cp = ChannelParams()
        p = misdetection_probability(arr(16), arr(4), cp, n_drops=1000, seed=3)
        assert 0.0 <= p <= 1.0

    def test_no_shadowing_high_gain_always_detects(self):
        cp = ChannelParams(shadowing_sigma_db=0.0)
        p = misdetection_probability(arr(64), arr(16), cp, n_drops=1000, seed=5)
        assert p == 0.0

    def test_rejects_nonpositive_drops(self):
        with pytest.raises(DomainError):
            misdetection_probability(arr(4), arr(4), ChannelParams(), n_drops=0, seed=1)


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
