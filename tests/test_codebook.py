from __future__ import annotations

import math
import re

import pytest

from conftest import make_scenario
from nrbeamsim.codebook import (
    Architecture,
    ArrayConfig,
    PowerModel,
    beamforming_gain_db,
    directions_per_step,
    power_consumption_w,
    sweep_factor,
    sweep_length,
)
from nrbeamsim.errors import ConfigurationError
from nrbeamsim.procedures import sweep_plan
from reference import covering_step, step_groups


def arr(m, arch, k=None):
    return ArrayConfig(elements=m, arch=Architecture(arch), k_bf=k)


class TestArrayConfig:
    def test_hybrid_needs_k_bf(self):
        arr(16, "hybrid", 4)
        with pytest.raises(ConfigurationError, match="k_bf"):
            arr(16, "hybrid")
        with pytest.raises(ConfigurationError, match="k_bf"):
            arr(16, "hybrid", 32)

    def test_non_hybrid_rejects_k_bf(self):
        with pytest.raises(ConfigurationError, match="k_bf"):
            arr(16, "analog", 4)

    @pytest.mark.parametrize("bad", [0, -4, 3.0, True])
    def test_elements_positive_int(self, bad):
        with pytest.raises(ConfigurationError):
            arr(bad, "analog")

    def test_arch_takes_a_member_or_its_value(self):
        # a value was once stored as given: "hybrid" failed while the
        # k_bf check formatted its message, and "analog" in sweep_length
        assert ArrayConfig(64, arch="analog") == ArrayConfig(64)
        assert sweep_length(ArrayConfig(64, arch="analog"), ArrayConfig(1)) == 64
        assert ArrayConfig(64, arch="hybrid", k_bf=4) == arr(64, "hybrid", 4)
        with pytest.raises(ConfigurationError, match="only meaningful for hybrid"):
            ArrayConfig(64, arch="digital", k_bf=4)
        for value in ("quantum", "Analog", 0, None):
            message = re.escape(f"arch={value!r}: must be one of ['analog', 'digital', 'hybrid']")
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                ArrayConfig(64, arch=value)

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_k_bf_must_be_an_integer(self, bad):
        # unchecked, 2.5 failed in plan building with a bare TypeError and
        # True was taken as 1
        with pytest.raises(ConfigurationError, match=rf"^k_bf={bad!r}: must be an integer$"):
            arr(4, "hybrid", bad)


class TestSweepGeometry:
    @pytest.mark.parametrize(
        "gnb,ue,expect",
        [
            (("analog", 64, None), ("analog", 1, None), 64),
            (("digital", 64, None), ("analog", 16, None), 16),
            (("analog", 4, None), ("analog", 4, None), 16),
            (("hybrid", 64, 8), ("analog", 4, None), 32),
            (("digital", 16, None), ("digital", 16, None), 1),
        ],
    )
    def test_sweep_length(self, gnb, ue, expect):
        g = arr(gnb[1], gnb[0], gnb[2])
        u = arr(ue[1], ue[0], ue[2])
        assert sweep_length(g, u) == expect

    def test_sweep_factor_per_architecture(self):
        assert sweep_factor(arr(64, "digital")) == 1
        assert sweep_factor(arr(64, "analog")) == 64
        assert sweep_factor(arr(64, "hybrid", 8)) == 8
        assert sweep_factor(arr(60, "hybrid", 8)) == 8  # ceil(60/8)

    def test_default_order_is_ue_outer_gnb_inner(self):
        plan = sweep_plan(make_scenario(m_gnb=2, m_ue=2, n_ss=8))
        assert [k % plan.f_g for k in range(plan.s)] == [0, 1, 0, 1]

    def test_analog_states_cover_each_direction_once(self):
        a = arr(4, "analog")
        assert directions_per_step(a) == 1
        assert [d // directions_per_step(a) for d in range(4)] == [0, 1, 2, 3]

    def test_hybrid_states_group_directions(self):
        a = arr(6, "hybrid", 4)
        assert step_groups(a) == [range(0, 4), range(4, 6)]
        assert [d // directions_per_step(a) for d in range(6)] == [0, 0, 0, 0, 1, 1]

    def test_digital_state_is_wildcard(self):
        a = arr(8, "digital")
        assert sweep_factor(a) == 1
        assert {d // directions_per_step(a) for d in range(8)} == {0}

    @pytest.mark.parametrize("m", range(1, 41))
    def test_step_of_direction_matches_the_step_groups(self, m):
        arrays = [arr(m, "analog"), arr(m, "digital")]
        arrays += [arr(m, "hybrid", k) for k in range(1, m + 1)]
        for a in arrays:
            w = directions_per_step(a)
            assert len(step_groups(a)) == sweep_factor(a)
            assert [d // w for d in range(m)] == [covering_step(a, d) for d in range(m)]


class TestGainAndPower:
    def test_array_gain_values(self):
        assert beamforming_gain_db(arr(64, "analog")) == pytest.approx(18.0617997, abs=1e-6)
        assert beamforming_gain_db(arr(1, "analog")) == 0.0

    def test_digital_power_scales_with_elements(self):
        pm = PowerModel()
        assert power_consumption_w(arr(4, "digital"), pm) == pytest.approx(64.3584)
        assert power_consumption_w(arr(16, "digital"), pm) == pytest.approx(257.4336)
        assert power_consumption_w(arr(64, "digital"), pm) == pytest.approx(1029.7344)

    def test_analog_power_affine_in_elements(self):
        pm = PowerModel()
        assert power_consumption_w(arr(4, "analog"), pm) == pytest.approx(16.2847)
        assert power_consumption_w(arr(16, "analog"), pm) == pytest.approx(16.9867)
        assert power_consumption_w(arr(64, "analog"), pm) == pytest.approx(19.7947)

    def test_hybrid_power_between_extremes(self):
        pm = PowerModel()
        hybrid = power_consumption_w(arr(64, "hybrid", 8), pm)
        assert power_consumption_w(arr(64, "analog"), pm) < hybrid
        assert hybrid < power_consumption_w(arr(64, "digital"), pm)
        # k_bf chains plus one shifter per element
        assert hybrid == pytest.approx(8 * 16.0896 + 64 * 0.0585)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("c_chain_w", -1.0),
            ("c_ps_w", -0.1),
            ("p0_w", math.inf),
            ("c_chain_w", math.nan),
            ("c_ps_w", -math.inf),
            # unchecked, these failed with a bare TypeError or passed as 1
            ("p0_w", None),
            ("c_chain_w", "16"),
            ("c_ps_w", True),
        ],
    )
    def test_power_model_validation(self, name, value):
        with pytest.raises(ConfigurationError, match=rf"power\.{name}="):
            PowerModel(**{name: value})
