from __future__ import annotations

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from nrbeamsim.codebook import Architecture, ArrayConfig
from nrbeamsim.errors import ConfigurationError
from nrbeamsim.frame import (
    CSI_PERIODS_SLOTS,
    CSI_SYMBOL_COUNTS,
    NUMEROLOGIES,
    SS_PERIODS_MS,
    SYMBOLS_PER_SLOT,
    CsiRsConfig,
    Numerology,
    SsBurstConfig,
    carrier_resource_blocks,
)
from nrbeamsim.link import ChannelParams
from nrbeamsim.procedures import DeploymentMode, Scenario

# the words of the refusal of a geometry whose every CSI-RS occasion meets
# the SS blocks
STARVED = "every CSI-RS occasion on the SS blocks"


def make_scenario(
    m_gnb: int = 64,
    m_ue: int = 1,
    arch_gnb: str = "analog",
    arch_ue: str = "analog",
    k_bf_gnb: int | None = None,
    k_bf_ue: int | None = None,
    n: int = 3,
    n_ss: int = 64,
    t_ss_ms: float = 20.0,
    mode: str = "SA",
    lte_latency_ms: float | None = None,
    **kwargs,
) -> Scenario:
    """Terse scenario builder shared across test modules."""
    return Scenario(
        gnb=ArrayConfig(elements=m_gnb, arch=Architecture(arch_gnb), k_bf=k_bf_gnb),
        ue=ArrayConfig(elements=m_ue, arch=Architecture(arch_ue), k_bf=k_bf_ue),
        numerology=Numerology(n),
        ss=SsBurstConfig(n_ss=n_ss, t_ss_ms=t_ss_ms),
        csi=kwargs.pop("csi", CsiRsConfig()),
        mode=DeploymentMode(mode),
        lte_latency_ms=lte_latency_ms,
        **kwargs,
    )


@st.composite
def scenario_kwargs(draw):
    """``make_scenario`` arguments of random SA scenarios with small arrays,
    each valid except that every CSI-RS occasion may meet the SS blocks."""

    def array(max_elements):
        arch = draw(st.sampled_from(["analog", "hybrid", "digital"]))
        m = draw(st.integers(1, max_elements))
        k = draw(st.integers(1, m)) if arch == "hybrid" else None
        return arch, m, k

    arch_g, m_g, k_g = array(12)
    arch_u, m_u, k_u = array(3)
    n = draw(st.sampled_from(NUMEROLOGIES))
    t_csi = draw(st.sampled_from(CSI_PERIODS_SLOTS))
    delta_f = draw(st.sampled_from([0, 10, 19, 20, 60]))
    bandwidth = draw(st.integers(50, 80))
    carrier_rb = carrier_resource_blocks(Numerology(n), ChannelParams().bandwidth_hz)
    assume(delta_f + bandwidth <= carrier_rb)
    return dict(
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


@st.composite
def scenarios(draw):
    """Random valid SA scenarios with small arrays: the scenarios of
    `scenario_kwargs`, without the geometries whose every CSI-RS occasion
    meets the SS blocks, which ``Scenario`` refuses."""
    try:
        return make_scenario(**draw(scenario_kwargs()))
    except ConfigurationError as exc:
        assume(STARVED not in str(exc))
        raise


@pytest.fixture
def scenario_factory():
    return make_scenario
