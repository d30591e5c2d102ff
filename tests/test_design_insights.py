"""The paper's design insights, checked as orderings of the closed forms
over the whole paper grid: every pair of grid points one step apart on
one axis, and every grid point against its NSA twin at each LTE
latency."""
from __future__ import annotations

import dataclasses
import functools
import itertools

from conftest import make_scenario
from nrbeamsim.codebook import power_consumption_w, sweep_factor, sweep_length
from nrbeamsim.errors import ConfigurationError, declared_domains
from nrbeamsim.evaluation import omega_ia_for
from nrbeamsim.frame import Numerology, SsBurstConfig
from nrbeamsim.procedures import (
    LTE_LATENCY_VALUES_MS,
    DeploymentMode,
    expected_beam_report_delay_ms,
    omega_br,
    oracle_expected_ia,
)

# the paper grid, each axis in ascending order; T_CSI is the default 5 slots
GRID = {
    "m_gnb": (4, 16, 64),
    "arch_gnb": ("analog", "digital"),
    "m_ue": (1, 4, 16),
    "arch_ue": ("analog", "digital"),
    "n": dict(declared_domains(Numerology))["n"].among,
    "n_ss": (8, 16, 32, 64),
    "t_ss_ms": dict(declared_domains(SsBurstConfig))["t_ss_ms"].among,
}


def _steps(built: dict, axis: str):
    """Each pair of built grid points whose ``axis`` values are
    neighbours, the lower first, that agree on every other axis."""
    i = list(GRID).index(axis)
    for lower, upper in itertools.pairwise(GRID[axis]):
        for point in built:
            if point[i] == lower:
                other = point[:i] + (upper,) + point[i + 1 :]
                if other in built:
                    yield point, other


@functools.cache
def _grid() -> tuple[dict, int]:
    """The scenario of each grid point that builds, and how many refuse."""
    built, refused = {}, 0
    for values in itertools.product(*GRID.values()):
        try:
            built[values] = make_scenario(**dict(zip(GRID, values)))
        except ConfigurationError:
            refused += 1
    return built, refused


@functools.cache
def _nsa_twins() -> dict:
    """The NSA twin of each built grid point at each LTE latency, by point
    and latency."""
    built, _ = _grid()
    return {
        (point, lte): dataclasses.replace(sc, mode=DeploymentMode.NSA, lte_latency_ms=lte)
        for point, sc in built.items()
        for lte in LTE_LATENCY_VALUES_MS
    }


def _failures(orderings: dict, value: dict) -> list:
    """Each pair ``(lo, hi)`` of ``orderings`` whose ``value`` is not
    ``value[lo] <= value[hi]``, with its ordering's name."""
    return [
        (name, lo, hi)
        for name, pairs in orderings.items()
        for lo, hi in pairs
        if not value[lo] <= value[hi]
    ]


def test_t_ia_orderings_hold_over_the_paper_grid():
    built, refused = _grid()
    # the geometries whose every CSI-RS occasion meets the SS blocks
    assert refused == 9 and len(built) == 2583

    t_ia = {point: oracle_expected_ia(sc) for point, sc in built.items()}
    n_ss = list(GRID).index("n_ss")
    orderings = {
        # a longer burst period only lengthens the waits
        "non-decreasing in T_SS": list(_steps(built, "t_ss_ms")),
        # more blocks per burst shorten a sweep that spans several bursts
        "non-increasing in n_ss while S > n_ss": [
            (b, a)
            for a, b in _steps(built, "n_ss")
            if sweep_length(built[a].gnb, built[a].ue) > a[n_ss]
        ],
        # a digital end sweeps in one step what an analog end sweeps in M
        "no larger with a digital end": [
            (b, a) for axis in ("arch_gnb", "arch_ue") for a, b in _steps(built, axis)
        ],
    }
    assert {name: len(pairs) for name, pairs in orderings.items()} == {
        "non-decreasing in T_SS": 2151,
        "non-increasing in n_ss while S > n_ss": 621,
        "no larger with a digital end": 2577,
    }
    assert _failures(orderings, t_ia) == []


def test_overhead_and_power_orderings_hold_over_the_paper_grid():
    built, _ = _grid()
    omega_ia = {point: omega_ia_for(sc) for point, sc in built.items()}
    omega = {
        # more blocks per burst take more of the grid
        "non-decreasing in n_ss": list(_steps(built, "n_ss")),
        # a longer burst period spreads the same blocks thinner
        "non-increasing in T_SS": [(b, a) for a, b in _steps(built, "t_ss_ms")],
    }
    # a digital gNB runs one RF chain per element where an analog one runs
    # a single chain with a phase shifter per element; the gNB axis has no
    # M = 1, where digital (16.0896 W) would draw less than analog (16.1092 W)
    p_c_w = {point: power_consumption_w(sc.gnb, sc.power) for point, sc in built.items()}
    power = {"higher with a digital gNB": list(_steps(built, "arch_gnb"))}
    counts = {name: len(pairs) for name, pairs in {**omega, **power}.items()}
    assert counts == {
        "non-decreasing in n_ss": 1935,
        "non-increasing in T_SS": 2151,
        "higher with a digital gNB": 1287,
    }
    assert _failures(omega, omega_ia) == []
    assert [(a, b) for a, b in power["higher with a digital gNB"] if not p_c_w[a] < p_c_w[b]] == []


def test_nsa_recovers_faster_while_the_lte_latency_is_below_half_t_ss():
    # NSA recovery is the LTE leg's latency; SA recovery is a fresh initial
    # access, whose mean waits T_SS/2 for the next burst before it sweeps
    built, _ = _grid()
    twins = _nsa_twins()
    t_ss = list(GRID).index("t_ss_ms")
    pairs = [(point, lte) for point, lte in twins if lte < point[t_ss] / 2]
    slower = [
        (point, lte)
        for point, lte in pairs
        if not twins[point, lte].lte_latency_ms < oracle_expected_ia(built[point])
    ]
    assert len(pairs) == 6471
    assert slower == []


def test_nsa_t_br_is_the_lte_latency_at_every_m_gnb_and_n_ss():
    twins = _nsa_twins()
    assert len(twins) == 4 * 2583
    assert [key for key, sc in twins.items() if expected_beam_report_delay_ms(sc) != key[1]] == []


def test_sa_t_br_is_non_decreasing_in_m_gnb():
    # an SA report waits for the RACH opportunity of the chosen gNB step,
    # and a larger gNB has more steps to cycle through
    built, _ = _grid()
    t_br = {point: expected_beam_report_delay_ms(sc) for point, sc in built.items()}
    orderings = {"non-decreasing in M_gNB": list(_steps(built, "m_gnb"))}
    assert len(orderings["non-decreasing in M_gNB"]) == 1720
    assert _failures(orderings, t_br) == []


def test_nsa_omega_br_is_at_most_sa_and_equal_only_for_a_one_step_gnb():
    # an SA gNB reserves one RACH opportunity per steering step, NSA one
    built, _ = _grid()
    wrong, equal = [], 0
    for (point, lte), nsa in _nsa_twins().items():
        sa_omega, nsa_omega = omega_br(built[point]), omega_br(nsa)
        one_step = sweep_factor(built[point].gnb) == 1
        equal += one_step
        if not (nsa_omega <= sa_omega and (nsa_omega == sa_omega) == one_step):
            wrong.append((point, lte))
    assert equal == 4 * 1296
    assert wrong == []
