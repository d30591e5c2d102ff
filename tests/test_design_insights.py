"""The paper's design insights, checked as orderings of the closed forms
over the whole paper grid: every pair of grid points one step apart on
one axis."""
from __future__ import annotations

import functools
import itertools

from conftest import make_scenario
from nrbeamsim.codebook import power_consumption_w, sweep_length
from nrbeamsim.errors import ConfigurationError, declared_domains
from nrbeamsim.evaluation import omega_ia_for
from nrbeamsim.frame import Numerology, SsBurstConfig
from nrbeamsim.procedures import oracle_expected_ia

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
