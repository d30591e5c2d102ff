"""The paper's design insights on the initial-access delay, checked as
orderings of the closed form `oracle_expected_ia` over the whole paper
grid: every pair of grid points one step apart on one axis."""
from __future__ import annotations

import itertools

from conftest import make_scenario
from nrbeamsim.codebook import sweep_length
from nrbeamsim.errors import ConfigurationError, declared_domains
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


def test_t_ia_orderings_hold_over_the_paper_grid():
    built, refused = {}, 0
    for values in itertools.product(*GRID.values()):
        try:
            built[values] = make_scenario(**dict(zip(GRID, values)))
        except ConfigurationError:
            refused += 1
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
    failures = [
        (name, lo, hi)
        for name, pairs in orderings.items()
        for lo, hi in pairs
        if not t_ia[lo] <= t_ia[hi]
    ]
    assert failures == []
