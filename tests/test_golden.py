"""Golden digests: the benchmark sweeps' ``reports.json`` at seed 42.

A refactor that keeps the model must keep these bytes. A change that
means to alter results updates the digests here and records the new
values, and why, in CHANGES.md.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from nrbeamsim.cli import EXIT_OK, main

WORKLOADS = Path(__file__).resolve().parents[1] / "nrbench" / "workloads"

DIGESTS = {
    "dense_grid": "0d1a53e66a9ae2ce4dcba634f2c0ebc363284a0bec7e4c0663d34fe77ef4493c",
    "wide_arrays": "8f9b77327f2364bd3afccf2c6421f2df998189453eb687f8091a433abc4c0feb",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_sweep_reports_are_byte_identical(workload, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sweep", str(WORKLOADS / f"{workload}.yaml"), "--seed", "42", "--out", str(out)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    digest = hashlib.sha256((out / "reports.json").read_bytes()).hexdigest()
    assert digest == DIGESTS[workload]
