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
    "dense_grid": "f9f0454fcc651ef4ae485c192b3c06347acbd3bd87de9de72801b950ae1bc615",
    "wide_arrays": "a0a26992be6428acffcdb3358ee1cdaf14cf9a6d92675fa1bda8712ff1e0a285",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_sweep_reports_are_byte_identical(workload, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sweep", str(WORKLOADS / f"{workload}.yaml"), "--seed", "42", "--out", str(out)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    digest = hashlib.sha256((out / "reports.json").read_bytes()).hexdigest()
    assert digest == DIGESTS[workload]
