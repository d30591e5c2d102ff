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
    "dense_grid": "1a5d367801413185d366c18ad6245b62a35b47925a2649a1163c15d597ad9ab9",
    "wide_arrays": "b58e4804395e8e73114406d1487cbd75c95e140424cb141377f436aa6aa0cf59",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_sweep_reports_are_byte_identical(workload, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sweep", str(WORKLOADS / f"{workload}.yaml"), "--seed", "42", "--out", str(out)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    digest = hashlib.sha256((out / "reports.json").read_bytes()).hexdigest()
    assert digest == DIGESTS[workload]
