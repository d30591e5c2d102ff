"""Golden digests: the benchmark sweeps' ``reports.json`` and ``reports.csv``.

A refactor that keeps the model must keep these bytes at every seed. A
change that means to alter results updates the digests here and records
the new values, and why, in CHANGES.md.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from nrbeamsim.cli import EXIT_OK, main

WORKLOADS = Path(__file__).resolve().parents[1] / "nrbench" / "workloads"

# (workload, seed) -> sha256 of reports.json and of reports.csv
DIGESTS = {
    ("dense_grid", 42): (
        "1a5d367801413185d366c18ad6245b62a35b47925a2649a1163c15d597ad9ab9",
        "9338e3c9595f90ed10161e40b333e8199cf5c884094cc44432b0802cf7875a16",
    ),
    ("dense_grid", 7): (
        "5b7c6c86a4a9d98dd28ea2137aabc11f9fb33bddec7f4f0e59d83b1979504294",
        "d0085a2be28a7b74a55bb40958762e26976bd7a85ee70b01317c43ac4651cccb",
    ),
    ("wide_arrays", 42): (
        "b58e4804395e8e73114406d1487cbd75c95e140424cb141377f436aa6aa0cf59",
        "75bff9b0e4058a5639b7dcf7bad77764daf067dc22d904a1a56e0f977d08b889",
    ),
    ("wide_arrays", 7): (
        "fe06521338db70f13d09288612fc9886c946a218b6c87588ee23fce4321defd1",
        "69e3af516032303064e0afc94d483f48f8ddd97ada0bb536f1b01414405772fb",
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "workload, seed", sorted(DIGESTS), ids=[f"{w}-{s}" for w, s in sorted(DIGESTS)]
)
def test_sweep_reports_are_byte_identical(workload, seed, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [
        "sweep", str(WORKLOADS / f"{workload}.yaml"), "--seed", str(seed), "--out", str(out)
    ]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    json_digest, csv_digest = DIGESTS[workload, seed]
    assert _sha256(out / "reports.json") == json_digest
    assert _sha256(out / "reports.csv") == csv_digest
