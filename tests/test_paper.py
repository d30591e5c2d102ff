"""The paper's comparison as committed inputs: each ``paper/*.yaml`` pair,
one SA and one NSA file, sweeps and reports into the ``beamsim report``
table it is named after, with no empty cell."""
from __future__ import annotations

import csv
import io
from pathlib import Path

import pytest
import yaml

from nrbeamsim.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
PAPER = ROOT / "paper"
TABLES = ("t_br_by_gnb", "power_overhead", "t_rlf_table")


def test_one_sa_and_one_nsa_file_per_report_table():
    names = {p.name for p in PAPER.glob("*.yaml")}
    assert names == {f"{t}_{mode}.yaml" for t in TABLES for mode in ("sa", "nsa")}


@pytest.mark.parametrize("path", sorted(PAPER.glob("*.yaml")), ids=lambda p: p.stem)
def test_file_validates_in_its_mode(path, capsys):
    assert main(["validate", str(path)]) == EXIT_OK
    capsys.readouterr()
    deployment = yaml.safe_load(path.read_text(encoding="utf-8"))["deployment"]
    mode = path.stem.rsplit("_", 1)[1].upper()
    assert deployment["mode"] == mode
    # an SA report goes over the NR RACH, so no LTE latency applies
    assert ("lte_latency_ms" in deployment) == (mode == "NSA")


@pytest.mark.parametrize("table", TABLES)
def test_pair_reports_a_full_table(table, tmp_path, capsys):
    inputs = []
    for mode in ("sa", "nsa"):
        out = tmp_path / mode
        argv = ["sweep", str(PAPER / f"{table}_{mode}.yaml"), "--runs", "200", "--out", str(out)]
        assert main(argv) == EXIT_OK
        inputs.append(str(out / "reports.json"))
    tables = tmp_path / "tables"
    assert main(["report", *inputs, "--out", str(tables)]) == EXIT_OK
    capsys.readouterr()
    header, *rows = csv.reader(io.StringIO((tables / f"{table}.csv").read_text()))
    assert rows and all(len(row) == len(header) for row in rows)
    assert all(cell for row in rows for cell in row)
    # both modes have columns
    assert any("[SA " in h for h in header) and any("[NSA " in h for h in header)


def test_readme_maps_each_file_to_its_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Reproducing the paper") :].split("\n## ")[0]
    for table in TABLES:
        for mode in ("sa", "nsa"):
            assert f"beamsim sweep paper/{table}_{mode}.yaml" in section
        assert f"`{table}.csv`" in section
