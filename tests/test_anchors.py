from __future__ import annotations

import ast
import csv
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

from nrbeamsim import anchors
from nrbeamsim.anchors import (
    RLF_ANCHORS_MS,
    AnchorResult,
    anchors_csv,
    run_anchors,
)

# name -> gated, in the order the CLI prints them
EXPECTED_ANCHORS = {
    "rlf_recovery_mean_t_ss_40": True,
    "rlf_recovery_mean_t_ss_80": True,
    "nsa_constants_lte_0.8": True,
    "nsa_constants_lte_4": True,
    "nsa_constants_lte_10": True,
    "nsa_constants_lte_40": True,
    "omega_ia_grid_ratios": True,
    "power_digital_points": True,
    "power_analog_points": True,
    "t_br_small_arrays_fast": True,
    "t_br_large_array_sparse_burst_slow": True,
    "t_br_large_array_dense_burst_faster": True,
    "t_br_monotone_in_m_gnb": True,
    "calibration_t_br_m4_nss64": False,
    "calibration_t_br_m16_nss64": False,
    "calibration_t_br_m64_nss8": False,
    "calibration_t_br_m64_nss64": False,
    "accuracy_ordering": True,
    "tracking_sparser_bursts_track_faster": True,
    "tracking_overhead_invariant": True,
}


# sha256 of `python -m nrbeamsim anchors` stdout: every printed digit of
# every anchor is pinned, so a rewrite of a closed form that moves one
# shows here
ANCHORS_STDOUT_SHA256 = "76447c4b1758c9e1f403f217a40d07703a73853d86e3f5f2a5e97f8dcc4a33b9"


def test_anchors_stdout_is_byte_identical():
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "nrbeamsim", "anchors"],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().endswith("20/20 anchors passed\n")
    assert hashlib.sha256(proc.stdout).hexdigest() == ANCHORS_STDOUT_SHA256


def test_names_and_gated_flags_are_pinned_and_all_pass():
    results = run_anchors()
    assert [(r.name, r.gated) for r in results] == list(EXPECTED_ANCHORS.items())
    assert [r.name for r in results if not r.passed] == []


def test_rlf_anchors_read_the_oracle_against_the_reference():
    by_name = {r.name: r for r in run_anchors()}
    for t_ss, expect in RLF_ANCHORS_MS:
        detail = by_name[f"rlf_recovery_mean_t_ss_{t_ss:g}"].detail
        assert detail.startswith("oracle ")
        assert detail.endswith(f"ms vs reference {expect:g} (tol 0.002)")
        oracle = float(detail.split()[1])
        assert abs(oracle - expect) <= 0.002


def test_csv_keeps_quotes_and_commas_in_details():
    results = [
        AnchorResult(name="plain", passed=True, detail="no separators here"),
        AnchorResult(
            name="quoted", passed=False, detail='say "hi", then 1,2', gated=False
        ),
    ]
    text = anchors_csv(results)
    lines = text.splitlines()
    # quoted only where the detail needs it
    assert lines[1] == "plain,pass,True,no separators here"
    rows = list(csv.reader(io.StringIO(text)))
    assert rows == [
        ["name", "status", "gated", "detail"],
        ["plain", "pass", "True", "no separators here"],
        ["quoted", "FAIL", "False", 'say "hi", then 1,2'],
    ]


def test_module_imports_no_sampler():
    tree = ast.parse(Path(anchors.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    assert not any(name.split(".")[0] == "numpy" for name in imported)
    assert not any(name.startswith("simulate_") for name in imported)
    assert "stat_from_samples" not in imported
