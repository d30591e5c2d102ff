"""No warning reaches a user on the benchmark workloads.

Runs ``beamsim sweep`` and ``beamsim validate`` on both benchmark sweeps,
``beamsim report`` on the sweep's ``reports.json``, and the help of the
program and of ``sweep``, each in a fresh interpreter under ``-W error``,
so a numpy or library warning anywhere on those paths turns into a
non-zero exit here.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "nrbench" / "workloads"


def _run_under_warnings_as_errors(*args: str) -> None:
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env = {k: v for k, v in os.environ.items() if k != "BEAMSIM_SEED"}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nrbeamsim", *args],
        env=dict(env, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("command", ["sweep", "validate"])
@pytest.mark.parametrize("workload", ["dense_grid", "wide_arrays"])
def test_bench_workloads_run_under_warnings_as_errors(tmp_path, workload, command):
    argv = [command, str(WORKLOADS / f"{workload}.yaml"), "--runs", "50"]
    if command == "sweep":
        argv += ["--out", str(tmp_path)]
    _run_under_warnings_as_errors(*argv)
    if command == "sweep":
        _run_under_warnings_as_errors(
            "report", str(tmp_path / "reports.json"), "--out", str(tmp_path / "tables")
        )
        assert (tmp_path / "tables" / "kiviat.json").exists()


@pytest.mark.parametrize("argv", [["-h"], ["sweep", "-h"]])
def test_help_exits_zero_in_a_fresh_interpreter(argv):
    # each command's arguments are added only when it is invoked
    _run_under_warnings_as_errors(*argv)
