"""No warning reaches a user on the benchmark workloads, and only the
commands that compute with arrays import numpy.

Runs ``beamsim sweep`` and ``beamsim validate`` on both benchmark sweeps,
``beamsim report`` on the sweep's ``reports.json``, and the help of the
program and of each command, each in a fresh interpreter under ``-W error``,
so a numpy or library warning anywhere on those paths turns into a
non-zero exit here. The interpreter also runs under ``-X importtime``,
whose stderr lines name every module it imports: ``validate``, ``report``
and the help start without numpy, and ``sweep`` loads it. Importing
every module of the package loads no numpy either.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "nrbench" / "workloads"
IMPORT_TIME = "import time:"


def _run_under_warnings_as_errors(*args: str) -> set[str]:
    """Run ``beamsim ARGS`` and return the names of the modules it imported."""
    return _run_python("-m", "nrbeamsim", *args)


def _run_python(*args: str) -> set[str]:
    """Run ``python ARGS`` and return the names of the modules it imported."""
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env = {k: v for k, v in os.environ.items() if k != "BEAMSIM_SEED"}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-X", "importtime", *args],
        env=dict(env, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stderr.splitlines()
    imports = [line for line in lines if line.startswith(IMPORT_TIME)]
    other = "\n".join(line for line in lines if not line.startswith(IMPORT_TIME))
    assert proc.returncode == 0, other
    assert "Warning" not in other
    # "import time: self [us] | cumulative | imported package", indented by depth
    return {line.rsplit("|", 1)[1].strip() for line in imports}


def _numpy_modules(imported: set[str]) -> set[str]:
    return {m for m in imported if m == "numpy" or m.startswith("numpy.")}


@pytest.mark.parametrize("command", ["sweep", "validate"])
@pytest.mark.parametrize("workload", ["dense_grid", "wide_arrays"])
def test_bench_workloads_run_under_warnings_as_errors(tmp_path, workload, command):
    argv = [command, str(WORKLOADS / f"{workload}.yaml"), "--runs", "50"]
    if command == "sweep":
        argv += ["--out", str(tmp_path)]
    imported = _run_under_warnings_as_errors(*argv)
    if command == "validate":
        assert not _numpy_modules(imported)
        return
    # the campaigns compute with arrays, and the check sees their import
    assert "numpy" in imported
    imported = _run_under_warnings_as_errors(
        "report", str(tmp_path / "reports.json"), "--out", str(tmp_path / "tables")
    )
    assert (tmp_path / "tables" / "kiviat.json").exists()
    assert not _numpy_modules(imported)


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["sweep", "-h"], ["validate", "-h"], ["anchors", "-h"], ["report", "-h"]],
)
def test_help_exits_zero_in_a_fresh_interpreter(argv):
    # a command's help comes from the parser built for it alone
    imported = _run_under_warnings_as_errors(*argv)
    assert not _numpy_modules(imported)


def test_no_package_module_loads_numpy_when_imported():
    # the functions that compute with arrays import numpy in their own body
    modules = sorted(
        f"nrbeamsim.{p.stem}"
        for p in (ROOT / "src" / "nrbeamsim").glob("*.py")
        if p.stem not in ("__init__", "__main__")
    )
    imported = _run_python("-c", "import " + ", ".join(modules))
    assert set(modules) <= imported
    assert not _numpy_modules(imported)
