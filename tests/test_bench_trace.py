"""The benchmark's per-layer tracer still finds every name it times.

``nrbench/worker.py trace`` binds timed wrappers in place of names that
``nrbeamsim.cli`` and ``nrbeamsim.evaluation`` call into other layers,
and exits non-zero when one is missing or a wrapped span is not timed
once per scenario. Renaming or no longer calling such a name breaks
``nrbench/run.py --trace 1``; this test makes it fail here too.

The IA and RLF batch spans must each be timed once per scenario as well,
so that the per-layer ``ia_batch_s`` and ``rlf_batch_s`` keep meaning
one call per scenario.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["dense_grid", "wide_arrays"])
def test_worker_trace_times_every_wrapped_name(tmp_path, workload):
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "nrbench" / "worker.py"),
            "trace",
            str(ROOT / "nrbench" / "workloads" / f"{workload}.yaml"),
            "42",
            str(tmp_path),
            "50",
        ],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    n_scenarios = result["counts"]["scenario_io.scenarios"]
    assert n_scenarios == (36 if workload == "dense_grid" else 18)
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))["spans"]
    for name in ("procedures.ia_batch", "procedures.rlf_batch"):
        assert sum(span[0] == name for span in spans) == n_scenarios, name
