"""Tests of the benchmark itself: metric names, the checker, the bare-directory exit.

    PYTHONPATH=src python3 -m pytest nrbench -q
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import run  # noqa: E402
from nrbeamsim.cli import main as cli_main  # noqa: E402
from nrbeamsim.scenario_io import parse_scenario  # noqa: E402

TINY_RUNS = 50


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_setup_has_the_largest_bound():
    setup = next(m for m in run.SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in run.SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "7", "--seconds", "0",
        "--trace", str(trace), "--runs", str(TINY_RUNS),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {m: v["unit"] for m, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["evaluation.kiviat_failed"]["value"] == 0.0


@pytest.fixture(scope="module")
def dense_reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("dense")
    wl = HERE / "workloads" / "dense_grid.yaml"
    args = ["sweep", str(wl), "--seed", "3", "--runs", "400", "--out", str(out)]
    assert cli_main(args) == 0
    scenarios = parse_scenario(wl).scenarios
    return scenarios, json.loads((out / "reports.json").read_text())


def _check(scenarios, payload):
    return checker.check_reports(scenarios, json.dumps(payload), seed=3, n_runs=400)


def test_checker_passes_the_program_output(dense_reports):
    scenarios, payload = dense_reports
    verdict = _check(scenarios, payload)
    assert verdict.failures == []
    assert verdict.scenarios == 36


def test_checker_fails_a_mean_shifted_by_ten_stderr(dense_reports):
    scenarios, payload = dense_reports
    bad = copy.deepcopy(payload)
    rep = next(r for r in bad["reports"] if r["mode"] == "SA")
    rep["t_ia"]["mean"] += 10 * rep["t_ia"]["stderr"]
    verdict = _check(scenarios, bad)
    assert verdict.failed == 1
    assert verdict.failures[0][0] == rep["scenario_id"]


def test_checker_fails_a_changed_nsa_constant(dense_reports):
    scenarios, payload = dense_reports
    bad = copy.deepcopy(payload)
    rep = next(r for r in bad["reports"] if r["mode"] == "NSA")
    rep["t_br"]["mean"] = 4.0
    assert _check(scenarios, bad).failed == 1


def test_checker_fails_every_scenario_of_a_truncated_file(dense_reports):
    scenarios, payload = dense_reports
    bad = {"reports": payload["reports"][:-1]}
    assert _check(scenarios, bad).failed == len(scenarios)


def test_a_traced_run_whose_reports_differ_fails_every_scenario(dense_reports, tmp_path):
    scenarios, payload = dense_reports
    wl = run.Workload("dense_grid", 3, 400, run.pinned_env(), tmp_path)
    wl.texts = {"untraced": json.dumps(payload)}
    wl.reps = [
        {"mode": "campaign", "digest": "untraced"},
        {"mode": "trace", "digest": "traced"},
    ]
    score = wl.score()
    assert score["attempted"] == 2 * len(scenarios)
    assert score["failed"] == len(scenarios)
    assert not score["digests_repeat"]


def test_end_to_end_times_are_scaled_by_the_calibration_median(tmp_path):
    wl = run.Workload("wide_arrays", 3, 400, run.pinned_env(), tmp_path)
    wl.reps = [{"mode": "campaign", "campaign_s": 2.0, "peak_rss_mb": 50.0}]
    wl.setups = [{"setup_s": 0.5, "ok": True}]
    wl.calibrations = [run.CALIBRATION_REF_S * 2, run.CALIBRATION_REF_S * 4, 1.0]
    series = run.end_to_end(wl)
    assert series["campaign_s"] == pytest.approx([0.5])
    assert series["setup_s"] == pytest.approx([0.125])
    assert series["runs_per_s"] == pytest.approx([wl.total_runs / 0.5])
    assert series["peak_rss_mb"] == [50.0]


def test_exits_nonzero_without_a_result_when_the_sources_are_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "dense_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
