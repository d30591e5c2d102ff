"""Sweep benchmark for nrbeamsim.

    python3 nrbench/run.py --workload dense_grid --seed 42 --seconds 60 --trace 0

Runs one pinned sweep workload (``workloads/<name>.yaml``) through the
public CLI entry point, ``nrbeamsim.cli.main(["sweep", ...])``, from the
``src/`` tree of the checkout this file sits in. The loop is closed and
single-threaded: one caller, each repetition a fresh process started
after the previous one ended, so the plan caches start cold as they do
for a user. Repetitions continue until ``--seconds`` have passed.

``--trace 0`` alternates an untraced campaign process with a fresh
``python -m nrbeamsim validate`` and reports the end-to-end metrics:
median campaign wall time, scenario-runs per second, set-up time and
peak RSS. The two times are scaled to a reference machine speed: between
the processes the parent times a fixed calibration kernel that calls no
``nrbeamsim`` code, and each time is multiplied by
``CALIBRATION_REF_S`` over the run's median kernel time. The raw medians
are printed and recorded beside them. ``--trace 1`` alternates an untraced campaign with a traced
one (see ``worker.py``) and reports per-layer times and counts, plus the
tracing overhead (traced total minus the untraced campaign time).

Every repetition's ``reports.json`` is checked against the closed-form
oracles (see ``checker.py``) and its sha256 must repeat across the
repetitions. ``attempted`` counts scenarios checked, ``failed`` those
that failed. ``--workload all`` runs every workload in turn. A summary
table goes to stdout, the full record (environment, digests, every
repetition) to ``.nrbench_out/`` in the checkout, and the last stdout
line is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".nrbench_out"
WORKER = HERE / "worker.py"
# Caps one child process, so a hung campaign ends the run well within 180 s.
CHILD_TIMEOUT_S = 120
# After each campaign, set-up processes run until this much time has gone
# to them (at least one). A short set-up is dominated by interpreter
# start-up jitter, so it gets more samples than a long one.
SETUP_SECONDS_PER_REP = 0.5
# After the campaign and again after the set-ups, the calibration kernel
# runs until this much time has gone to it.
CALIBRATION_SECONDS_PER_SLOT = 0.1
# Median calibration kernel time on the 2-vCPU machine the benchmark was
# tuned on; scaled times read as seconds at that machine's typical speed.
CALIBRATION_REF_S = 0.048

# Workload and metric names with their units are declared once, in the
# BENCHMARK.json beside this directory.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# span name in worker.py -> per-layer metric
_SPAN_METRICS = {
    "cli.validate": "cli.validate_s",
    "cli.self": "cli.self_s",
    "scenario_io.parse": "scenario_io.parse_s",
    "procedures.sweep_plan": "procedures.sweep_plan_s",
    "procedures.tracking_plan": "procedures.tracking_plan_s",
    "procedures.ia_batch": "procedures.ia_batch_s",
    "procedures.rlf_batch": "procedures.rlf_batch_s",
    "procedures.tracking_batch": "procedures.tracking_batch_s",
    "link.misdetection": "link.misdetection_s",
    "frame.overheads": "frame.overheads_s",
    "evaluation.estimate_metrics": "evaluation.estimate_metrics_s",
    "evaluation.kiviat": "evaluation.kiviat_s",
    "reporting.emit": "reporting.emit_s",
    "reporting.tables": "reporting.tables_s",
    "cli.sweep": "trace.total_s",
}

_COUNT_METRICS = (
    "scenario_io.scenarios",
    "procedures.plans_built",
    "procedures.wait_table_cells",
    "procedures.tracking_plan_refusals",
    "procedures.ia_cells",
    "procedures.tracking_censored",
    "evaluation.kiviat_failed",
    "reporting.bytes_written",
)


def pinned_env() -> dict[str, str]:
    """Child environment: no seed override, one BLAS thread, our src first."""
    env = dict(os.environ)
    env.pop("BEAMSIM_SEED", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def environment_record() -> dict:
    import numpy
    import yaml

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "git_sha": sha,
    }


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def calibration_kernel_s() -> float:
    """Time fixed numpy work that uses no nrbeamsim code.

    The machine's speed drifts by tens of percent over minutes, and the
    campaign and set-up times drift with it. This kernel samples that
    speed: normal draws into a fresh 16 MB array, an argmax and a shifted
    max, like an IA batch. Of the kernels tried on the tuning machine it
    tracked both workloads and the set-up best; a pure interpreter loop
    over-corrected the numpy-bound ``dense_grid``.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    x = rng.standard_normal((2000, 1024))
    x.argmax(axis=1)
    (x + 1.0).max(axis=1)
    return time.perf_counter() - t0


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """A pinned scenario file and what its repetitions produced."""

    def __init__(self, name: str, seed: int, runs: Optional[int], env: dict, work: Path):
        from nrbeamsim.scenario_io import parse_scenario

        self.name = name
        self.path = HERE / "workloads" / f"{name}.yaml"
        self.seed = seed
        self.runs = runs
        self.env = env
        self.work = work
        sf = parse_scenario(self.path)
        self.scenarios = sf.scenarios
        self.n_runs = runs if runs is not None else sf.campaign.n_runs
        self.total_runs = self.n_runs * len(self.scenarios)
        self.texts: dict[str, str] = {}
        self.reps: list[dict] = []
        self.setups: list[dict] = []
        self.calibrations: list[float] = []

    def _cli_args(self) -> list[str]:
        args = [str(self.path), "--seed", str(self.seed)]
        return args + (["--runs", str(self.runs)] if self.runs is not None else [])

    def child(self, mode: str) -> dict:
        """One fresh worker process; its JSON line plus the reports digest."""
        out = self.work / f"{self.name}-{len(self.reps)}-{mode}"
        argv = [sys.executable, str(WORKER), mode, str(self.path), str(self.seed), str(out)]
        if self.runs is not None:
            argv.append(str(self.runs))
        proc = subprocess.run(
            argv, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        rep: dict = {"mode": mode, "exit": proc.returncode, "rc": None, "digest": None}
        if proc.returncode == 0:
            rep.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        else:
            rep["stderr"] = proc.stderr[-2000:]
        reports = out / "reports.json"
        if rep["rc"] == 0 and reports.is_file():
            rep["digest"] = sha256_of(reports)
            self.texts.setdefault(rep["digest"], reports.read_text(encoding="utf-8"))
        spans = out / "spans.json"
        if spans.is_file():
            shutil.copyfile(spans, OUT_ROOT / f"{self.name}-seed{self.seed}-spans.json")
        shutil.rmtree(out, ignore_errors=True)
        self.reps.append(rep)
        return rep

    def setup(self, timed: bool = True) -> None:
        """A fresh ``python -m nrbeamsim validate``, timed from spawn to exit."""
        argv = [sys.executable, "-m", "nrbeamsim", "validate"] + self._cli_args()
        t0 = time.perf_counter()
        proc = subprocess.run(
            argv, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        elapsed = time.perf_counter() - t0
        ok = proc.returncode == 0 and (
            f"ok: {len(self.scenarios)} scenario(s) valid" in proc.stdout
        )
        if timed:
            self.setups.append({"setup_s": elapsed, "ok": ok})
        elif not ok:
            self.setups.append({"setup_s": None, "ok": False})

    def calibrate(self) -> None:
        end = time.monotonic() + CALIBRATION_SECONDS_PER_SLOT
        self.calibrations.append(calibration_kernel_s())
        while time.monotonic() < end:
            self.calibrations.append(calibration_kernel_s())

    def speed_scale(self) -> float:
        """Factor that turns this run's wall times into reference-speed times."""
        return CALIBRATION_REF_S / statistics.median(self.calibrations)

    def verdicts(self) -> dict:
        from checker import check_reports

        return {
            d: check_reports(self.scenarios, text, self.seed, self.n_runs)
            for d, text in self.texts.items()
        }

    def score(self) -> dict:
        """Correctness over every repetition: attempted/failed scenario counts.

        A repetition, traced or not, whose ``reports.json`` is missing or
        differs from the first untraced one fails every scenario.
        """
        n = len(self.scenarios)
        verdicts = self.verdicts()
        digests = [r["digest"] for r in self.reps]
        untraced = [r["digest"] for r in self.reps if r["mode"] == "campaign"]
        reference = next((d for d in untraced if d is not None), None)
        attempted = failed = 0
        for rep in self.reps:
            attempted += n
            d = rep["digest"]
            if d is None or d != reference:
                failed += n
            else:
                failed += verdicts[d].failed
        for s in self.setups:
            attempted += n
            failed += 0 if s["ok"] else n
        return {
            "attempted": attempted,
            "failed": failed,
            "digest": reference,
            "digests_repeat": reference is not None and set(digests) == {reference},
            "max_abs_z": max((v.max_abs_z for v in verdicts.values()), default=None),
            "failures": [f for v in verdicts.values() for f in v.failures][:20],
        }


def measure(wl: Workload, seconds: float, trace: bool) -> None:
    """Repeat until another repetition would end after ``seconds``."""
    wl.setup(timed=False)  # compile bytecode and warm the file cache first
    deadline = time.monotonic() + seconds
    while True:
        start = time.monotonic()
        wl.child("campaign")
        if trace:
            wl.child("trace")
        else:
            wl.calibrate()
            setup_end = time.monotonic() + SETUP_SECONDS_PER_REP
            wl.setup()
            while time.monotonic() < setup_end:
                wl.setup()
            wl.calibrate()
        now = time.monotonic()
        if now + (now - start) > deadline:
            return


def end_to_end(wl: Workload) -> dict[str, list[float]]:
    """The end-to-end series, times scaled to the reference speed."""
    ok = [r for r in wl.reps if r["mode"] == "campaign" and "campaign_s" in r]
    scale = wl.speed_scale()
    return {
        "campaign_s": [scale * r["campaign_s"] for r in ok],
        "runs_per_s": [wl.total_runs / (scale * r["campaign_s"]) for r in ok],
        "setup_s": [scale * s["setup_s"] for s in wl.setups if s["ok"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }


def per_layer(wl: Workload) -> dict[str, list[float]]:
    traced = [r for r in wl.reps if r["mode"] == "trace" and r["rc"] == 0]
    untraced = [r["campaign_s"] for r in wl.reps if r["mode"] == "campaign" and "campaign_s" in r]
    if not traced or not untraced:
        return {}
    out: dict[str, list[float]] = {
        metric: [r["times"].get(span, 0.0) for r in traced]
        for span, metric in _SPAN_METRICS.items()
    }
    for name in _COUNT_METRICS:
        out[name] = [r["counts"].get(name, 0.0) for r in traced]
    out["procedures.ia_ns_per_cell"] = [
        1e9 * r["times"]["procedures.ia_batch"] / r["counts"]["procedures.ia_cells"]
        for r in traced
    ]
    out["process.import_s"] = [r["import_s"] for r in wl.reps if "import_s" in r]
    samples = sorted(1e3 * s for r in traced for s in r["scenario_s"])
    deciles = statistics.quantiles(samples, n=10) if len(samples) > 1 else samples * 9
    out["evaluation.scenario_ms_p50"] = [statistics.median(samples)]
    out["evaluation.scenario_ms_p90"] = [deciles[8]]
    out["evaluation.scenario_samples"] = [float(len(samples))]
    campaign = statistics.median(untraced)
    out["trace.campaign_s"] = untraced
    out["trace.overhead_s"] = [statistics.median(out["trace.total_s"]) - campaign]
    return out


def run_workload(name: str, args: argparse.Namespace, env: dict, work: Path) -> dict:
    wl = Workload(name, args.seed, args.runs, env, work)
    measure(wl, args.seconds, bool(args.trace))
    score = wl.score()
    series = per_layer(wl) if args.trace else end_to_end(wl)
    units = PER_LAYER if args.trace else END_TO_END
    missing = [m for m in units if not series.get(m)]
    if missing:
        raise RuntimeError(f"{name}: no successful repetition measured {missing}")
    summary = {m: quartiles(series[m]) for m in units}
    correct = score["failed"] == 0 and score["digests_repeat"]
    print(f"== {name}: seed {wl.seed}, {len(wl.scenarios)} scenarios x {wl.n_runs} runs, "
          f"{len(wl.reps)} worker processes, {len(wl.setups)} set-up processes")
    print(f"{'metric':36s} {'unit':7s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}")
    for m, unit in units.items():
        q1, med, q3 = summary[m]
        print(f"{m:36s} {unit:7s} {med:12.6g} {q1:12.6g} {q3:12.6g} {len(series[m]):3d}")
    if not args.trace:
        raw_campaign = [r["campaign_s"] for r in wl.reps if "campaign_s" in r]
        raw_setup = [s["setup_s"] for s in wl.setups if s["ok"]]
        print(f"times above are scaled by {wl.speed_scale():.4f}: calibration kernel median "
              f"{statistics.median(wl.calibrations):.6f} s over {len(wl.calibrations)} samples, "
              f"reference {CALIBRATION_REF_S} s; unscaled medians: campaign "
              f"{statistics.median(raw_campaign):.6g} s, setup {statistics.median(raw_setup):.6g} s")
    verdict = "PASS" if correct else "FAIL"
    print(f"correctness: {verdict}: {score['failed']}/{score['attempted']} scenario checks "
          f"failed, max |z| {score['max_abs_z']}, reports.json sha256 {score['digest']} "
          f"({'repeats' if score['digests_repeat'] else 'DIFFERS'})")
    for sid, why in score["failures"]:
        print(f"  FAIL {sid}: {why}")
    record = {
        "workload": name,
        "seed": wl.seed,
        "n_runs": wl.n_runs,
        "scenarios": len(wl.scenarios),
        "trace": args.trace,
        "seconds": args.seconds,
        "score": score,
        "series": series,
        "repetitions": wl.reps,
        "setups": wl.setups,
        "calibrations": wl.calibrations,
    }
    return {
        "correct": correct,
        "attempted": score["attempted"],
        "failed": score["failed"],
        "metrics": {m: {"value": summary[m][1], "unit": u} for m, u in units.items()},
        "record": record,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--runs", type=int, default=None, help="override each workload's n_runs"
    )
    args = parser.parse_args(argv)

    if not (SRC / "nrbeamsim" / "__init__.py").is_file():
        print(f"error: no nrbeamsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_ROOT.mkdir(exist_ok=True)
    env = pinned_env()
    envrec = environment_record()
    print("env: " + json.dumps(envrec, sort_keys=True))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_ROOT))
    try:
        results = {name: run_workload(name, args, env, work) for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, res in results.items():
        path = OUT_ROOT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(
            json.dumps({"env": envrec, **res["record"]}, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {
            f"{name}.{m}": v for name, res in results.items() for m, v in res["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
