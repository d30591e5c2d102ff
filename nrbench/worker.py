"""One benchmark repetition in a fresh process, so the plan caches start cold.

    python3 worker.py campaign WORKLOAD.yaml SEED OUT_DIR [RUNS]
    python3 worker.py trace    WORKLOAD.yaml SEED OUT_DIR [RUNS]

``campaign`` times ``nrbeamsim.cli.main(["sweep", ...])`` untraced.
``trace`` runs the same sweep through the same ``main`` but, for its
duration, binds timed wrappers in place of the names the CLI calls into
other layers (``parse_scenario``, ``estimate_metrics``, ``emit``) and of
those ``nrbeamsim.evaluation.estimate_metrics`` calls into
``procedures``, ``link`` and ``frame`` (the IA, tracking and RLF
batches, ``misdetection_probability``, ``omega_ia_for``,
``omega_tr_for``). The real functions therefore run in their own order
with their own random streams. The ``estimate_metrics`` wrapper first
builds the sweep and tracking plans in spans of their own, so their cold
cost is measured apart from the batches. After the sweep the worker
times what ``beamsim report`` does with the result: the three tables and
the kiviat normalisation.

Spans stay in memory and are written to ``OUT_DIR/spans.json`` at the
end. The last stdout line is one JSON object for the parent.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from typing import Iterator, Optional

_T0 = time.perf_counter()
from nrbeamsim import cli  # noqa: E402  (import time is measured)

IMPORT_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402

from nrbeamsim import evaluation, procedures, reporting  # noqa: E402
from nrbeamsim.errors import ConfigurationError, NotApplicableError  # noqa: E402


def _sweep_argv(workload: str, seed: int, out: str, runs: Optional[int]) -> list[str]:
    argv = ["sweep", workload, "--seed", str(seed), "--out", out]
    if runs is not None:
        argv += ["--runs", str(runs)]
    return argv


def _peak_rss_mb() -> float:
    """This process's peak RSS.

    ``VmHWM`` belongs to the address space made at exec. ``ru_maxrss``
    also keeps the high-water mark the forking parent had, which exceeds a
    small campaign's own peak once the parent has run its calibration.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_campaign(workload: str, seed: int, out: str, runs: Optional[int]) -> dict:
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        rc = cli.main(_sweep_argv(workload, seed, out, runs))
        campaign_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    return {
        "rc": rc,
        "import_s": IMPORT_S,
        "campaign_s": campaign_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
    }


class Tracer:
    """In-memory spans (name, parent, start, end) plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        rec = [name, parent, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, start, end in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the time their children cover."""
        ids = {i for i, s in enumerate(self.spans) if s[0] == name}
        children = sum(e - s for _, p, s, e in self.spans if p in ids)
        return self.total(name) - children


@contextmanager
def swapped(module, replacements: dict) -> Iterator[None]:
    """Bind ``replacements`` as globals of ``module`` for the block's duration."""
    originals = {name: vars(module)[name] for name in replacements}
    vars(module).update(replacements)
    try:
        yield
    finally:
        vars(module).update(originals)


def timed(tr: Tracer, span: str, fn, count=None):
    """``fn`` inside one span; ``count(args, result)`` then updates counters."""

    def wrapper(*args, **kwargs):
        with tr.span(span):
            result = fn(*args, **kwargs)
        if count is not None:
            count(args, result)
        return result

    return wrapper


def run_trace(workload: str, seed: int, out: str, runs: Optional[int]) -> dict:
    tr = Tracer()
    c = tr.counts

    def count_scenarios(args, sf):
        c["scenario_io.scenarios"] += len(sf.scenarios)

    def count_bytes(args, written):
        c["reporting.bytes_written"] += sum(p.stat().st_size for p in written)

    def count_ia_cells(args, batch):
        sc, n_runs = args[0], args[1]
        c["procedures.ia_cells"] += n_runs * procedures.sweep_plan(sc).s

    def count_censored(args, result):
        c["procedures.tracking_censored"] += int(np.count_nonzero(result[1]))

    def estimate_metrics(sc, *args, **kwargs):
        """Build the plans cold in their own spans, then run the real thing."""
        with tr.span("evaluation.estimate_metrics"):
            with tr.span("procedures.sweep_plan"):
                plan = procedures.sweep_plan(sc)
            c["procedures.plans_built"] += 1
            if not plan.digital_gnb:
                c["procedures.wait_table_cells"] += plan.rach_cycle * plan.f_g
            with tr.span("procedures.tracking_plan"):
                try:
                    procedures.expected_tracking_delay_ms(sc)
                except NotApplicableError:
                    c["procedures.tracking_plan_refusals"] += 1
            return evaluation.estimate_metrics(sc, *args, **kwargs)

    cli_names = {
        "parse_scenario": timed(tr, "scenario_io.parse", cli.parse_scenario, count_scenarios),
        "estimate_metrics": estimate_metrics,
        "emit": timed(tr, "reporting.emit", cli.emit, count_bytes),
    }
    ev = evaluation
    evaluation_names = {
        "simulate_ia_batch": timed(tr, "procedures.ia_batch", ev.simulate_ia_batch, count_ia_cells),
        "simulate_tracking_batch": timed(
            tr, "procedures.tracking_batch", ev.simulate_tracking_batch, count_censored
        ),
        "simulate_rlf_batch": timed(tr, "procedures.rlf_batch", ev.simulate_rlf_batch),
        "misdetection_probability": timed(tr, "link.misdetection", ev.misdetection_probability),
        "omega_ia_for": timed(tr, "frame.overheads", ev.omega_ia_for),
        "omega_tr_for": timed(tr, "frame.overheads", ev.omega_tr_for),
    }
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        with swapped(cli, cli_names), swapped(evaluation, evaluation_names):
            with tr.span("cli.sweep"):
                rc = cli.main(_sweep_argv(workload, seed, out, runs))
        n_scenarios = int(c["scenario_io.scenarios"])
        for span in ("evaluation.estimate_metrics", "procedures.ia_batch", "link.misdetection"):
            if rc == 0 and len(tr.durations(span)) != n_scenarios:
                raise SystemExit(
                    f"{span} was timed {len(tr.durations(span))} times for "
                    f"{n_scenarios} scenarios; the CLI or estimate_metrics no "
                    "longer calls the names this tracer wraps"
                )
        with tr.span("cli.validate"):
            cli.main(["validate", workload])

    if rc == 0:
        text = (Path(out) / "reports.json").read_text(encoding="utf-8")
        reports = reporting.reports_from_json(text)
        with tr.span("reporting.tables"):
            reporting.reporting_delay_table(reports)
            reporting.power_overhead_table(reports)
            reporting.recovery_delay_table(reports)
        with tr.span("evaluation.kiviat"):
            try:
                evaluation.kiviat_normalize(reports)
            except ConfigurationError:
                c["evaluation.kiviat_failed"] += 1

    Path(out).mkdir(parents=True, exist_ok=True)
    Path(out, "spans.json").write_text(
        json.dumps(
            {
                "trace_id": f"{Path(workload).stem}-seed{seed}-pid{os.getpid()}",
                "fields": ["name", "parent", "start_s", "end_s"],
                "spans": tr.spans,
            }
        ),
        encoding="utf-8",
    )
    times = {name: tr.total(name) for name in {s[0] for s in tr.spans}}
    times["cli.self"] = tr.self_time("cli.sweep")
    return {
        "rc": rc,
        "import_s": IMPORT_S,
        "peak_rss_mb": _peak_rss_mb(),
        "times": times,
        "counts": dict(tr.counts),
        "scenario_s": tr.durations("evaluation.estimate_metrics"),
    }


def main(argv: list[str]) -> int:
    mode, workload, seed, out = argv[0], argv[1], int(argv[2]), argv[3]
    runs = int(argv[4]) if len(argv) > 4 else None
    run = {"campaign": run_campaign, "trace": run_trace}[mode]
    print(json.dumps(run(workload, seed, out, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
