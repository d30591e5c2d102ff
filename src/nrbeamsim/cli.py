"""Command line interface.

Exit codes: 0 success, 1 configuration/validation error, 2 anchor
failure, 3 I/O error. Every run prints the effective configuration
(after defaults, overrides and sweep expansion) before any results, and
all file output is byte-stable for a fixed seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import yaml

from . import __version__
from .anchors import anchors_csv, run_anchors
from .errors import ConfigurationError, DomainError, NotApplicableError
from .evaluation import MetricsReport, estimate_metrics, kiviat_normalize
from .reporting import (
    emit,
    power_overhead_table,
    recovery_delay_table,
    reporting_delay_table,
    reports_from_json,
    reports_to_json,
)
from .scenario_io import ScenarioFile, parse_scenario

SEED_ENV_VAR = "BEAMSIM_SEED"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ANCHOR = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamsim",
        description=(
            "Symbol-accurate evaluation of NR mmWave beam management: "
            "initial access, tracking, reporting and link recovery."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", help="scenario YAML file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a scenario value by dotted key (repeatable)",
        )
        p.add_argument("--seed", type=int, default=None, help="campaign seed")
        p.add_argument("--runs", type=int, default=None, help="runs per campaign")
        p.add_argument("--out", type=Path, default=None, help="directory for CSV/JSON")

    for name, desc in (
        ("validate", "parse and validate a scenario file"),
        ("ia", "initial-access campaign"),
        ("tracking", "beam-tracking campaign"),
        ("rlf", "link-recovery campaign"),
        ("sweep", "full campaign over the scenario sweep grid"),
    ):
        add_file_args(sub.add_parser(name, help=desc))

    p_anchor = sub.add_parser("anchors", help="run the built-in regression anchors")
    p_anchor.add_argument("--seed", type=int, default=None)
    p_anchor.add_argument("--runs", type=int, default=100_000)
    p_anchor.add_argument("--out", type=Path, default=None)

    p_report = sub.add_parser("report", help="render stored reports into tables")
    p_report.add_argument("inputs", nargs="+", help="report JSON files")
    p_report.add_argument("--out", type=Path, default=None)
    return parser


def _resolved_seed(arg_seed: Optional[int], file_seed: int) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigurationError(
                f"{SEED_ENV_VAR}={env!r}: must be an integer"
            ) from None
    return file_seed


def _print_effective(sf: ScenarioFile, seed: int, n_runs: int) -> None:
    doc = {
        "source": sf.source,
        "seed": seed,
        "n_runs": n_runs,
        "horizon_ms": sf.campaign.horizon_ms,
        "scenarios": list(sf.effective),
    }
    print("# effective configuration")
    print(yaml.safe_dump(doc, sort_keys=True, default_flow_style=False).rstrip())
    print("# results")


def _metric_lines(r: MetricsReport, focus: Optional[str]) -> list[str]:
    rows = {
        "t_ia_ms": f"{r.t_ia.mean:.6g} +/- {r.t_ia.stderr:.3g}",
        "t_tr_ms": f"{r.t_tr.mean:.6g} +/- {r.t_tr.stderr:.3g}",
        "t_br_ms": f"{r.t_br.mean:.6g} +/- {r.t_br.stderr:.3g}",
        "t_rlf_ms": f"{r.t_rlf.mean:.6g} +/- {r.t_rlf.stderr:.3g}",
        "omega_ia": f"{r.omega_ia:.6g}",
        "omega_tr": f"{r.omega_tr:.6g}",
        "omega_br": f"{r.omega_br:.6g}",
        "accuracy": f"{r.accuracy:.6g}",
        "p_c_w": f"{r.p_c_w:.6g}",
    }
    if focus:
        keys = [focus]
    else:
        keys = list(rows)
    return [f"{r.scenario_id}: {k} = {rows[k]}" for k in keys]


def _run_campaign(args: argparse.Namespace, focus: Optional[str]) -> int:
    sf = parse_scenario(args.scenario, overrides=args.overrides)
    seed = _resolved_seed(args.seed, sf.campaign.seed)
    n_runs = args.runs if args.runs is not None else sf.campaign.n_runs
    if n_runs < 1:
        raise ConfigurationError(f"--runs {n_runs}: must be at least 1")
    _print_effective(sf, seed, n_runs)
    reports = [
        estimate_metrics(
            sc,
            n_runs=n_runs,
            seed=seed,
            n_drops=sf.campaign.n_drops,
            horizon_ms=sf.campaign.horizon_ms,
        )
        for sc in sf.scenarios
    ]
    for r in reports:
        for line in _metric_lines(r, focus):
            print(line)
    if args.out is not None:
        basename = args.command if args.command != "sweep" else "reports"
        written = emit(reports, args.out, ("csv", "json"), basename=basename)
        for path in written:
            print(f"wrote {path}")
    return EXIT_OK


def _run_validate(args: argparse.Namespace) -> int:
    sf = parse_scenario(args.scenario, overrides=args.overrides)
    seed = _resolved_seed(args.seed, sf.campaign.seed)
    n_runs = args.runs if args.runs is not None else sf.campaign.n_runs
    _print_effective(sf, seed, n_runs)
    print(f"ok: {len(sf.scenarios)} scenario(s) valid")
    return EXIT_OK


def _run_anchors(args: argparse.Namespace) -> int:
    seed = _resolved_seed(args.seed, 42)
    results = run_anchors(seed=seed, heavy_runs=args.runs)
    failed = [r for r in results if r.gated and not r.passed]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        tag = "" if r.gated else " [calibration]"
        print(f"{status}{tag} {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} anchors passed")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "anchors.csv"
        path.write_text(anchors_csv(results), encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_ANCHOR if failed else EXIT_OK


def _run_report(args: argparse.Namespace) -> int:
    reports: list[MetricsReport] = []
    for item in args.inputs:
        text = Path(item).read_text(encoding="utf-8")
        try:
            reports.extend(reports_from_json(text))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{item}: {exc}") from None
    if not reports:
        raise ConfigurationError("no reports found in the given files")
    tables = {
        "t_br_by_gnb.csv": reporting_delay_table(reports),
        "power_overhead.csv": power_overhead_table(reports),
        "t_rlf_table.csv": recovery_delay_table(reports),
    }
    for name, text in tables.items():
        print(f"# {name}")
        print(text.rstrip())
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in tables.items():
            (out / name).write_text(text, encoding="utf-8")
            print(f"wrote {out / name}")
        kiviat = kiviat_normalize(reports)
        payload = {
            "axes": list(kiviat.axes),
            "scenario_ids": list(kiviat.scenario_ids),
            "raw": [list(v) for v in kiviat.raw],
            "values": [list(v) for v in kiviat.values],
        }
        (out / "kiviat.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {out / 'kiviat.json'}")
        (out / "reports.json").write_text(reports_to_json(reports), encoding="utf-8")
        print(f"wrote {out / 'reports.json'}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return _run_validate(args)
        if args.command == "ia":
            return _run_campaign(args, "t_ia_ms")
        if args.command == "tracking":
            return _run_campaign(args, "t_tr_ms")
        if args.command == "rlf":
            return _run_campaign(args, "t_rlf_ms")
        if args.command == "sweep":
            return _run_campaign(args, None)
        if args.command == "anchors":
            return _run_anchors(args)
        if args.command == "report":
            return _run_report(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ConfigurationError, DomainError, NotApplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
