"""Command line interface.

Commands: ``validate`` checks a scenario file; ``sweep`` runs every
campaign of every scenario, prints every metric, and with ``--out``
writes ``reports.csv`` and ``reports.json``; ``anchors`` checks the
built-in closed-form anchors; ``report`` renders stored reports into
tables.

Exit codes: 0 success, 1 usage, configuration or validation error or a
result that is not finite, 2 anchor failure, 3 I/O error. ``validate``
and ``sweep`` print the effective configuration (the scenario file
after defaults and overrides, which reproduces the run) before any
results, and all file output is byte-stable for a fixed seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

import yaml

from . import __version__
from .anchors import anchors_csv, run_anchors
from .errors import ConfigurationError
from .evaluation import MetricsReport, estimate_metrics, kiviat_normalize
from .reporting import (
    METRIC_COLUMNS,
    emit,
    power_overhead_table,
    recovery_delay_table,
    reporting_delay_table,
    reports_from_json,
    reports_to_json,
    stat_field,
)
from .scenario_io import ScenarioFile, parse_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ANCHOR = 2
EXIT_IO = 3

# libyaml's C emitter renders the effective configuration several times
# faster than PyYAML's Python emitter, to the same text except where a long
# double-quoted scalar wraps; a PyYAML built without libyaml has only the
# Python one.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# --seed N and --runs N add these --set items to the same list, so they pass
# the one check of campaign values, and the last one on the line wins
_CAMPAIGN_FLAGS = {"--seed": "campaign.seed={}", "--runs": "campaign.n_runs={}"}


def _add_file_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario value by dotted key (repeatable)",
    )
    for flag, item in _CAMPAIGN_FLAGS.items():
        p.add_argument(
            flag,
            dest="overrides",
            action="append",
            type=item.format,
            metavar="N",
            help=f"the same as --set {item.format('N')}",
        )


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    _add_file_args(p)
    p.add_argument("--out", type=Path, default=None, help="directory for CSV/JSON")


def _add_anchor_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, default=None)


def _add_report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("inputs", nargs="+", help="report JSON files")
    p.add_argument("--out", type=Path, default=None)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser tree: the top-level parser and, by command, its
    subparsers, each with its command's arguments."""
    parser = argparse.ArgumentParser(
        prog="beamsim",
        description=(
            "Symbol-accurate evaluation of NR mmWave beam management: "
            "initial access, tracking, reporting and link recovery."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, _) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))
    return parser, sub.choices


def _load(args: argparse.Namespace) -> ScenarioFile:
    """Parse the scenario file with its overrides and print its effective
    configuration. The seed was once also read from ``BEAMSIM_SEED``;
    ignoring the variable would change the seed of a run that sets it."""
    if "BEAMSIM_SEED" in os.environ:
        raise ConfigurationError(
            "BEAMSIM_SEED is no longer read: unset it and pass --seed N"
        )
    sf = parse_scenario(args.scenario, overrides=args.overrides)
    _print_effective(sf)
    return sf


def _print_effective(sf: ScenarioFile) -> None:
    """Print the effective configuration: the scenario file that, run
    again, gives the same scenarios and campaign."""
    text = yaml.dump(sf.effective, Dumper=_DUMPER, sort_keys=True, default_flow_style=False)
    sys.stdout.write(f"# effective configuration\n{text}# results\n")


def _metric_lines(r: MetricsReport) -> str:
    """The result lines of report ``r``, each ending in a newline."""
    lines = []
    for column in METRIC_COLUMNS:
        field = stat_field(column)
        if field is None:
            text = f"{getattr(r, column):.6g}"
        else:
            stat = getattr(r, field)
            text = f"{stat.mean:.6g} +/- {stat.stderr:.3g}"
        lines.append(f"{r.scenario_id}: {column} = {text}\n")
    return "".join(lines)


def _run_sweep(args: argparse.Namespace) -> int:
    sf = _load(args)
    if args.out is not None:
        # an --out the reports cannot go to fails before the campaigns run
        args.out.mkdir(parents=True, exist_ok=True)
    # a report refuses a number no output can hold, before any result is shown
    reports = [estimate_metrics(sc, sf.campaign) for sc in sf.scenarios]
    # the results block in one write
    sys.stdout.write("".join(map(_metric_lines, reports)))
    if args.out is not None:
        for path in emit(reports, args.out):
            print(f"wrote {path}")
    return EXIT_OK


def _run_validate(args: argparse.Namespace) -> int:
    sf = _load(args)
    print(f"ok: {len(sf.scenarios)} scenario(s) valid")
    return EXIT_OK


def _run_anchors(args: argparse.Namespace) -> int:
    if args.out is not None:
        # an --out the table cannot go to fails before any anchor is shown
        args.out.mkdir(parents=True, exist_ok=True)
    results = run_anchors()
    failed = [r for r in results if r.gated and not r.passed]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        tag = "" if r.gated else " [calibration]"
        print(f"{status}{tag} {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} anchors passed")
    if args.out is not None:
        path = args.out / "anchors.csv"
        path.write_text(anchors_csv(results), encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_ANCHOR if failed else EXIT_OK


def _run_report(args: argparse.Namespace) -> int:
    reports: list[MetricsReport] = []
    for item in args.inputs:
        try:
            reports.extend(reports_from_json(Path(item).read_text(encoding="utf-8")))
        except (ConfigurationError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"{item}: {exc}") from None
    if not reports:
        raise ConfigurationError("no reports found in the given files")
    tables = {
        "t_br_by_gnb.csv": reporting_delay_table(reports),
        "power_overhead.csv": power_overhead_table(reports),
        "t_rlf_table.csv": recovery_delay_table(reports),
    }
    if args.out is not None:
        # kiviat may refuse the reports: find out before making the
        # directory, and make it before any table is shown
        kiviat = asdict(kiviat_normalize(reports))
        files = {
            **tables,
            "kiviat.json": json.dumps(kiviat, indent=2, sort_keys=True) + "\n",
            "reports.json": reports_to_json(reports),
        }
        args.out.mkdir(parents=True, exist_ok=True)
    for name, text in tables.items():
        print(f"# {name}")
        print(text.rstrip())
    if args.out is not None:
        for name, text in files.items():
            (args.out / name).write_text(text, encoding="utf-8")
            print(f"wrote {args.out / name}")
    return EXIT_OK


# every command: its help line, what adds its arguments and what runs it
_COMMANDS = {
    "validate": ("parse and validate a scenario file", _add_file_args, _run_validate),
    "sweep": (
        "run every campaign of every scenario; print every metric, "
        "--out writes reports.csv and reports.json",
        _add_sweep_args,
        _run_sweep,
    ),
    "anchors": ("check the built-in closed-form anchors", _add_anchor_args, _run_anchors),
    "report": ("render stored reports into tables", _add_report_args, _run_report),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    parser, commands = _build_parser()
    try:
        if command in commands:
            # the command's own subparser, so that a usage error names it
            args = commands[command].parse_args(argv[1:])
        else:
            parser.parse_args(argv)
            # a command that is not the first argument (some argparse
            # versions pass over a "--" before it) has not had its arguments
            # parsed
            parser.error("the command must be the first argument")
    except SystemExit as exc:
        # argparse has printed the usage error (exit 2) or the help or
        # version (exit 0)
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return _COMMANDS[command][2](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
