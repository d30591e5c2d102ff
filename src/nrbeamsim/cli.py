"""Command line interface.

Exit codes: 0 success, 1 usage, configuration or validation error,
2 anchor failure, 3 I/O error. Every run prints the effective configuration
(after defaults, overrides and sweep expansion) before any results, and
all file output is byte-stable for a fixed seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

import yaml

from . import __version__
from .anchors import anchors_csv, run_anchors
from .errors import ConfigurationError, DomainError, NotApplicableError
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

SEED_ENV_VAR = "BEAMSIM_SEED"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ANCHOR = 2
EXIT_IO = 3

# libyaml's C emitter renders the effective configuration several times
# faster than PyYAML's Python emitter, to the same text except where a long
# double-quoted scalar wraps; a PyYAML built without libyaml has only the
# Python one.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# the metric each campaign command prints, None for all of them; every one
# runs every campaign of every scenario and --out writes every metric
_FOCUS = {"ia": "t_ia_ms", "tracking": "t_tr_ms", "rlf": "t_rlf_ms", "sweep": None}


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
    p.add_argument("--seed", type=int, default=None, help="campaign seed")
    p.add_argument("--runs", type=int, default=None, help="runs per campaign")


def _add_campaign_args(p: argparse.ArgumentParser) -> None:
    _add_file_args(p)
    p.add_argument("--out", type=Path, default=None, help="directory for CSV/JSON")


def _add_anchor_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--runs", type=int, default=100_000)
    p.add_argument("--out", type=Path, default=None)


def _add_report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("inputs", nargs="+", help="report JSON files")
    p.add_argument("--out", type=Path, default=None)


# every command: its help line and what adds its arguments
_COMMANDS = {
    "validate": ("parse and validate a scenario file", _add_file_args),
    **{
        name: (
            "run every campaign of every scenario; print "
            f"{focus or 'every metric'}, --out writes every metric",
            _add_campaign_args,
        )
        for name, focus in _FOCUS.items()
    },
    "anchors": ("run the built-in regression anchors", _add_anchor_args),
    "report": ("render stored reports into tables", _add_report_args),
}


def _build_parser(commands: Sequence[str]) -> argparse.ArgumentParser:
    """The parser with every command and its help line, but the arguments
    of ``commands`` only: a run parses one command, so the others' are not
    built."""
    parser = argparse.ArgumentParser(
        prog="beamsim",
        description=(
            "Symbol-accurate evaluation of NR mmWave beam management: "
            "initial access, tracking, reporting and link recovery."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name in commands:
            add_args(p)
    return parser


def _resolved_seed(arg_seed: Optional[int], file_seed: int) -> int:
    if arg_seed is not None:
        if arg_seed < 0:
            raise ConfigurationError(f"--seed {arg_seed}: must be non-negative")
        return arg_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigurationError(
                f"{SEED_ENV_VAR}={env!r}: must be an integer"
            ) from None
        if seed < 0:
            raise ConfigurationError(f"{SEED_ENV_VAR}={env!r}: must be non-negative")
        return seed
    return file_seed


def _seed_and_runs(args: argparse.Namespace, sf: ScenarioFile) -> tuple[int, int]:
    seed = _resolved_seed(args.seed, sf.campaign.seed)
    n_runs = args.runs if args.runs is not None else sf.campaign.n_runs
    if n_runs < 1:
        raise ConfigurationError(f"--runs {n_runs}: must be at least 1")
    return seed, n_runs


def _print_effective(sf: ScenarioFile, seed: int, n_runs: int) -> None:
    """Print the effective configuration as ``yaml.dump(doc, Dumper=_DUMPER,
    sort_keys=True, default_flow_style=False)`` would.

    The document has a fixed shape: top-level scalars, and ``scenarios``, a
    list of mappings whose values are scalars or one-level sections. So the
    block is written line by line, and only each distinct value's text
    comes from the dumper: the value is dumped under its own key at its own
    depth, where it starts at the same column and indents its continuation
    lines the same as in the whole document, and the text after ``key:``
    is kept. Within one file the values of one key at one depth differ
    under ``==`` (a sweep rejects repeated values), and the type joins the
    memo key because ``1 == 1.0 == True``.
    """
    doc = {
        "source": sf.source,
        "seed": seed,
        "n_runs": n_runs,
        "horizon_ms": sf.campaign.horizon_ms,
        "scenarios": sf.effective,
    }
    texts: dict[tuple, str] = {}

    def value(depth: int, key: str, v: Any) -> str:
        memo = (depth, key, type(v), v)
        text = texts.get(memo)
        if text is None:
            nested = {key: v}
            prefix = f"{key}:"
            if depth:
                nested = {"s": [nested if depth == 1 else {"x": nested}]}
                prefix = "s:\n- " + ("" if depth == 1 else "x:\n    ") + prefix
            dumped = yaml.dump(
                nested, Dumper=_DUMPER, sort_keys=True, default_flow_style=False
            )
            text = texts[memo] = dumped[len(prefix) :]
        return text

    out = ["# effective configuration\n"]
    for key, v in sorted(doc.items()):
        if key != "scenarios":
            out += (key, ":", value(0, key, v))
            continue
        out.append("scenarios:\n")
        for scenario in v:
            lead = "- "
            for name, section in sorted(scenario.items()):
                if not isinstance(section, dict):
                    out += (lead, name, ":", value(1, name, section))
                else:
                    out += (lead, name, ":\n")
                    for k, x in sorted(section.items()):
                        out += ("    ", k, ":", value(2, k, x))
                lead = "  "
    out.append("# results\n")
    sys.stdout.write("".join(out))


def _metric_lines(r: MetricsReport, focus: Optional[str]) -> list[str]:
    lines = []
    for column in (focus,) if focus else METRIC_COLUMNS:
        field = stat_field(column)
        if field is None:
            text = f"{getattr(r, column):.6g}"
        else:
            stat = getattr(r, field)
            text = f"{stat.mean:.6g} +/- {stat.stderr:.3g}"
        lines.append(f"{r.scenario_id}: {column} = {text}")
    return lines


def _run_campaign(args: argparse.Namespace) -> int:
    focus = _FOCUS[args.command]
    sf = parse_scenario(args.scenario, overrides=args.overrides)
    seed, n_runs = _seed_and_runs(args, sf)
    _print_effective(sf, seed, n_runs)
    reports = [
        estimate_metrics(sc, n_runs=n_runs, seed=seed, horizon_ms=sf.campaign.horizon_ms)
        for sc in sf.scenarios
    ]
    for r in reports:
        for line in _metric_lines(r, focus):
            print(line)
    if args.out is not None:
        basename = args.command if args.command != "sweep" else "reports"
        written = emit(reports, args.out, basename=basename)
        for path in written:
            print(f"wrote {path}")
    return EXIT_OK


def _run_validate(args: argparse.Namespace) -> int:
    sf = parse_scenario(args.scenario, overrides=args.overrides)
    seed, n_runs = _seed_and_runs(args, sf)
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
    if args.out is not None:
        # kiviat may refuse the reports: find out before writing any file
        kiviat = kiviat_normalize(reports)
        payload = {
            "axes": list(kiviat.axes),
            "scenario_ids": list(kiviat.scenario_ids),
            "raw": [list(v) for v in kiviat.raw],
            "values": [list(v) for v in kiviat.values],
        }
        files = {
            **tables,
            "kiviat.json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
            "reports.json": reports_to_json(reports),
        }
    for name, text in tables.items():
        print(f"# {name}")
        print(text.rstrip())
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
            print(f"wrote {out / name}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv[:1]).parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error (exit 2) or the help or
        # version (exit 0)
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        if args.command == "validate":
            return _run_validate(args)
        if args.command in _FOCUS:
            return _run_campaign(args)
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
