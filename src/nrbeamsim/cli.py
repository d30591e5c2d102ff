"""Command line interface.

Commands: ``validate`` checks a scenario file; ``sweep`` runs every
campaign of every scenario, prints every metric, and with ``--out``
writes ``reports.csv`` and ``reports.json``; ``anchors`` checks the
built-in closed-form anchors; ``report`` renders stored reports into
tables.

Exit codes: 0 success, 1 usage, configuration or validation error,
2 anchor failure, 3 I/O error. ``validate`` and ``sweep`` print the
effective configuration (after defaults, overrides and sweep expansion)
before any results, and all file output is byte-stable for a fixed seed.

A run does only the work its output needs: a known command is parsed by
a parser built for it alone, and the top-level parser, which lists each
command's help line, serves only ``-h``, ``--version`` and a missing or
unknown command. The effective configuration writes numbers, bools and
null as the safe representer gives them, and takes the text of its
strings from one YAML dump per nesting depth.
"""
from __future__ import annotations

import argparse
import json
import math
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


# every command: its help line and what adds its arguments
_COMMANDS = {
    "validate": ("parse and validate a scenario file", _add_file_args),
    "sweep": (
        "run every campaign of every scenario; print every metric, "
        "--out writes reports.csv and reports.json",
        _add_sweep_args,
    ),
    "anchors": ("check the built-in closed-form anchors", _add_anchor_args),
    "report": ("render stored reports into tables", _add_report_args),
}


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser: every command with its help line and none of
    its arguments. It serves ``-h``, ``--version`` and a missing or
    unknown command; a known command is parsed by `_command_parser`."""
    parser = argparse.ArgumentParser(
        prog="beamsim",
        description=(
            "Symbol-accurate evaluation of NR mmWave beam management: "
            "initial access, tracking, reporting and link recovery."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command ``name`` alone: the parser that the top-level
    parser's subcommand would be, with the same arguments and help."""
    parser = argparse.ArgumentParser(prog=f"beamsim {name}")
    _COMMANDS[name][1](parser)
    return parser


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


# how the block nests a value of each depth, as the text before the value's
# key: the top-level mapping, a scenario's own key, a section's key
_LEADS = ("", "- ", "- x:\n    ")


def _plain(v: Any) -> Optional[str]:
    """The text that the safe representer gives a bool, None, int or float,
    which the emitter writes as a plain scalar; None for any other value."""
    kind = type(v)
    if kind is int:
        return int.__repr__(v)
    if kind is float:
        if v != v:
            return ".nan"
        if v in (math.inf, -math.inf):
            return ".inf" if v > 0 else "-.inf"
        text = float.__repr__(v).lower()
        # 1e+17 is no YAML float; 1.0e+17 is
        return text.replace("e", ".0e", 1) if "." not in text and "e" in text else text
    if kind is bool:
        return "true" if v else "false"
    return "null" if v is None else None


def _value_texts(depth: int, items: Sequence[tuple]) -> dict[tuple, str]:
    """The text after ``key:`` of each ``(depth, key, type, value)`` item:
    its plain scalar (`_plain`), or else its text from one dump of all such
    items.

    Each value is dumped under its own key at its own depth, where it
    starts at the same column and indents its continuation lines as in
    the whole document: the top-level items, whose keys differ and come in
    sorted order, are one mapping, the others a list of one-key mappings.
    A value's lines after its first are indented, so its text ends where
    the next item's lead and key begin a line.
    """
    texts = {}
    dumped_items = []
    for item in items:
        plain = _plain(item[3])
        if plain is None:
            dumped_items.append(item)
        else:
            texts[item] = f" {plain}\n"
    if not dumped_items:
        return texts
    items = dumped_items
    if depth == 0:
        doc: Any = {key: v for _, key, _, v in items}
    else:
        doc = {"s": [{k: v} if depth == 1 else {"x": {k: v}} for _, k, _, v in items]}
    dumped = yaml.dump(doc, Dumper=_DUMPER, sort_keys=True, default_flow_style=False)
    heads = [f"{_LEADS[depth]}{key}:" for _, key, _, _ in items]
    pos = 0 if depth == 0 else len("s:\n")
    for i, item in enumerate(items):
        start = pos + len(heads[i])
        last = i + 1 == len(items)
        pos = len(dumped) if last else dumped.index("\n" + heads[i + 1], start) + 1
        texts[item] = dumped[start:pos]
    return texts


def _print_effective(sf: ScenarioFile) -> None:
    """Print the effective configuration as ``yaml.dump(doc, Dumper=_DUMPER,
    sort_keys=True, default_flow_style=False)`` would.

    The document has a fixed shape: top-level scalars, and ``scenarios``, a
    list of mappings whose values are scalars or one-level sections. So the
    block is written line by line, and only the values' texts come from
    the dumper: the distinct ``(depth, key, type, value)`` items are
    collected first and each depth's are rendered by one dump
    (`_value_texts`). Within one file the values of one key at one depth
    differ under ``==`` (a sweep rejects repeated values), and the type
    joins the item because ``1 == 1.0 == True``. Sections with equal
    items of equal types have the same lines, which are written once.
    """
    doc = {"source": sf.source, **vars(sf.campaign), "scenarios": sf.effective}
    # the block's pieces, each value as its item and each section's lines
    # as the key of their text; the items of each depth in first-seen order
    out: list[Any] = ["# effective configuration\n"]
    items: tuple[dict, ...] = ({}, {}, {})
    # each distinct section's key, by its items and their types, and its
    # lines by key
    keys: dict[tuple, tuple] = {}
    lines: dict[tuple, list] = {}

    def value(depth: int, key: str, v: Any) -> tuple:
        item = (depth, key, type(v), v)
        items[depth][item] = None
        return item

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
                    shape = (*section.items(), *map(type, section.values()))
                    ref = keys.get(shape)
                    if ref is None:
                        ref = keys[shape] = ("section", len(keys))
                        lines[ref] = []
                        for k, x in sorted(section.items()):
                            lines[ref] += ("    ", k, ":", value(2, k, x))
                    out += (lead, name, ":\n", ref)
                lead = "  "
    out.append("# results\n")
    texts: dict[tuple, str] = {}
    for depth, distinct in enumerate(items):
        texts.update(_value_texts(depth, list(distinct)))
    for ref, pieces in lines.items():
        texts[ref] = "".join(texts[p] if isinstance(p, tuple) else p for p in pieces)
    sys.stdout.write("".join(texts[p] if isinstance(p, tuple) else p for p in out))


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
    results = run_anchors()
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
    command = argv[0] if argv else None
    try:
        if command in _COMMANDS:
            args = _command_parser(command).parse_args(argv[1:])
        else:
            parser = _build_parser()
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
        if command == "validate":
            return _run_validate(args)
        if command == "sweep":
            return _run_sweep(args)
        if command == "anchors":
            return _run_anchors(args)
        if command == "report":
            return _run_report(args)
        raise AssertionError(f"unhandled command {command!r}")
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
