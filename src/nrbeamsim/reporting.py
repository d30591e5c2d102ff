"""Byte-stable report serialization and summary tables.

CSV cells render numbers with 6 significant digits; JSON keeps full
float precision so a re-loaded report compares equal to the original.
Neither format embeds timestamps or environment details, so reruns at
the same seed produce identical bytes. A `MetricsReport` checks its own
values, so the JSON reader checks only the shape of what it reads.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from .errors import ConfigurationError
from .evaluation import MetricStat, MetricsReport

# the report's metrics in report order; every consumer reads this table
METRIC_COLUMNS = (
    "t_ia_ms",
    "t_tr_ms",
    "t_br_ms",
    "t_rlf_ms",
    "omega_ia",
    "omega_tr",
    "omega_br",
    "accuracy",
    "p_c_w",
)

CSV_COLUMNS = (
    "scenario_id",
    "mode",
    "m_gnb",
    "m_ue",
    "arch_gnb",
    "arch_ue",
    "n",
    "n_ss",
    "t_ss_ms",
    "t_csi_slots",
    *METRIC_COLUMNS,
    "seed",
    "n_runs",
)


def stat_field(column: str) -> Optional[str]:
    """``t_x`` for a delay metric column ``t_x_ms``, which holds the mean
    of the report's ``MetricStat`` field ``t_x``; None for any other
    column, which holds the report field of its own name."""
    if column in METRIC_COLUMNS and column.endswith("_ms"):
        return column[: -len("_ms")]
    return None


# each column's getter of its value from a report
_COLUMN_VALUE = {
    c: attrgetter(c if stat_field(c) is None else f"{stat_field(c)}.mean")
    for c in CSV_COLUMNS
}


def _fmt(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_csv_row(r: MetricsReport) -> list[str]:
    return [_fmt(value(r)) for value in _COLUMN_VALUE.values()]


def _to_csv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def reports_to_csv(reports: Sequence[MetricsReport]) -> str:
    return _to_csv(CSV_COLUMNS, map(report_csv_row, reports))


def reports_to_json(reports: Sequence[MetricsReport]) -> str:
    items = [{k: vars(v) if isinstance(v, MetricStat) else v for k, v in vars(r).items()}
             for r in reports]
    return json.dumps({"reports": items}, indent=2, sort_keys=True) + "\n"


def _from_json_object(cls: type, item: Any, path: str) -> Any:
    """The ``cls`` dataclass that JSON value ``item`` at ``path`` holds;
    every error names the path of what is wrong."""
    if not isinstance(item, dict):
        raise ConfigurationError(f"report JSON: {path} is not an object")
    kwargs = {}
    for f in fields(cls):
        if f.name not in item:
            raise ConfigurationError(f"report JSON: {path} lacks field {f.name!r}")
        value = item[f.name]
        if f.type == "MetricStat":
            value = _from_json_object(MetricStat, value, f"{path}.{f.name}")
        kwargs[f.name] = value
    for key in item:
        if key not in kwargs:
            raise ConfigurationError(f"report JSON: {path} has unknown field {key!r}")
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"report JSON: {path}: {exc}") from None


def reports_from_json(text: str) -> list[MetricsReport]:
    try:
        payload = json.loads(text)
    except ValueError as exc:  # bad JSON, or an int past the digit limit
        problem = str(exc).partition("; use")[0]
        raise ConfigurationError(f"not valid report JSON: {problem}") from None
    except RecursionError:
        raise ConfigurationError("not valid report JSON: nested too deeply") from None
    if not isinstance(payload, dict) or "reports" not in payload:
        raise ConfigurationError("report JSON must be {'reports': [...]}")
    if not isinstance(payload["reports"], list):
        raise ConfigurationError("report JSON: 'reports' must be a list")
    # json reads NaN and Infinity, and 1e999 as inf, which RFC 8259 has
    # not: a report refuses them
    return [
        _from_json_object(MetricsReport, item, f"reports[{i}]")
        for i, item in enumerate(payload["reports"])
    ]


def emit(reports: Sequence[MetricsReport], out_dir: str | Path) -> list[Path]:
    """Write ``reports.csv`` and ``reports.json``; returns their paths.
    A report holds only finite numbers, so both formats hold every one."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out / "reports.csv", out / "reports.json"
    csv_path.write_text(reports_to_csv(reports), encoding="utf-8")
    json_path.write_text(reports_to_json(reports), encoding="utf-8")
    return [csv_path, json_path]


def _pivot(
    reports: Sequence[MetricsReport],
    rows: Sequence[str],
    groups: Sequence[str],
    metrics: Sequence[str],
    label: str,
) -> str:
    """A CSV table of ``metrics`` with one row per distinct value of the
    report fields ``rows`` and one column per metric and distinct value of
    the fields ``groups``, headed ``metric[label]`` with the group's
    values formatted into ``label``. Rows and groups are sorted; the first
    matching report in input order fills a cell, and a cell that no
    report matches stays empty."""
    first: dict[tuple, MetricsReport] = {}
    for r in reports:
        key = tuple(getattr(r, f) for f in rows), tuple(getattr(r, f) for f in groups)
        first.setdefault(key, r)
    row_keys = sorted({row for row, _ in first})
    group_keys = sorted({group for _, group in first})
    header = [*rows] + [f"{m}[{label.format(*g)}]" for g in group_keys for m in metrics]
    body = []
    for row in row_keys:
        cells = [str(v) for v in row]
        for g in group_keys:
            r = first.get((row, g))
            cells += ["" if r is None else _fmt(_COLUMN_VALUE[m](r)) for m in metrics]
        body.append(cells)
    return _to_csv(header, body)


def reporting_delay_table(reports: Sequence[MetricsReport]) -> str:
    """Mean reporting delay by gNB array size, SA bars vs NSA lines."""
    return _pivot(reports, ("m_gnb",), ("mode", "n_ss"), ("t_br_ms",), "{} n_ss={}")


def power_overhead_table(reports: Sequence[MetricsReport]) -> str:
    """Reporting overhead and power draw by gNB size and architecture."""
    return _pivot(
        reports, ("m_gnb",), ("mode", "arch_gnb"), ("omega_br", "p_c_w"), "{} {}"
    )


def recovery_delay_table(reports: Sequence[MetricsReport]) -> str:
    """Mean link-recovery delay by array pair and burst configuration."""
    return _pivot(
        reports,
        ("m_gnb", "m_ue"),
        ("mode", "n_ss", "t_ss_ms", "arch_gnb", "arch_ue"),
        ("t_rlf_ms",),
        "{} n_ss={} t_ss={:g} {}/{}",
    )
