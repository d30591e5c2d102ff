"""Byte-stable report serialization and summary tables.

CSV cells render numbers with 6 significant digits; JSON keeps full
float precision so a re-loaded report compares equal to the original.
Neither format embeds timestamps or environment details, so reruns at
the same seed produce identical bytes.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import fields
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


def _column_value(r: MetricsReport, column: str) -> Any:
    field = stat_field(column)
    return getattr(r, column) if field is None else getattr(r, field).mean


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.6g}"
    return str(value)


def report_csv_row(r: MetricsReport) -> list[str]:
    return [_fmt(_column_value(r, c)) for c in CSV_COLUMNS]


def _to_csv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def reports_to_csv(reports: Sequence[MetricsReport]) -> str:
    return _to_csv(CSV_COLUMNS, map(report_csv_row, reports))


def _report_dict(r: MetricsReport) -> dict[str, Any]:
    """``dataclasses.asdict(r)`` without its deep copies: the fields are
    immutable, and each ``MetricStat`` becomes a dict of its own."""
    return {
        name: vars(value) if isinstance(value, MetricStat) else value
        for name, value in vars(r).items()
    }


def reports_to_json(reports: Sequence[MetricsReport]) -> str:
    payload = {"reports": [_report_dict(r) for r in reports]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_JSON_FIELD_TYPES = {"str": (str,), "int": (int,), "float": (int, float)}


def _check_field_types(obj: Any, path: str) -> None:
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "MetricStat":
            _check_field_types(value, f"{path}.{f.name}")
        elif isinstance(value, bool) or not isinstance(value, _JSON_FIELD_TYPES[f.type]):
            raise ConfigurationError(
                f"report JSON: {path}.{f.name}: expected {f.type}, got {value!r}"
            )


def reports_from_json(text: str) -> list[MetricsReport]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"not valid report JSON: {exc}") from None
    except RecursionError:
        raise ConfigurationError("not valid report JSON: nested too deeply") from None
    if not isinstance(payload, dict) or "reports" not in payload:
        raise ConfigurationError("report JSON must be {'reports': [...]}")
    if not isinstance(payload["reports"], list):
        raise ConfigurationError("report JSON: 'reports' must be a list")
    out = []
    for i, item in enumerate(payload["reports"]):
        try:
            kwargs = dict(item)
            for field in filter(None, map(stat_field, METRIC_COLUMNS)):
                kwargs[field] = MetricStat(**kwargs[field])
            report = MetricsReport(**kwargs)
        except KeyError as exc:
            raise ConfigurationError(
                f"report JSON: reports[{i}] lacks field {exc.args[0]!r}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"report JSON: reports[{i}] is not a report: {exc}"
            ) from None
        _check_field_types(report, f"reports[{i}]")
        out.append(report)
    return out


def emit(reports: Sequence[MetricsReport], out_dir: str | Path) -> list[Path]:
    """Write ``reports.csv`` and ``reports.json``; returns their paths."""
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
            cells += ["" if r is None else _fmt(_column_value(r, m)) for m in metrics]
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
