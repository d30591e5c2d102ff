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
from json.encoder import encode_basestring_ascii
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
    # a NaN float reads "nan"; a bool is no float
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
    check_finite(reports)
    return _to_csv(CSV_COLUMNS, map(report_csv_row, reports))


# how json.dumps writes a value of each type: the escaped string,
# int.__repr__ and float.__repr__
_JSON_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__}


def _fields_in_json_order(cls: type, indent: str) -> tuple[tuple[str, str], ...]:
    """Each field of dataclass ``cls`` in sorted order, with the text that
    starts its line at ``indent``."""
    names = sorted(f.name for f in fields(cls))
    return tuple((n, f"{indent}{encode_basestring_ascii(n)}: ") for n in names)


_REPORT_KEYS = _fields_in_json_order(MetricsReport, " " * 6)
_STAT_KEYS = _fields_in_json_order(MetricStat, " " * 8)


# each float of a report by its dotted name, in JSON order ("." sorts
# before any character of a name)
_FLOAT_FIELDS = sorted(
    f.name if f.type == "float" else f"{f.name}.{stat}"
    for f in fields(MetricsReport)
    for stat in {"float": ("",), "MetricStat": ("mean", "stderr")}.get(f.type, ())
)
_FLOAT_VALUES = attrgetter(*_FLOAT_FIELDS)


def check_finite(reports: Iterable[MetricsReport]) -> None:
    """Refuse the first NaN or infinite float of ``reports``, in JSON
    order, naming its scenario and field: no output shows one."""
    for r in reports:
        for field, value in zip(_FLOAT_FIELDS, _FLOAT_VALUES(r)):
            if type(value) is float and not math.isfinite(value):
                raise ConfigurationError(
                    f"scenario {r.scenario_id}: {field} is {value}, which JSON "
                    f"cannot hold; no report file is written"
                )


def _report_json(r: MetricsReport) -> str:
    def text(value: Any) -> str:
        return _JSON_TEXT.get(type(value), json.dumps)(value)

    lines = []
    for name, head in _REPORT_KEYS:
        value = getattr(r, name)
        if isinstance(value, MetricStat):
            stat = ",\n".join(h + text(getattr(value, n)) for n, h in _STAT_KEYS)
            lines.append(f"{head}{{\n{stat}\n      }}")
        else:
            lines.append(head + text(value))
    return "    {\n" + ",\n".join(lines) + "\n    }"


def reports_to_json(reports: Sequence[MetricsReport]) -> str:
    """The bytes of ``json.dumps({"reports": [...]}, indent=2,
    sort_keys=True) + "\n"``, with each report a dict of its fields and
    each ``MetricStat`` a dict of its own.

    The payload has a fixed shape, so it is written line by line from the
    primitives that ``json.dumps`` writes its values with, not by the
    pure-Python encoder that its ``indent`` takes. A NaN or infinite float
    is refused by `check_finite`, as ``allow_nan=False`` refuses it.
    """
    check_finite(reports)
    if not reports:
        return '{\n  "reports": []\n}\n'
    body = ",\n".join(map(_report_json, reports))
    return f'{{\n  "reports": [\n{body}\n  ]\n}}\n'


_JSON_FIELD_TYPES = {"str": (str,), "int": (int,), "float": (int, float)}


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
        elif isinstance(value, bool) or not isinstance(value, _JSON_FIELD_TYPES[f.type]):
            raise ConfigurationError(
                f"report JSON: {path}.{f.name}: expected {f.type}, got {value!r}"
            )
        kwargs[f.name] = value
    for key in item:
        if key not in kwargs:
            raise ConfigurationError(f"report JSON: {path} has unknown field {key!r}")
    return cls(**kwargs)


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
    return [
        _from_json_object(MetricsReport, item, f"reports[{i}]")
        for i, item in enumerate(payload["reports"])
    ]


def emit(reports: Sequence[MetricsReport], out_dir: str | Path) -> list[Path]:
    """Write ``reports.csv`` and ``reports.json``; returns their paths.
    Reports that JSON cannot hold write neither file."""
    json_text = reports_to_json(reports)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out / "reports.csv", out / "reports.json"
    csv_path.write_text(reports_to_csv(reports), encoding="utf-8")
    json_path.write_text(json_text, encoding="utf-8")
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
