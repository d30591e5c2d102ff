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
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from .errors import ConfigurationError
from .evaluation import MetricStat, MetricsReport
from .frame import Timeline

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
    "t_ia_ms",
    "t_tr_ms",
    "t_br_ms",
    "t_rlf_ms",
    "omega_ia",
    "omega_tr",
    "omega_br",
    "accuracy",
    "p_c_w",
    "seed",
    "n_runs",
)


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.6g}"
    return str(value)


def report_csv_row(r: MetricsReport) -> list[str]:
    values: dict[str, Any] = {
        "scenario_id": r.scenario_id,
        "mode": r.mode,
        "m_gnb": r.m_gnb,
        "m_ue": r.m_ue,
        "arch_gnb": r.arch_gnb,
        "arch_ue": r.arch_ue,
        "n": r.n,
        "n_ss": r.n_ss,
        "t_ss_ms": r.t_ss_ms,
        "t_csi_slots": r.t_csi_slots,
        "t_ia_ms": r.t_ia.mean,
        "t_tr_ms": r.t_tr.mean,
        "t_br_ms": r.t_br.mean,
        "t_rlf_ms": r.t_rlf.mean,
        "omega_ia": r.omega_ia,
        "omega_tr": r.omega_tr,
        "omega_br": r.omega_br,
        "accuracy": r.accuracy,
        "p_c_w": r.p_c_w,
        "seed": r.seed,
        "n_runs": r.n_runs,
    }
    return [_fmt(values[c]) for c in CSV_COLUMNS]


def reports_to_csv(reports: Sequence[MetricsReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in reports:
        w.writerow(report_csv_row(r))
    return buf.getvalue()


def reports_to_json(reports: Sequence[MetricsReport]) -> str:
    payload = {"reports": [asdict(r) for r in reports]}
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
    if not isinstance(payload, dict) or "reports" not in payload:
        raise ConfigurationError("report JSON must be {'reports': [...]}")
    if not isinstance(payload["reports"], list):
        raise ConfigurationError("report JSON: 'reports' must be a list")
    out = []
    for i, item in enumerate(payload["reports"]):
        try:
            kwargs = dict(item)
            for stat_key in ("t_ia", "t_tr", "t_br", "t_rlf"):
                kwargs[stat_key] = MetricStat(**kwargs[stat_key])
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


def emit(
    reports: Sequence[MetricsReport],
    out_dir: str | Path,
    formats: Iterable[str] = ("csv", "json"),
    basename: str = "reports",
) -> list[Path]:
    """Write the reports in the requested formats; returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt == "csv":
            path = out / f"{basename}.csv"
            path.write_text(reports_to_csv(reports), encoding="utf-8")
        elif fmt == "json":
            path = out / f"{basename}.json"
            path.write_text(reports_to_json(reports), encoding="utf-8")
        else:
            raise ConfigurationError(f"unknown emit format {fmt!r} (csv, json)")
        written.append(path)
    return written


def timeline_to_dict(tl: Timeline) -> dict[str, Any]:
    """Timeline as a plain JSON-ready mapping."""
    return {
        "horizon_symbols": tl.horizon_symbols,
        "symbol_us": tl.symbol_us,
        "burst_period_symbols": tl.burst_period_symbols,
        "events": [
            {
                "start_symbol": e.start_symbol,
                "duration_symbols": e.duration_symbols,
                "kind": e.kind.value,
                "gnb_beam": e.gnb_beam,
                "ue_beam": e.ue_beam,
                "rb_start": e.rb_start,
                "rb_count": e.rb_count,
            }
            for e in tl.events
        ],
    }


def _cell(v: Optional[float]) -> str:
    return "" if v is None else _fmt(v)


def reporting_delay_table(reports: Sequence[MetricsReport]) -> str:
    """Mean reporting delay by gNB array size, SA bars vs NSA lines.

    Columns: one per (mode, n_ss) present; rows sorted by m_gnb.
    """
    combos = sorted({(r.mode, r.n_ss) for r in reports})
    sizes = sorted({r.m_gnb for r in reports})
    header = ["m_gnb"] + [f"t_br_ms[{mode} n_ss={n}]" for mode, n in combos]
    rows = []
    for m in sizes:
        row: list[str] = [str(m)]
        for combo in combos:
            match = [
                r for r in reports if r.m_gnb == m and (r.mode, r.n_ss) == combo
            ]
            row.append(_cell(match[0].t_br.mean if match else None))
        rows.append(row)
    return _to_csv(header, rows)


def power_overhead_table(reports: Sequence[MetricsReport]) -> str:
    """Reporting overhead and power draw by gNB size and architecture."""
    archs = sorted({(r.mode, r.arch_gnb) for r in reports})
    sizes = sorted({r.m_gnb for r in reports})
    header = ["m_gnb"]
    for mode, arch in archs:
        header.append(f"omega_br[{mode} {arch}]")
        header.append(f"p_c_w[{mode} {arch}]")
    rows = []
    for m in sizes:
        row = [str(m)]
        for mode, arch in archs:
            match = [
                r
                for r in reports
                if r.m_gnb == m and r.mode == mode and r.arch_gnb == arch
            ]
            row.append(_cell(match[0].omega_br if match else None))
            row.append(_cell(match[0].p_c_w if match else None))
        rows.append(row)
    return _to_csv(header, rows)


def recovery_delay_table(reports: Sequence[MetricsReport]) -> str:
    """Mean link-recovery delay by array pair and burst configuration."""
    combos = sorted(
        {
            (r.mode, r.n_ss, r.t_ss_ms, r.arch_gnb, r.arch_ue)
            for r in reports
        }
    )
    pairs = sorted({(r.m_gnb, r.m_ue) for r in reports})
    header = ["m_gnb", "m_ue"] + [
        f"t_rlf_ms[{mode} n_ss={n} t_ss={t:g} {ag}/{au}]"
        for mode, n, t, ag, au in combos
    ]
    rows = []
    for m_g, m_u in pairs:
        row = [str(m_g), str(m_u)]
        for mode, n, t, ag, au in combos:
            match = [
                r
                for r in reports
                if (r.m_gnb, r.m_ue) == (m_g, m_u)
                and (r.mode, r.n_ss, r.t_ss_ms, r.arch_gnb, r.arch_ue)
                == (mode, n, t, ag, au)
            ]
            row.append(_cell(match[0].t_rlf.mean if match else None))
        rows.append(row)
    return _to_csv(header, rows)


def _to_csv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()
