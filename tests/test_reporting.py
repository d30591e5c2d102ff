from __future__ import annotations

import csv
import io
import json

import pytest

from conftest import make_scenario
from nrbeamsim.errors import ConfigurationError
from nrbeamsim.evaluation import MetricStat, MetricsReport, estimate_metrics
from nrbeamsim.reporting import (
    CSV_COLUMNS,
    emit,
    power_overhead_table,
    recovery_delay_table,
    reporting_delay_table,
    reports_from_json,
    reports_to_csv,
    reports_to_json,
)


def tiny_report(**kw) -> MetricsReport:
    sc = make_scenario(**kw)
    return estimate_metrics(sc, n_runs=60, seed=3)


class TestCsv:
    def test_header_is_pinned(self):
        text = reports_to_csv([tiny_report()])
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert header.startswith("scenario_id,mode,m_gnb,m_ue")
        assert header.endswith("seed,n_runs")

    def test_one_row_per_report(self):
        reports = [tiny_report(), tiny_report(n_ss=8)]
        rows = list(csv.reader(io.StringIO(reports_to_csv(reports))))
        assert len(rows) == 3
        assert all(len(r) == len(CSV_COLUMNS) for r in rows)

    def test_six_significant_digits(self):
        rep = tiny_report()
        rows = list(csv.DictReader(io.StringIO(reports_to_csv([rep]))))
        cell = rows[0]["t_ia_ms"]
        assert cell == f"{rep.t_ia.mean:.6g}"

    def test_byte_stable(self):
        a = reports_to_csv([tiny_report()])
        b = reports_to_csv([tiny_report()])
        assert a == b
        assert "\r" not in a


class TestJsonRoundTrip:
    def test_reload_compares_equal(self):
        reports = [tiny_report(), tiny_report(mode="NSA", lte_latency_ms=0.8)]
        loaded = reports_from_json(reports_to_json(reports))
        assert loaded == reports

    def test_full_precision_survives(self):
        rep = tiny_report()
        (loaded,) = reports_from_json(reports_to_json([rep]))
        assert loaded.t_ia.mean == rep.t_ia.mean
        assert loaded.t_ia.stderr == rep.t_ia.stderr

    def test_stat_objects_reconstructed(self):
        (loaded,) = reports_from_json(reports_to_json([tiny_report()]))
        assert isinstance(loaded.t_rlf, MetricStat)

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            reports_from_json("{not json")
        with pytest.raises(ConfigurationError, match="reports"):
            reports_from_json('{"rows": []}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"reports": [{"x": 1}]}',
            '{"reports": [5]}',
            '{"reports": 5}',
            '{"reports": [{"t_ia": {"mean": 1.0}}]}',
        ],
    )
    def test_schema_errors_are_config_errors(self, text):
        with pytest.raises(ConfigurationError, match="report JSON"):
            reports_from_json(text)

    @pytest.mark.parametrize(
        "field,value,path",
        [
            ("m_gnb", None, r"reports\[0\]\.m_gnb: expected int"),
            ("scenario_id", 7, r"reports\[0\]\.scenario_id: expected str"),
            ("accuracy", True, r"reports\[0\]\.accuracy: expected float"),
            ("t_ia", {"mean": "abc", "stderr": 0.1, "n_samples": 5},
             r"reports\[0\]\.t_ia\.mean: expected float"),
        ],
    )
    def test_field_types_are_checked(self, field, value, path):
        payload = json.loads(reports_to_json([tiny_report()]))
        payload["reports"][0][field] = value
        with pytest.raises(ConfigurationError, match=path):
            reports_from_json(json.dumps(payload))

    def test_trailing_newline(self):
        assert reports_to_json([]).endswith("\n")


class TestEmit:
    def test_writes_both_formats(self, tmp_path):
        paths = emit([tiny_report()], tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["reports.csv", "reports.json"]
        for p in paths:
            assert p.read_text(encoding="utf-8")

    def test_reruns_are_byte_identical(self, tmp_path):
        a = emit([tiny_report()], tmp_path / "a")
        b = emit([tiny_report()], tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()


class TestSummaryTables:
    def _reports(self):
        return [
            tiny_report(m_gnb=16, n_ss=8),
            tiny_report(m_gnb=64, n_ss=8),
            tiny_report(m_gnb=64, n_ss=8, mode="NSA", lte_latency_ms=10.0),
        ]

    def test_reporting_table_shape(self):
        text = reporting_delay_table(self._reports())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["m_gnb", "t_br_ms[NSA n_ss=8]", "t_br_ms[SA n_ss=8]"]
        assert [r[0] for r in rows[1:]] == ["16", "64"]
        # the 16-element report has no NSA twin: empty cell
        assert rows[1][1] == ""
        assert rows[2][1] == "10"

    def test_power_table_pairs_columns(self):
        text = power_overhead_table(self._reports())
        header = text.splitlines()[0]
        assert "omega_br[SA analog]" in header
        assert "p_c_w[SA analog]" in header
        assert "omega_br[NSA analog]" in header

    def test_recovery_table_keyed_by_pair(self):
        text = recovery_delay_table(self._reports())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0:2] == ["m_gnb", "m_ue"]
        assert [r[0:2] for r in rows[1:]] == [["16", "1"], ["64", "1"]]
