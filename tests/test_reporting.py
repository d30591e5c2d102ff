from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_scenario
from nrbeamsim.errors import ConfigurationError
from nrbeamsim.evaluation import (
    CampaignSettings,
    MetricStat,
    MetricsReport,
    _tracking_stats,
    estimate_metrics,
)
from nrbeamsim.procedures import tracking_plan
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
    return estimate_metrics(sc, CampaignSettings(n_runs=60, seed=3))


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

    def test_a_nan_delay_is_refused(self):
        # 64 x 16 analog: some directions have no CSI-RS occasion, and the
        # one tracking run at seed 1 draws one of them, so t_tr has no wait;
        # the report refuses the NaN stat when it is built, so no CSV shows it
        sc = make_scenario(m_gnb=64, m_ue=16)
        campaign = CampaignSettings(n_runs=1, seed=1)
        t_tr, censored = _tracking_stats(tracking_plan(sc), campaign)
        assert math.isnan(t_tr.mean) and censored == campaign.n_runs
        message = rf"^scenario {sc.scenario_id}: t_tr\.mean=nan: must be finite$"
        with pytest.raises(ConfigurationError, match=message):
            estimate_metrics(sc, campaign)

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

    def test_an_int_in_a_float_field_loads_as_a_float(self):
        payload = json.loads(reports_to_json([tiny_report()]))
        payload["reports"][0]["t_ia"]["mean"] = 7
        payload["reports"][0]["p_c_w"] = 2
        (loaded,) = reports_from_json(json.dumps(payload))
        assert type(loaded.t_ia.mean) is float and loaded.t_ia.mean == 7.0
        assert type(loaded.p_c_w) is float and loaded.p_c_w == 2.0
        assert type(loaded.t_ia.n_samples) is int

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
        "field,value,refusal",
        [
            ("m_gnb", None, "m_gnb=None: must be an integer"),
            ("scenario_id", 7, "scenario_id=7: must be a string"),
            ("accuracy", True, "accuracy=True: must be a real number"),
            ("t_ia", {"mean": "abc", "stderr": 0.1, "n_samples": 5},
             "t_ia.mean='abc': must be a real number"),
        ],
    )
    def test_field_types_are_checked(self, field, value, refusal):
        # by the report's own domains, as it is built
        payload = json.loads(reports_to_json([tiny_report()]))
        payload["reports"][0][field] = value
        sid = payload["reports"][0]["scenario_id"]
        message = f"report JSON: reports[0]: scenario {sid}: {refusal}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            reports_from_json(json.dumps(payload))

    def test_a_report_without_its_censored_count_is_refused(self):
        # the count once defaulted to 0, so such an entry loaded as a
        # campaign that censored no run
        report = tiny_report(m_ue=16)
        assert report.censored_tracking > 0
        payload = json.loads(reports_to_json([report]))
        del payload["reports"][0]["censored_tracking"]
        with pytest.raises(ConfigurationError, match=r"reports\[0\].*censored_tracking"):
            reports_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda rs: rs[0].pop("m_gnb"), "reports[0] lacks field 'm_gnb'"),
            (lambda rs: rs[0].update(extra=1), "reports[0] has unknown field 'extra'"),
            (lambda rs: rs[0]["t_ia"].pop("stderr"), "reports[0].t_ia lacks field 'stderr'"),
            (
                lambda rs: rs[0]["t_tr"].update(bogus=0),
                "reports[0].t_tr has unknown field 'bogus'",
            ),
            (lambda rs: rs[0].update(t_br=[1.0, 0.1, 5]), "reports[0].t_br is not an object"),
            (lambda rs: rs.append(5), "reports[1] is not an object"),
        ],
        ids=[
            "missing", "unknown", "stat-missing", "stat-unknown", "stat-not-object",
            "not-object",
        ],
    )
    def test_field_errors_name_their_path(self, edit, message):
        payload = json.loads(reports_to_json([tiny_report()]))
        edit(payload["reports"])
        with pytest.raises(ConfigurationError, match=f"^report JSON: {re.escape(message)}$"):
            reports_from_json(json.dumps(payload))

    def test_trailing_newline(self):
        assert reports_to_json([]).endswith("\n")


# report values that stress the JSON writer: NaN and the infinities, which
# a report refuses as json.dumps(allow_nan=False) does, signed zero, the
# smallest and a huge float, ints past 64 bits, and ids with quotes,
# backslashes, control, non-ASCII and lone surrogate characters
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 1e16]),
)
_INTS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1, 10**40]),
)
_IDS = st.lists(
    st.one_of(
        st.text(max_size=8),
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\xe9", "中", "\ud800"]),
    ),
    max_size=6,
).map("".join)
# a report's fields as JSON holds them, each stat as an object
_STAT_ITEMS = st.fixed_dictionaries(dict(mean=_FLOATS, stderr=_FLOATS, n_samples=_INTS))
_REPORT_ITEMS = st.fixed_dictionaries(
    {
        f.name: {"str": st.text(max_size=4), "int": _INTS, "float": _FLOATS}.get(
            f.type, _STAT_ITEMS
        )
        for f in dataclasses.fields(MetricsReport)
    }
    | {"scenario_id": _IDS}
)


def _report(item: dict) -> MetricsReport:
    return MetricsReport(
        **{k: MetricStat(**v) if isinstance(v, dict) else v for k, v in item.items()}
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(items=st.lists(_REPORT_ITEMS, max_size=3))
@example(items=[])
def test_json_is_the_bytes_of_json_dumps(items):
    try:
        expected = json.dumps({"reports": items}, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        # a non-finite value: no report holds it
        with pytest.raises(ConfigurationError, match=": must be finite$"):
            list(map(_report, items))
        return
    assert reports_to_json(list(map(_report, items))) == expected + "\n"


class TestEmit:
    def test_writes_both_formats(self, tmp_path):
        paths = emit([tiny_report()], tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["reports.csv", "reports.json"]
        for p in paths:
            assert p.read_text(encoding="utf-8")

    def test_a_nan_writes_neither_file(self, tmp_path):
        # the stat of test_a_nan_delay_is_refused: the report that would
        # hold it is refused before emit is called
        good = tiny_report()
        nan = MetricStat(mean=math.nan, stderr=math.nan, n_samples=0)
        message = rf"^scenario {good.scenario_id}: t_tr\.mean=nan: must be finite$"
        with pytest.raises(ConfigurationError, match=message):
            emit([good, dataclasses.replace(good, t_tr=nan)], tmp_path / "out")
        assert not (tmp_path / "out").exists()

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
