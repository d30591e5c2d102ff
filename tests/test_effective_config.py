"""The effective configuration every CLI run prints before its results.

``cli._print_effective`` cuts the block from one dump, by ``cli._DUMPER``
(libyaml's C emitter when PyYAML has it), of a document that holds each
distinct top-level value, scenario scalar and config section once. Under
either dumper the block must equal what that dumper writes for the whole
document, byte for byte, for any scenario id and source path, with one
dump per block. On the benchmark workloads the C emitter's
text must also equal the Python emitter's. For other ids the two
emitters can differ: they wrap a long double-quoted scalar (an id or
path holding non-ASCII or control characters) at different columns, so
there only the loaded document is compared across them.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrbeamsim import cli
from nrbeamsim.cli import EXIT_OK, _print_effective, main
from nrbeamsim.scenario_io import parse_scenario, scenario_file_from_dict

ROOT = Path(__file__).resolve().parents[1]
HEAD = "# effective configuration\n"
TAIL = "\n# results\n"
# the campaign the printed documents below state
CAMPAIGN = {"campaign": {"seed": 7, "n_runs": 100}}


# the benchmark workloads, and the sweeps of hybrid k_bf values and of
# several distinct gnb and ue sections
@pytest.mark.parametrize(
    "path",
    [
        "nrbench/workloads/dense_grid.yaml",
        "nrbench/workloads/wide_arrays.yaml",
        "tests/scenarios/hybrid_k6.yaml",
        "tests/scenarios/mixed_arch.yaml",
    ],
    ids=lambda path: Path(path).stem,
)
def test_workload_validate_matches_the_python_emitter(path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(["validate", path]) == EXIT_OK
    sf = parse_scenario(path)
    doc = {
        "source": path,
        "seed": sf.campaign.seed,
        "n_runs": sf.campaign.n_runs,
        "scenarios": list(sf.effective),
    }
    text = yaml.dump(
        doc, Dumper=yaml.SafeDumper, sort_keys=True, default_flow_style=False
    )
    expected = (
        HEAD + text.rstrip() + TAIL + f"ok: {len(sf.scenarios)} scenario(s) valid\n"
    )
    assert capsys.readouterr().out == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sid=st.text(max_size=120), source=st.text(min_size=1, max_size=60))
# escapes past the line width: the Python emitter breaks these quoted
# scalars, libyaml does not, and both load to the same document
@example(sid="\xe9" * 30, source="grid.yaml")
@example(sid="a\x01" * 40, source="中" * 30)
def test_printed_block_loads_back_to_the_effective_documents(sid, source):
    sf = scenario_file_from_dict({"scenario_id": sid, **CAMPAIGN}, source=source)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _print_effective(sf)
    out = buf.getvalue()
    assert out.startswith(HEAD) and out.endswith(TAIL)
    loaded = yaml.safe_load(out[len(HEAD) : -len(TAIL)])
    assert loaded == {
        "source": source,
        "seed": 7,
        "n_runs": 100,
        "scenarios": list(sf.effective),
    }


# strings that stress the emitters: any code point, YAML indicators,
# quotes, line breaks, long runs of words that a plain or quoted scalar
# wraps at the line width, and the text that separates the pieces of the
# dump (a piece's head, a section's key, a top-level key, a blank line)
_PIECES = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        [" ", "  ", "\n", "\r\n", "\t", "'", '"', "\\", ": ", " #", "- ",
         "\x00", "\x1b", "\x85", "\u2028", "\ufeff", "\xe9", "中",
         "\n- ", "- x:\n    ", "\n- x:\n    n_ss:", "- scenario_id:", "\nsource:",
         "\nseed: 7\n", "s:\n", "\n- ss:", "\n- gnb:\n    arch: x", "\n  csi:",
         "\n- scenario_id: ", "\n\n"]
    ),
    st.text(alphabet="ab ", min_size=20, max_size=100),
)
_TEXT = st.lists(_PIECES, max_size=10).map("".join)
_DUMPERS = [yaml.SafeDumper] + (
    [yaml.CSafeDumper] if hasattr(yaml, "CSafeDumper") else []
)


@pytest.mark.parametrize("dumper", _DUMPERS, ids=lambda d: d.__name__)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(sid=_TEXT, source=_TEXT.filter(bool))
@example(sid="\xe9" * 30, source="grid.yaml")
@example(sid="a\x01" * 40, source="中" * 30)
@example(sid="word " * 30, source="dir with spaces/" * 8)
@example(sid="a - scenario_id: b\n- scenario_id: c", source="s:\n- x:\n    ")
def test_printed_block_is_the_dump_of_the_whole_document(dumper, sid, source):
    data = {"scenario_id": sid, "sweep": {"ss.n_ss": [8, 16]}, **CAMPAIGN}
    sf = scenario_file_from_dict(data, source=source)
    buf = io.StringIO()
    with mock.patch.object(cli, "_DUMPER", dumper), contextlib.redirect_stdout(buf):
        _print_effective(sf)
    doc = {
        "source": source,
        "seed": 7,
        "n_runs": 100,
        "scenarios": list(sf.effective),
    }
    text = yaml.dump(doc, Dumper=dumper, sort_keys=True, default_flow_style=False)
    assert buf.getvalue() == HEAD + text + "# results\n"


def test_campaign_is_printed_once_as_resolved(capsys, monkeypatch):
    # the campaign applies to the whole file: the block states the seed and
    # run count the campaign uses, and no scenario repeats the file's own
    monkeypatch.chdir(ROOT)
    path = "nrbench/workloads/wide_arrays.yaml"
    for argv, seed, n_runs in [(["--seed", "7", "--runs", "50"], 7, 50), ([], 42, 1000)]:
        assert main(["validate", path, *argv]) == EXIT_OK
        out = capsys.readouterr().out
        doc = yaml.safe_load(out[len(HEAD) : out.index(TAIL)])
        assert (doc["seed"], doc["n_runs"]) == (seed, n_runs)
        assert all("campaign" not in scenario for scenario in doc["scenarios"])
        assert out.count("seed:") == 1 and out.count("n_runs:") == 1


def test_printed_values_are_the_values_the_model_reads(tmp_path, capsys):
    # YAML 1.1 reads 4.0e8 as a string and 16.0 as a float; the scenario
    # uses a float and an int, and the printed block must say so
    p = tmp_path / "typed.yaml"
    p.write_text(
        "gnb: {elements: 16.0}\n"
        "deployment: {lte_latency_ms: 10}\n"
        "sweep: {deployment.mode: [SA, NSA], ss.t_ss_ms: [20]}\n",
        encoding="utf-8",
    )
    argv = ["validate", str(p), "--set", "channel.bandwidth_hz=4.0e8"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    doc = yaml.safe_load(out[len(HEAD) : out.index(TAIL)])
    for scenario in doc["scenarios"]:
        assert scenario["channel"]["bandwidth_hz"] == 4.0e8
        assert isinstance(scenario["channel"]["bandwidth_hz"], float)
        assert isinstance(scenario["gnb"]["elements"], int)
        assert isinstance(scenario["deployment"]["lte_latency_ms"], float)
        assert isinstance(scenario["ss"]["t_ss_ms"], float)
    # the id suffixes keep the values as written
    assert [s["scenario_id"] for s in doc["scenarios"]] == [
        "sa_a16xa4_n3_nss64_tss20__deployment.mode=SA__ss.t_ss_ms=20",
        "nsa_a16xa4_n3_nss64_tss20_lte10__deployment.mode=NSA__ss.t_ss_ms=20",
    ]


def test_one_dump_per_printed_block(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    dumps = []
    dump = yaml.dump
    monkeypatch.setattr(yaml, "dump", lambda *a, **k: dumps.append(a) or dump(*a, **k))
    for path in ["nrbench/workloads/dense_grid.yaml", "tests/scenarios/mixed_arch.yaml"]:
        assert main(["validate", path]) == EXIT_OK
    assert len(dumps) == 2
    assert capsys.readouterr().out.count(HEAD) == 2
