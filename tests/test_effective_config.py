"""The effective configuration every CLI run prints before its results.

``cli._print_effective`` writes ``ScenarioFile.effective``, the scenario
file after defaults and overrides, in one dump by ``cli._DUMPER``
(libyaml's C emitter when PyYAML has it). The block is itself a scenario
file: loaded again it builds the same scenarios, ids included, and the
same campaign, and it prints itself. On the benchmark workloads the C
emitter's text must equal the Python emitter's. For other ids the two
emitters can differ: they wrap a long double-quoted scalar (an id
holding non-ASCII or control characters) at different columns, so there
only the loaded block is compared across them.
"""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrbeamsim import cli
from nrbeamsim.cli import EXIT_OK, _print_effective, main
from nrbeamsim.scenario_io import _load_yaml, parse_scenario, scenario_file_from_dict

ROOT = Path(__file__).resolve().parents[1]
HEAD = "# effective configuration\n"
TAIL = "# results\n"
# the campaign the files below state
CAMPAIGN = {"campaign": {"seed": 7, "n_runs": 100}}
_DUMPERS = [yaml.SafeDumper] + (
    [yaml.CSafeDumper] if hasattr(yaml, "CSafeDumper") else []
)
# the benchmark workloads, the sweeps of hybrid k_bf values and of several
# distinct gnb and ue sections, and the README's YAML blocks
FILES = [
    "nrbench/workloads/dense_grid.yaml",
    "nrbench/workloads/wide_arrays.yaml",
    "tests/scenarios/hybrid_k6.yaml",
    "tests/scenarios/mixed_arch.yaml",
]
README_BLOCKS = re.findall(
    r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S
)


def _printed(sf) -> str:
    """What ``_print_effective`` writes for ``sf``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _print_effective(sf)
    return buf.getvalue()


def _block(out: str) -> str:
    """The YAML text between the head and the ``# results`` line of the
    stdout ``out``; a value that holds the line's text is indented."""
    start = out.index(HEAD) + len(HEAD)
    return out[start : out.index("\n" + TAIL, start) + 1]


def _assert_round_trip(sf) -> None:
    """The printed block of ``sf``, read as ``parse_scenario`` reads a
    file, builds the same scenarios and campaign and prints itself."""
    out = _printed(sf)
    again = scenario_file_from_dict(_load_yaml(_block(out)))
    assert again.scenarios == sf.scenarios
    assert [sc.scenario_id for sc in again.scenarios] == [
        sc.scenario_id for sc in sf.scenarios
    ]
    assert again.campaign == sf.campaign
    assert _printed(again) == out


@pytest.mark.parametrize("path", FILES, ids=lambda path: Path(path).stem)
def test_workload_validate_matches_the_python_emitter(path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(["validate", path]) == EXIT_OK
    sf = parse_scenario(path)
    text = yaml.dump(
        sf.effective, Dumper=yaml.SafeDumper, sort_keys=True, default_flow_style=False
    )
    expected = HEAD + text + TAIL + f"ok: {len(sf.scenarios)} scenario(s) valid\n"
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "text",
    [pytest.param((ROOT / p).read_text(encoding="utf-8"), id=Path(p).stem) for p in FILES]
    + [pytest.param(b, id=f"readme_{i}") for i, b in enumerate(README_BLOCKS)],
)
def test_printed_block_reproduces_the_file(text, tmp_path, capsys):
    sf = scenario_file_from_dict(_load_yaml(text))
    _assert_round_trip(sf)
    # and through the command: validate of the printed block prints it again
    path = tmp_path / "case.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    path.write_text(_block(out), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == out


def test_sweep_of_the_printed_block_writes_the_same_reports(tmp_path, capsys):
    grid = str(ROOT / "nrbench/workloads/dense_grid.yaml")
    assert main(["validate", grid, "--runs", "100"]) == EXIT_OK
    block = tmp_path / "block.yaml"
    block.write_text(_block(capsys.readouterr().out), encoding="utf-8")
    written = []
    for path, out in [(grid, tmp_path / "grid"), (str(block), tmp_path / "block")]:
        assert main(["sweep", path, "--runs", "100", "--out", str(out)]) == EXIT_OK
        results = capsys.readouterr().out.partition(TAIL)[2]
        written.append(
            (
                results.replace(str(out), "OUT"),
                (out / "reports.json").read_bytes(),
                (out / "reports.csv").read_bytes(),
            )
        )
    assert written[0] == written[1]


# strings that stress the emitters: any code point, YAML indicators,
# quotes, line breaks, long runs of words that a plain or quoted scalar
# wraps at the line width, and text that looks like a key, a list item or
# a comment of the block
_PIECES = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        [" ", "  ", "\n", "\r\n", "\t", "'", '"', "\\", ": ", " #", "- ", "&a", "*a",
         "\x00", "\x1b", "\x85", "\u2028", "\ufeff", "\xe9", "中",
         "\n- ", "\n  n_ss:", "scenario_id:", "\nsweep:", "\nseed: 7\n", "s:\n",
         "\n# results\n", "null", "4.0e8", "\n\n"]
    ),
    st.text(alphabet="ab ", min_size=20, max_size=100),
)
_TEXT = st.lists(_PIECES, max_size=10).map("".join)

# swept keys, each with values of its domain and the ways a file writes
# one: an int key as an int or a whole float, a float key also as a
# string, which YAML 1.1 reads for 4.0e8. T_SS = 5 ms is left out: at
# n = 2 it puts every CSI-RS occasion on the SS blocks, which is refused
_AXES = {
    "gnb.elements": ([1, 2, 4, 8, 16, 64], (int, float)),
    "ue.elements": ([1, 4, 16], (int, float)),
    "ss.t_ss_ms": ([10, 20, 40, 80, 160], (int, float, lambda x: f"{x:.1e}")),
    "channel.bandwidth_hz": ([1e8, 2e8, 4e8], (float, lambda x: f"{x:.1e}", repr)),
    "channel.tx_power_dbm": ([-3.25, 0, 23, 30.5], (int, float, str)),
    "deployment.mode": (["SA", "NSA"], (str,)),
    # the one key of its section, which the block then leaves out
    "numerology.n": ([2, 3], (int, float)),
}


@st.composite
def _sweeps(draw) -> dict:
    """A ``sweep`` section over some of ``_AXES``, each value as written
    in one of its key's ways."""
    sweep = {}
    for key, (values, ways) in _AXES.items():
        if draw(st.booleans()):
            chosen = draw(st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True))
            sweep[key] = [draw(st.sampled_from(ways))(v) for v in chosen]
    return sweep


@pytest.mark.parametrize("dumper", _DUMPERS, ids=lambda d: d.__name__)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    sid=st.none() | _TEXT,
    sweep=_sweeps(),
    overrides=st.sampled_from([[], ["sweep.ss.n_ss=[8, 64]"], ["channel.noise_figure_db=7.0e0"]]),
)
@example(sid=None, sweep={"channel.bandwidth_hz": ["4.0e8"]}, overrides=[])
@example(sid=None, sweep={"ss.t_ss_ms": [20, 40.0]}, overrides=[])
@example(sid="a\x01" * 40, sweep={"gnb.elements": [8.0, 16]}, overrides=[])
@example(sid="\xe9" * 30, sweep={}, overrides=["sweep.ss.n_ss=[8, 64]"])
@example(sid="word " * 30, sweep={"deployment.mode": ["SA", "NSA"]}, overrides=[])
@example(sid="a\n# results\nb " * 3, sweep={}, overrides=[])
def test_printed_block_round_trips(dumper, sid, sweep, overrides):
    data = {"scenario_id": sid, "deployment": {"lte_latency_ms": 10}, "sweep": sweep, **CAMPAIGN}
    sf = scenario_file_from_dict(data, overrides=overrides)
    with mock.patch.object(cli, "_DUMPER", dumper):
        _assert_round_trip(sf)
        out = _printed(sf)
    text = yaml.dump(sf.effective, Dumper=dumper, sort_keys=True, default_flow_style=False)
    assert out == HEAD + text + TAIL
    # the swept values as written, which the ids carry; repr tells 1 from 1.0
    written = dict(sweep)
    if overrides == ["sweep.ss.n_ss=[8, 64]"]:
        written["ss.n_ss"] = [8, 64]
    loaded = _load_yaml(_block(out)).get("sweep", {})
    assert repr(sorted(loaded.items())) == repr(sorted(written.items()))


def test_campaign_is_printed_once_as_resolved(capsys, monkeypatch):
    # the campaign applies to the whole file: the block states the seed and
    # run count the campaign uses, once
    monkeypatch.chdir(ROOT)
    path = "nrbench/workloads/wide_arrays.yaml"
    for argv, seed, n_runs in [(["--seed", "7", "--runs", "50"], 7, 50), ([], 42, 1000)]:
        assert main(["validate", path, *argv]) == EXIT_OK
        out = capsys.readouterr().out
        doc = yaml.safe_load(_block(out))
        assert doc["campaign"] == {"seed": seed, "n_runs": n_runs}
        assert out.count("seed:") == 1 and out.count("n_runs:") == 1


def test_printed_values_are_the_values_the_model_reads(tmp_path, capsys):
    # YAML 1.1 reads 4.0e8 as a string and 16.0 as a float; the scenario
    # uses a float and an int, and the block must say so. The swept values
    # stay as written, as the ids carry them
    p = tmp_path / "typed.yaml"
    p.write_text(
        "gnb: {elements: 16.0}\n"
        "deployment: {lte_latency_ms: 10}\n"
        "sweep: {deployment.mode: [SA, NSA], ss.t_ss_ms: [20], ue.elements: [4.0],\n"
        "        numerology.n: [3]}\n",
        encoding="utf-8",
    )
    argv = ["validate", str(p), "--set", "channel.bandwidth_hz=4.0e8"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    doc = yaml.safe_load(_block(out))
    assert doc["channel"]["bandwidth_hz"] == 4.0e8
    assert isinstance(doc["channel"]["bandwidth_hz"], float)
    assert isinstance(doc["gnb"]["elements"], int)
    assert isinstance(doc["deployment"]["lte_latency_ms"], float)
    assert "mode" not in doc["deployment"] and "t_ss_ms" not in doc["ss"]
    # a section whose every key is swept is in the sweep section alone
    assert "numerology" not in doc
    assert "ue" in doc and "elements" not in doc["ue"]
    assert doc["sweep"] == {
        "deployment.mode": ["SA", "NSA"],
        "numerology.n": [3],
        "ss.t_ss_ms": [20],
        "ue.elements": [4.0],
    }
    assert [type(v) for v in doc["sweep"]["ss.t_ss_ms"] + doc["sweep"]["ue.elements"]] == [
        int,
        float,
    ]
    assert doc["scenario_id"] is None
    suffix = "numerology.n=3__ss.t_ss_ms=20__ue.elements=4.0"
    assert [sc.scenario_id for sc in scenario_file_from_dict(doc).scenarios] == [
        f"sa_a16xa4_n3_nss64_tss20__deployment.mode=SA__{suffix}",
        f"nsa_a16xa4_n3_nss64_tss20_lte10__deployment.mode=NSA__{suffix}",
    ]


def test_one_dump_and_no_alias_per_printed_block(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    dumps = []
    dump = yaml.dump
    monkeypatch.setattr(yaml, "dump", lambda *a, **k: dumps.append(a) or dump(*a, **k))
    # two swept keys that share one anchored list of values
    shared = tmp_path / "shared.yaml"
    shared.write_text("sweep: {ue.elements: &v [1, 4], gnb.elements: *v}\n", encoding="utf-8")
    paths = [*FILES[:2], "tests/scenarios/mixed_arch.yaml", str(shared)]
    for path in paths:
        assert main(["validate", path]) == EXIT_OK
    assert len(dumps) == len(paths)
    blocks = capsys.readouterr().out.split(HEAD)[1:]
    assert len(blocks) == len(paths)
    for block in blocks:
        events = list(yaml.parse(block.partition(TAIL)[0]))
        assert not any(
            isinstance(e, yaml.AliasEvent) or getattr(e, "anchor", None) for e in events
        )
