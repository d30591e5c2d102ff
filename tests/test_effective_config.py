"""The effective configuration every CLI run prints before its results.

The block goes through libyaml's C emitter when PyYAML has it. On the
benchmark workloads its text must equal what PyYAML's Python emitter
writes, byte for byte. For any scenario id it must load back to the
parsed file's ``effective`` documents: the two emitters wrap a long
double-quoted scalar (an id or path holding non-ASCII or control
characters) at different columns, so there only the loaded document is
compared, never the text.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrbeamsim.cli import EXIT_OK, SEED_ENV_VAR, _print_effective, main
from nrbeamsim.scenario_io import parse_scenario, scenario_file_from_dict

ROOT = Path(__file__).resolve().parents[1]
HEAD = "# effective configuration\n"
TAIL = "\n# results\n"


@pytest.mark.parametrize("name", ["dense_grid", "wide_arrays"])
def test_workload_validate_matches_the_python_emitter(
    name, capsys, monkeypatch
):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    path = f"nrbench/workloads/{name}.yaml"
    assert main(["validate", path]) == EXIT_OK
    sf = parse_scenario(path)
    doc = {
        "source": path,
        "seed": sf.campaign.seed,
        "n_runs": sf.campaign.n_runs,
        "horizon_ms": sf.campaign.horizon_ms,
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
    sf = scenario_file_from_dict({"scenario_id": sid}, source=source)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _print_effective(sf, 7, 100)
    out = buf.getvalue()
    assert out.startswith(HEAD) and out.endswith(TAIL)
    loaded = yaml.safe_load(out[len(HEAD) : -len(TAIL)])
    assert loaded == {
        "source": source,
        "seed": 7,
        "n_runs": 100,
        "horizon_ms": sf.campaign.horizon_ms,
        "scenarios": list(sf.effective),
    }


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
        "sa_a16xa4_n3_nss64_tss20__mode=SA__t_ss_ms=20",
        "nsa_a16xa4_n3_nss64_tss20_lte10__mode=NSA__t_ss_ms=20",
    ]
