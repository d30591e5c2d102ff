"""The README's defaults and library example hold as written."""
from __future__ import annotations

import re
from pathlib import Path

import yaml

from nrbeamsim.scenario_io import scenario_file_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_defaults_block_builds_what_an_empty_file_builds():
    listed = scenario_file_from_dict(yaml.safe_load(_blocks("yaml")[0]))
    empty = scenario_file_from_dict({})
    assert listed.scenarios == empty.scenarios
    assert listed.campaign == empty.campaign


def test_python_blocks_run_against_the_default_scenario(tmp_path, monkeypatch):
    # the README's first YAML block lists every default, so it is itself
    # a complete scenario file
    (tmp_path / "scenario.yaml").write_text(_blocks("yaml")[0], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    blocks = _blocks("python")
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
