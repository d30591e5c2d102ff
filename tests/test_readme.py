"""The README's defaults, commands and library example hold as written."""
from __future__ import annotations

import re
import shlex
import shutil
from pathlib import Path

import yaml

from nrbeamsim.cli import _COMMANDS, EXIT_OK, main
from nrbeamsim.scenario_io import scenario_file_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_defaults_block_builds_what_an_empty_file_builds():
    listed = scenario_file_from_dict(yaml.safe_load(_blocks("yaml")[0]))
    empty = scenario_file_from_dict({})
    assert listed.scenarios == empty.scenarios
    assert listed.campaign == empty.campaign


def test_effective_block_is_what_validate_prints_for_the_sweep_example(tmp_path, capsys):
    # the YAML block after the sweep example is validate's output for that
    # file, which the README says ends in the line below
    example, block = _blocks("yaml")[1:3]
    assert block.startswith("# effective configuration\n")
    path = tmp_path / "sweep.yaml"
    path.write_text(example, encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == block + "ok: 4 scenario(s) valid\n"
    assert "then\n`ok: 4 scenario(s) valid`" in README.read_text(encoding="utf-8")


def test_python_blocks_run_against_the_default_scenario(tmp_path, monkeypatch):
    # the README's first YAML block lists every default, so it is itself
    # a complete scenario file
    (tmp_path / "scenario.yaml").write_text(_blocks("yaml")[0], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    blocks = _blocks("python")
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_command_lines_run_against_the_default_scenario(tmp_path, monkeypatch, capsys):
    # each beamsim line, in order, in a directory that holds the defaults
    # block as scenario.yaml and a copy of paper/; report reads what sweep
    # wrote
    (tmp_path / "scenario.yaml").write_text(_blocks("yaml")[0], encoding="utf-8")
    shutil.copytree(README.parent / "paper", tmp_path / "paper")
    monkeypatch.chdir(tmp_path)
    lines = [
        line
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("beamsim ")
    ]
    commands = [shlex.split(line, comments=True)[1:] for line in lines]
    assert {argv[0] for argv in commands} == set(_COMMANDS)
    for line, argv in zip(lines, commands):
        assert main(argv) == EXIT_OK, (line, capsys.readouterr().err)
    capsys.readouterr()


def test_exports_paragraph_names_root_exports_and_no_batch():
    import nrbeamsim
    from nrbeamsim import evaluation

    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("The package root exports"):].split("\n\n")[0]
    named = {n for n in re.findall(r"`([A-Za-z_]\w*)`", paragraph)}
    assert named and named <= set(nrbeamsim.__all__)
    # the campaign batches are not root exports; the bench worker reads
    # them from the evaluation module
    assert not any(n.startswith("simulate_") for n in nrbeamsim.__all__)
    assert not hasattr(nrbeamsim, "simulate_ia_batch")
    assert callable(evaluation.simulate_ia_batch)
