from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

from nrbeamsim.cli import (
    _COMMANDS,
    EXIT_ANCHOR,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    _build_parser,
    _command_parser,
    main,
)
from nrbeamsim.codebook import MAX_SWEEP_LENGTH
from nrbeamsim.evaluation import MAX_RUNS
from nrbeamsim.procedures import _plan_for

WORKLOADS = Path(__file__).resolve().parents[1] / "nrbench" / "workloads"


@pytest.fixture
def quick_yaml(tmp_path):
    p = tmp_path / "case.yaml"
    p.write_text(
        "ss: {n_ss: 8}\n"
        "gnb: {elements: 16}\n"
        "ue: {elements: 1}\n"
        "campaign: {n_runs: 200, seed: 11}\n",
        encoding="utf-8",
    )
    return p


@pytest.fixture
def sweep_yaml(tmp_path):
    p = tmp_path / "grid.yaml"
    p.write_text(
        "ss: {n_ss: 8}\n"
        "gnb: {elements: 16}\n"
        "ue: {elements: 1}\n"
        "campaign: {n_runs: 150, seed: 11}\n"
        "sweep:\n"
        "  deployment.mode: [SA, NSA]\n"
        "  deployment.lte_latency_ms: [10]\n",
        encoding="utf-8",
    )
    return p


class TestExitCodes:
    def test_ok(self, quick_yaml, capsys):
        assert main(["validate", str(quick_yaml)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "# effective configuration" in out
        assert "ok: 1 scenario(s) valid" in out

    @pytest.mark.parametrize(
        "override",
        [
            "ss.t_ss_ms=15",
            "csi.t_csi_slots=7",
            "csi.n_symbols=3",
            "csi.bandwidth_rb=30",
            "numerology.n=5",
            "channel.tx_power_dbm=.nan",
            "channel.shadowing_sigma_db=.nan",
            "channel.shadowing_sigma_db=.inf",
            # knobs that changed no result are no longer accepted
            "csi.activation=periodic",
            "channel.rssi_offset_db=3",
            "power.adc_bits=3",
            "deployment.carriers=1",
            "deployment.ue_distance_m=50",
            # null where the default is a number
            "power.c_chain_w=null",
            "channel.tx_power_dbm=null",
            "ss.t_ss_ms=null",
            "deployment.carrier_ghz=null",
            "deployment.carrier_ghz=-1",
            "deployment.carrier_ghz=0",
            "campaign.seed=-1",
            "gnb.elements=0",
            "ue.elements=0",
            "gnb.k_bf=4",
            "ue.k_bf=1",
            "power.p0_w=-1",
            "power.c_ps_w=-0.5",
            "campaign.n_drops=100",
            # the campaign block applies to the whole file
            "sweep.campaign.n_runs=[10, 20]",
            "sweep.campaign.seed=[1, 2]",
            # finite, but the path loss at the cell edge is not
            "channel.pl_exponent=1e308",
            # finite terms whose sum, the mean SNR at the cell edge, is not
            pytest.param(
                ("channel.pl_intercept_db=1e308", "channel.tx_power_dbm=-1e308"),
                id="channel.pl_intercept_db=1e308,channel.tx_power_dbm=-1e308",
            ),
            # too large for a float
            pytest.param("channel.tx_power_dbm=1" + "0" * 400, id="tx_power_dbm=1e400"),
            # the sweep section is a mapping of dotted keys to lists
            "sweep=5",
            "sweep=[1, 2]",
            "sweep=abc",
            "sweep={1: [2]}",
            # the same scenario twice, under one id or two
            "sweep.ss.n_ss=[8, 8]",
            "sweep.ss.n_ss=[8, 8.0]",
            # an id is a string
            "scenario_id=[a, b]",
            "scenario_id={a: 1}",
            "scenario_id=123",
        ],
    )
    @pytest.mark.parametrize("form", ["set", "file"])
    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_invalid_configs_exit_one(self, quick_yaml, override, form, command, capsys):
        overrides = (override,) if isinstance(override, str) else override
        argv = [command, str(quick_yaml)]
        if form == "set":
            for item in overrides:
                argv += ["--set", item]
        else:
            # the same values written into the file
            data = yaml.safe_load(quick_yaml.read_text(encoding="utf-8"))
            for item in overrides:
                path, _, raw = item.partition("=")
                section, dot, key = path.partition(".")
                value = yaml.safe_load(raw)
                if dot:
                    data.setdefault(section, {})[key] = value
                else:
                    data[section] = value
            quick_yaml.write_text(yaml.safe_dump(data), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error:" in err
        for item in overrides:
            assert item.partition("=")[0] in err
        assert "Warning" not in err
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (["gnb.arch=hybrid"], "gnb.k_bf=None"),
            (["gnb.arch=hybrid", "gnb.k_bf=17"], "gnb.k_bf=17"),
            (["ue.arch=hybrid", "ue.k_bf=2"], "ue.k_bf=2"),
        ],
    )
    def test_hybrid_k_bf_errors_name_the_key(self, quick_yaml, overrides, key, capsys):
        argv = ["validate", str(quick_yaml)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_set_of_a_swept_key_exits_one(self, tmp_path, capsys):
        p = tmp_path / "grid.yaml"
        p.write_text(
            "ss: {n_ss: 8}\n"
            "gnb: {elements: 16}\n"
            "ue: {elements: 1}\n"
            "sweep: {gnb.elements: [8, 16]}\n",
            encoding="utf-8",
        )
        # a file may fix a value it also sweeps: the sweep wins, as before
        assert main(["validate", str(p)]) == EXIT_OK
        assert "ok: 2 scenario(s) valid" in capsys.readouterr().out
        code = main(["validate", str(p), "--set", "gnb.elements=0"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "gnb.elements" in err and "sweep.gnb.elements" in err
        assert "--set sweep.gnb.elements=[...]" in err
        assert main(["validate", str(p), "--set", "sweep.gnb.elements=[4]"]) == EXIT_OK

    def test_unknown_key_exits_one(self, quick_yaml, capsys):
        code = main(["validate", str(quick_yaml), "--set", "ss.bogus=1"])
        assert code == EXIT_CONFIG

    def test_sweep_length_is_capped(self, quick_yaml, capsys):
        built = _plan_for.cache_info().misses
        code = main(["sweep", str(quick_yaml), "--set", "gnb.elements=4097"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "gnb.elements=4097" in err and "ue.elements=1" in err
        assert f"S=4097 slots; at most {MAX_SWEEP_LENGTH}" in err
        assert _plan_for.cache_info().misses == built
        for sizes in (["gnb.elements=4096"], ["gnb.elements=64", "ue.elements=64"]):
            argv = ["validate", str(quick_yaml)]
            for item in sizes:
                argv += ["--set", item]
            assert main(argv) == EXIT_OK

    def test_missing_file_exits_three(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path / "nope.yaml")])
        assert code == EXIT_IO
        assert "io error" in capsys.readouterr().err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["anchors", "--runs", "abc"],
            ["validate"],
            ["sweep", "--seed", "1"],
            ["report"],
            ["bogus"],
            [],
            # sweep is the one campaign command
            ["ia", "FILE"],
            ["tracking", "FILE"],
            ["rlf", "FILE"],
            # the anchors are closed forms: no seed, no run count
            ["anchors", "--seed", "1"],
            ["anchors", "--runs", "5"],
            # the command comes first
            ["--", "anchors"],
        ],
    )
    def test_usage_errors_exit_one(self, argv, quick_yaml, capsys):
        argv = [str(quick_yaml) if a == "FILE" else a for a in argv]
        assert main(argv) == EXIT_CONFIG
        assert "usage: beamsim" in capsys.readouterr().err

    def test_validate_rejects_out(self, quick_yaml, tmp_path, capsys):
        # validate writes nothing, so it takes no directory to write to
        out_dir = tmp_path / "d"
        assert main(["validate", str(quick_yaml), "--out", str(out_dir)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "unrecognized arguments: --out" in captured.err
        assert "ok:" not in captured.out
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv", [["-h"], ["--help"], ["--version"], ["sweep", "-h"], ["validate", "-h"]]
    )
    def test_help_and_version_exit_zero(self, argv, capsys):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out

    def test_help_lists_the_four_commands(self, capsys):
        assert main(["-h"]) == EXIT_OK
        assert "{validate,sweep,anchors,report}" in capsys.readouterr().out

    @staticmethod
    def _full_tree() -> tuple[argparse.ArgumentParser, dict]:
        """The top-level parser with every command's arguments added, and
        its subparsers by command."""
        tree = _build_parser()
        (sub,) = [a for a in tree._actions if isinstance(a, argparse._SubParsersAction)]
        for name, (_, add_args) in _COMMANDS.items():
            add_args(sub.choices[name])
        return tree, sub.choices

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_a_command_parser_is_its_subparser_in_the_full_tree(self, name):
        def options(p: argparse.ArgumentParser) -> list[tuple]:
            return [
                (a.option_strings, a.dest, a.default, a.type, a.nargs, a.help)
                for a in p._actions
            ]

        alone, full = _command_parser(name), self._full_tree()[1][name]
        assert len(alone._actions) > 1  # more than -h
        assert options(alone) == options(full)
        assert alone.format_help() == full.format_help()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["-h"], EXIT_OK),
            (["--version"], EXIT_OK),
            (["bogus"], EXIT_CONFIG),
            ([], EXIT_CONFIG),
        ],
    )
    def test_the_top_level_parser_answers_as_the_full_tree(self, argv, code, capsys):
        # help, version and a missing or unknown command print what the
        # tree with every command's arguments prints
        with pytest.raises(SystemExit):
            self._full_tree()[0].parse_args(argv)
        expected = capsys.readouterr()
        assert main(argv) == code
        assert capsys.readouterr() == expected


class TestCampaignCommands:
    def test_effective_config_precedes_results(self, quick_yaml, capsys):
        main(["sweep", str(quick_yaml)])
        out = capsys.readouterr().out
        assert out.index("# effective configuration") < out.index("# results")
        assert "seed: 11" in out

    def test_sweep_prints_all_metrics_per_variant(self, sweep_yaml, capsys):
        assert main(["sweep", str(sweep_yaml)]) == EXIT_OK
        out = capsys.readouterr().out
        results = out.split("# results")[1]
        assert results.count("t_ia_ms =") == 2
        assert results.count("p_c_w =") == 2

    def test_out_writes_csv_and_json(self, quick_yaml, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["sweep", str(quick_yaml), "--out", str(out_dir)]) == EXIT_OK
        assert (out_dir / "reports.csv").exists()
        assert (out_dir / "reports.json").exists()
        payload = json.loads((out_dir / "reports.json").read_text())
        assert len(payload["reports"]) == 1

    def test_reruns_byte_identical(self, sweep_yaml, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", str(sweep_yaml), "--out", str(a)]) == EXIT_OK
        assert main(["sweep", str(sweep_yaml), "--out", str(b)]) == EXIT_OK
        assert (a / "reports.csv").read_bytes() == (b / "reports.csv").read_bytes()
        assert (a / "reports.json").read_bytes() == (b / "reports.json").read_bytes()

    def test_runs_flag_overrides_file(self, quick_yaml, capsys):
        assert main(["sweep", str(quick_yaml), "--runs", "50"]) == EXIT_OK
        assert "n_runs: 50" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_zero_runs_rejected(self, quick_yaml, command, capsys):
        assert main([command, str(quick_yaml), "--runs", "0"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{quick_yaml}: campaign.n_runs: must be in 1..{MAX_RUNS}" in (
            captured.err
        )
        assert "ok:" not in captured.out

    @pytest.mark.parametrize("runs", [MAX_RUNS + 1, 10**12])
    @pytest.mark.parametrize("spelling", ["--runs {}", "--set campaign.n_runs={}"])
    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_runs_above_the_cap_exit_one(
        self, quick_yaml, command, spelling, runs, capsys
    ):
        # rejected with the file, before any campaign allocates its runs
        argv = [command, str(quick_yaml), *spelling.format(runs).split()]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        cap = f"campaign.n_runs: must be in 1..{MAX_RUNS} (evaluation.MAX_RUNS)"
        assert cap in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_runs_at_the_cap_validate(self, quick_yaml, capsys):
        assert main(["validate", str(quick_yaml), "--runs", str(MAX_RUNS)]) == EXIT_OK
        assert f"n_runs: {MAX_RUNS}" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["dense_grid", "wide_arrays"])
    def test_flags_are_spellings_of_set(self, name, tmp_path, capsys):
        path, out = str(WORKLOADS / f"{name}.yaml"), str(tmp_path)
        runs = []
        for argv in (
            ["--seed", "7", "--runs", "200"],
            ["--set", "campaign.seed=7", "--set", "campaign.n_runs=200"],
        ):
            assert main(["sweep", path, *argv, "--out", out]) == EXIT_OK
            stored = (tmp_path / "reports.json").read_bytes()
            runs.append((capsys.readouterr().out, stored))
        assert runs[0] == runs[1]
        assert "seed: 7\n" in runs[0][0] and "n_runs: 200\n" in runs[0][0]


class TestSeedPrecedence:
    @pytest.mark.parametrize(
        "argv, seed",
        [
            ([], 11),
            (["--seed", "5"], 5),
            (["--set", "campaign.seed=8", "--seed", "7"], 7),
            (["--seed", "7", "--set", "campaign.seed=8"], 8),
            (["--seed", "7", "--seed", "9"], 9),
        ],
    )
    def test_last_one_wins(self, quick_yaml, argv, seed, capsys):
        assert main(["validate", str(quick_yaml), *argv]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"seed: {seed}\n" in out and out.count("seed:") == 1

    @pytest.mark.parametrize("value", ["7", "lots"])
    def test_seed_variable_is_rejected(self, quick_yaml, value, capsys, monkeypatch):
        # the variable is no longer read: a run that still sets it stops
        # rather than use a seed its caller did not ask for
        monkeypatch.setenv("BEAMSIM_SEED", value)
        for command in ("validate", "sweep"):
            assert main([command, str(quick_yaml), "--seed", "7"]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert "BEAMSIM_SEED" in captured.err and "--seed" in captured.err
            assert captured.out == ""
        # the anchors draw nothing, so they do not look at it
        assert main(["anchors"]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_negative_seed_exits_one(self, quick_yaml, command, capsys):
        assert main([command, str(quick_yaml), "--seed", "-1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{quick_yaml}: campaign.seed: must be non-negative" in err

    @pytest.mark.parametrize("value, shown", [("abc", "'abc'"), ("1.5", "1.5")])
    def test_seed_that_is_not_an_integer_exits_one(
        self, quick_yaml, value, shown, capsys
    ):
        # the flag's value is read as YAML and checked like the file's
        assert main(["sweep", str(quick_yaml), "--seed", value]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"campaign.seed: expected an integer, got {shown}" in err

    def test_negative_file_seed_exits_one(self, tmp_path, capsys):
        p = tmp_path / "neg.yaml"
        p.write_text("campaign: {seed: -1}\n", encoding="utf-8")
        for command in ("validate", "sweep"):
            assert main([command, str(p)]) == EXIT_CONFIG
            assert "campaign.seed: must be non-negative" in capsys.readouterr().err

    def test_seed_changes_outputs(self, quick_yaml, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["sweep", str(quick_yaml), "--seed", "1", "--out", str(a)])
        main(["sweep", str(quick_yaml), "--seed", "2", "--out", str(b)])
        assert (a / "reports.json").read_bytes() != (b / "reports.json").read_bytes()


class TestReportCommand:
    def test_tables_from_stored_reports(self, sweep_yaml, tmp_path, capsys):
        camp = tmp_path / "camp"
        main(["sweep", str(sweep_yaml), "--out", str(camp)])
        capsys.readouterr()
        out_dir = tmp_path / "tables"
        code = main(
            ["report", str(camp / "reports.json"), "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "# t_br_by_gnb.csv" in out
        for name in (
            "t_br_by_gnb.csv",
            "power_overhead.csv",
            "t_rlf_table.csv",
            "kiviat.json",
            "reports.json",
        ):
            assert (out_dir / name).exists(), name
        kiviat = json.loads((out_dir / "kiviat.json").read_text())
        assert set(kiviat) == {"axes", "scenario_ids", "raw", "values"}

    def test_kiviat_refusal_writes_nothing(self, tmp_path, capsys):
        # a 160-slot CSI period puts every occasion on a 20 ms SS burst, so
        # no tracking run finds one and t_tr is NaN, which kiviat refuses
        p = tmp_path / "collide.yaml"
        p.write_text(
            "ss: {n_ss: 8}\n"
            "gnb: {elements: 16}\n"
            "ue: {elements: 1}\n"
            "csi: {t_csi_slots: 160}\n"
            "campaign: {n_runs: 50}\n",
            encoding="utf-8",
        )
        camp = tmp_path / "camp"
        assert main(["sweep", str(p), "--out", str(camp)]) == EXIT_OK
        assert "t_tr_ms = nan" in capsys.readouterr().out
        out_dir = tmp_path / "tables"
        code = main(["report", str(camp / "reports.json"), "--out", str(out_dir)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "kiviat axis t_tr_ms" in captured.err
        assert "wrote" not in captured.out
        assert not out_dir.exists()

    def test_bad_report_json_exits_one(self, tmp_path, capsys):
        p = tmp_path / "junk.json"
        p.write_text("{]", encoding="utf-8")
        assert main(["report", str(p)]) == EXIT_CONFIG

    def test_report_schema_error_exits_one(self, tmp_path, capsys):
        p = tmp_path / "odd.json"
        p.write_text('{"reports":[{"x":1}]}', encoding="utf-8")
        assert main(["report", str(p)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "odd.json" in err and "reports[0]" in err

    def test_missing_report_exits_three(self, tmp_path):
        assert main(["report", str(tmp_path / "none.json")]) == EXIT_IO


DEEP_YAML = "[" * 5000 + "]" * 5000


class TestMalformedInput:
    """Input that the readers cannot take is an error naming the file or
    key, not a traceback."""

    @staticmethod
    def _assert_one_error(code, capsys, *names):
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert "Traceback" not in err
        for name in names:
            assert name in err

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"\xff\xfess: {n_ss: 8}\n", id="utf16-bom"),
            pytest.param(b"ss: {n_ss: \xe9}\n", id="latin1"),
            pytest.param(f"ss: {{n_ss: {DEEP_YAML}}}\n".encode(), id="nested-5000"),
            pytest.param(
                f"sweep: {{ss.n_ss: {DEEP_YAML}}}\n".encode(), id="sweep-nested-5000"
            ),
            pytest.param(f"scenario_id: {DEEP_YAML}\n".encode(), id="id-nested-5000"),
            # shallow text, but each alias nests the value once more
            pytest.param(
                (
                    "ss: {n_ss: &a0 [8]}\nss:\n"
                    + "".join(f"  n_ss: &a{i + 1} [*a{i}]\n" for i in range(5000))
                ).encode(),
                id="aliases-nested-5000",
            ),
            # libyaml composes nodes by recursion on the C stack
            pytest.param(
                b"ss: {n_ss: " + b"[" * 100_000 + b"]" * 100_000 + b"}\n",
                id="nested-100000",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_scenario_file(self, tmp_path, command, content, capsys):
        p = tmp_path / "bad.yaml"
        p.write_bytes(content)
        self._assert_one_error(main([command, str(p)]), capsys, str(p))

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_invalid_yaml_names_the_file_line_and_column(
        self, tmp_path, command, capsys
    ):
        # the loader's own message spans four lines and names "<unicode string>"
        p = tmp_path / "bad.yaml"
        p.write_text("ss: [unclosed\n", encoding="utf-8")
        self._assert_one_error(
            main([command, str(p)]),
            capsys,
            f"{p}, line 2, column 1: not valid YAML: ",
            "expected ',' or ']'",
            "line 1, column 5",
        )

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_set_value_nested_too_deeply(self, quick_yaml, command, capsys):
        code = main([command, str(quick_yaml), "--set", f"ss.n_ss={DEEP_YAML}"])
        self._assert_one_error(code, capsys, str(quick_yaml), "ss.n_ss")

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_set_value_not_utf8(self, quick_yaml, command, capsys):
        # a non-UTF-8 argument byte reaches Python as a lone surrogate
        code = main([command, str(quick_yaml), "--set", "ss.n_ss=\udcff"])
        self._assert_one_error(code, capsys, str(quick_yaml), "ss.n_ss")

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"[" * 200_000 + b"]" * 200_000, id="nested-200000"),
            pytest.param(b'{"reports": []}\xff', id="not-utf8"),
        ],
    )
    def test_report_file(self, tmp_path, content, capsys):
        p = tmp_path / "reports.json"
        p.write_bytes(content)
        self._assert_one_error(main(["report", str(p)]), capsys, str(p))


class TestAnchorsCommand:
    def test_fast_anchor_run_passes(self, tmp_path, capsys):
        code = main(["anchors", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "anchors passed" in out
        assert (tmp_path / "anchors.csv").exists()

    def test_anchor_csv_layout(self, tmp_path, capsys):
        main(["anchors", "--out", str(tmp_path)])
        capsys.readouterr()
        lines = (tmp_path / "anchors.csv").read_text().splitlines()
        assert lines[0] == "name,status,gated,detail"
        assert all(line.count(",") >= 3 for line in lines[1:])

    def test_anchors_draw_nothing_in_a_fresh_interpreter(self, tmp_path):
        # every anchor is a closed form: two runs write the same bytes, and
        # numpy's random module is never imported
        script = (
            "import sys\n"
            "from nrbeamsim.cli import main\n"
            "code = main(['anchors', '--out', sys.argv[1]])\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
            "sys.exit(code)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        pythonpath = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )
        blobs = []
        for sub in ("a", "b"):
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-c", script, str(tmp_path / sub)],
                env=dict(os.environ, PYTHONPATH=pythonpath),
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            assert "20/20 anchors passed" in proc.stdout
            blobs.append((tmp_path / sub / "anchors.csv").read_bytes())
        assert blobs[0] == blobs[1]
