from __future__ import annotations

import argparse
import json
import warnings

import pytest
import yaml

from nrbeamsim.cli import (
    _COMMANDS,
    EXIT_ANCHOR,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    SEED_ENV_VAR,
    _build_parser,
    main,
)
from nrbeamsim.codebook import MAX_SWEEP_LENGTH
from nrbeamsim.procedures import _plan_for


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
        code = main(["ia", str(quick_yaml), "--set", "gnb.elements=4097"])
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
        ],
    )
    def test_usage_errors_exit_one(self, argv, capsys):
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

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_a_command_built_alone_matches_the_full_tree(self, name):
        def subparser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
            (action,) = [
                a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            ]
            return action.choices[name]

        def options(p: argparse.ArgumentParser) -> list[tuple]:
            return [
                (a.option_strings, a.dest, a.default, a.type, a.nargs, a.help)
                for a in p._actions
            ]

        alone_tree, full_tree = _build_parser([name]), _build_parser(list(_COMMANDS))
        assert alone_tree.format_help() == full_tree.format_help()
        alone, full = subparser(alone_tree), subparser(full_tree)
        assert len(alone._actions) > 1  # more than -h
        assert options(alone) == options(full)
        assert alone.format_help() == full.format_help()


class TestCampaignCommands:
    def test_ia_prints_focus_metric(self, quick_yaml, capsys):
        assert main(["ia", str(quick_yaml)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "t_ia_ms =" in out
        assert "omega_ia" not in out.split("# results")[1]

    def test_effective_config_precedes_results(self, quick_yaml, capsys):
        main(["ia", str(quick_yaml)])
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
        assert main(["ia", str(quick_yaml), "--out", str(out_dir)]) == EXIT_OK
        assert (out_dir / "ia.csv").exists()
        assert (out_dir / "ia.json").exists()
        payload = json.loads((out_dir / "ia.json").read_text())
        assert len(payload["reports"]) == 1

    def test_reruns_byte_identical(self, sweep_yaml, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", str(sweep_yaml), "--out", str(a)]) == EXIT_OK
        assert main(["sweep", str(sweep_yaml), "--out", str(b)]) == EXIT_OK
        assert (a / "reports.csv").read_bytes() == (b / "reports.csv").read_bytes()
        assert (a / "reports.json").read_bytes() == (b / "reports.json").read_bytes()

    def test_runs_flag_overrides_file(self, quick_yaml, capsys):
        assert main(["ia", str(quick_yaml), "--runs", "50"]) == EXIT_OK
        assert "n_runs: 50" in capsys.readouterr().out

    def test_zero_runs_rejected(self, quick_yaml, capsys):
        assert main(["ia", str(quick_yaml), "--runs", "0"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_zero_runs_rejected_like_ia(self, quick_yaml, command, capsys):
        assert main([command, str(quick_yaml), "--runs", "0"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--runs 0: must be at least 1" in captured.err
        assert "ok:" not in captured.out


class TestSeedPrecedence:
    def test_flag_beats_env_beats_file(self, quick_yaml, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        main(["validate", str(quick_yaml), "--seed", "5"])
        assert "seed: 5" in capsys.readouterr().out
        main(["validate", str(quick_yaml)])
        assert "seed: 77" in capsys.readouterr().out
        monkeypatch.delenv(SEED_ENV_VAR)
        main(["validate", str(quick_yaml)])
        assert "seed: 11" in capsys.readouterr().out

    def test_env_must_be_integer(self, quick_yaml, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "lots")
        assert main(["validate", str(quick_yaml)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command", ["validate", "ia", "tracking", "rlf", "sweep", "anchors"]
    )
    def test_negative_seed_exits_one(self, quick_yaml, command, capsys, monkeypatch):
        argv = [command] if command == "anchors" else [command, str(quick_yaml)]
        assert main(argv + ["--seed", "-1"]) == EXIT_CONFIG
        assert "--seed -1: must be non-negative" in capsys.readouterr().err
        monkeypatch.setenv(SEED_ENV_VAR, "-2")
        assert main(argv) == EXIT_CONFIG
        assert f"{SEED_ENV_VAR}='-2': must be non-negative" in capsys.readouterr().err

    def test_negative_file_seed_exits_one(self, tmp_path, capsys):
        p = tmp_path / "neg.yaml"
        p.write_text("campaign: {seed: -1}\n", encoding="utf-8")
        for command in ("validate", "ia"):
            assert main([command, str(p)]) == EXIT_CONFIG
            assert "campaign.seed: must be non-negative" in capsys.readouterr().err

    def test_seed_changes_outputs(self, quick_yaml, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["ia", str(quick_yaml), "--seed", "1", "--out", str(a)])
        main(["ia", str(quick_yaml), "--seed", "2", "--out", str(b)])
        assert (a / "ia.json").read_bytes() != (b / "ia.json").read_bytes()


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


class TestAnchorsCommand:
    def test_fast_anchor_run_passes(self, tmp_path, capsys):
        # modest run count: statistical anchors use 3-sigma gates
        code = main(["anchors", "--runs", "20000", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "anchors passed" in out
        assert (tmp_path / "anchors.csv").exists()

    def test_anchor_csv_layout(self, tmp_path, capsys):
        main(["anchors", "--runs", "20000", "--out", str(tmp_path)])
        capsys.readouterr()
        lines = (tmp_path / "anchors.csv").read_text().splitlines()
        assert lines[0] == "name,status,gated,detail"
        assert all(line.count(",") >= 3 for line in lines[1:])
