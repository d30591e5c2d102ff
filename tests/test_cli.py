from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

from nrbeamsim import cli, procedures, scenario_io
from nrbeamsim.cli import (
    EXIT_ANCHOR,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    main,
)
from nrbeamsim.codebook import MAX_SWEEP_LENGTH
from nrbeamsim.evaluation import MAX_RUNS

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
            # the model is FR2: no 15 or 30 kHz numerology, no carrier key
            "numerology.n=0",
            "numerology.n=1",
            "deployment.carrier_ghz=28",
            "sweep.deployment.carrier_ghz=[28, 73]",
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

    # YAML's escapes of characters str.splitlines breaks a line at
    @pytest.mark.parametrize(
        "escaped, value",
        [("\\n", "a\nb"), ("\\r\\n", "a\r\nb"), ("\\N", "a\x85b"), ("\\L", "a\u2028b")],
        ids=["lf", "crlf", "nel", "line-separator"],
    )
    @pytest.mark.parametrize("form", ["set", "file"])
    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_an_id_with_a_line_break_is_refused_on_one_line(
        self, quick_yaml, escaped, value, form, command, capsys
    ):
        # the id once printed raw, so sweep's results lines spread over two
        item = f'scenario_id="a{escaped}b"'
        argv = [command, str(quick_yaml)]
        if form == "set":
            argv += ["--set", item]
        else:
            text = quick_yaml.read_text(encoding="utf-8")
            quick_yaml.write_text(text + item.replace("=", ": ", 1) + "\n", encoding="utf-8")
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {quick_yaml}: scenario_id={value!r}: must be a string on one line\n"
        )

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

    @pytest.mark.parametrize(
        "file_text, overrides, message",
        [
            ("", ["deployment.carrier_ghz=28"], "deployment.carrier_ghz: unknown key"),
            ("numerology: {n: 0}\n", [], "numerology.n=0: must be one of [2, 3, 4]"),
            ("", ["numerology.n=1"], "numerology.n=1: must be one of [2, 3, 4]"),
        ],
    )
    def test_sub6_inputs_print_one_error_line(
        self, tmp_path, file_text, overrides, message, capsys
    ):
        p = tmp_path / "fr2.yaml"
        p.write_text(file_text, encoding="utf-8")
        argv = ["validate", str(p)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {p}: {message}")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_a_geometry_that_tracks_no_direction_exits_one(
        self, tmp_path, command, capsys
    ):
        # at n = 2 a 5 ms burst period is 280 symbols, and every 20-slot
        # CSI-RS occasion starts a burst, on its first SS block
        p = tmp_path / "starved.yaml"
        p.write_text(
            "numerology: {n: 2}\nss: {t_ss_ms: 5}\ncsi: {t_csi_slots: 20}\n",
            encoding="utf-8",
        )
        assert main([command, str(p)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {p}: csi.t_csi_slots=20, csi.delta_t_symbols=0 and ss.t_ss_ms=5 "
        )
        assert captured.err.endswith(
            "csi.delta_f_rb >= 20 moves CSI-RS off their resource blocks\n"
        )
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        argv = [command, str(p), "--set", "csi.delta_f_rb=20", "--runs", "10"]
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize(
        "file_text, overrides",
        [("campaign: {horizon_ms: 500}\n", []), ("", ["campaign.horizon_ms=50"])],
    )
    def test_a_tracking_horizon_is_an_unknown_key(
        self, tmp_path, file_text, overrides, capsys
    ):
        # a tracking run is censored only when its direction has no
        # surviving CSI-RS occasion, so no cut-off wait is set
        p = tmp_path / "horizon.yaml"
        p.write_text(file_text, encoding="utf-8")
        argv = ["validate", str(p)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {p}: campaign.horizon_ms: unknown key")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""

    def test_sweep_length_is_capped(self, quick_yaml, capsys, monkeypatch):
        built = []
        sweep_plan = procedures.sweep_plan

        def recorded(sc):
            built.append(sc)
            return sweep_plan(sc)

        monkeypatch.setattr(procedures, "sweep_plan", recorded)
        code = main(["sweep", str(quick_yaml), "--set", "gnb.elements=4097"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "gnb.elements=4097" in err and "ue.elements=1" in err
        assert f"S=4097 slots; at most {MAX_SWEEP_LENGTH}" in err
        assert built == []
        # the recorder sees the plan a sweep that runs builds
        assert main(["sweep", str(quick_yaml), "--runs", "20"]) == EXIT_OK
        assert built
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

    @pytest.mark.parametrize(
        "argv",
        [["validate", "FILE"], ["sweep", "FILE"], ["anchors"], ["report", "FILE"]],
        ids=lambda argv: argv[0],
    )
    def test_an_unrecognized_option_names_its_command(self, argv, quick_yaml, capsys):
        # the command's own parser reports the error, with the command's usage
        argv = [str(quick_yaml) if a == "FILE" else a for a in argv]
        assert main([*argv, "--bogus"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"usage: beamsim {argv[0]} " in err
        assert f"beamsim {argv[0]}: error: unrecognized arguments: --bogus" in err


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

    def test_out_on_a_file_fails_before_any_campaign(
        self, quick_yaml, tmp_path, capsys, monkeypatch
    ):
        target = tmp_path / "taken"
        target.write_text("keep\n", encoding="utf-8")
        ran = []
        monkeypatch.setattr(cli, "estimate_metrics", lambda *a: ran.append(a))
        assert main(["sweep", str(quick_yaml), "--out", str(target)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == f"io error: [Errno 17] File exists: '{target}'\n"
        assert "t_ia_ms =" not in captured.out
        assert ran == []
        assert target.read_text(encoding="utf-8") == "keep\n"

    @pytest.mark.parametrize("command", ["sweep", "report", "anchors"])
    def test_out_on_a_file_exits_three_before_any_result(
        self, quick_yaml, tmp_path, command, capsys
    ):
        camp = tmp_path / "camp"
        assert main(["sweep", str(quick_yaml), "--out", str(camp)]) == EXIT_OK
        capsys.readouterr()
        target = tmp_path / "taken"
        target.write_text("keep\n", encoding="utf-8")
        argv = {
            "sweep": ["sweep", str(quick_yaml)],
            "report": ["report", str(camp / "reports.json")],
            "anchors": ["anchors"],
        }[command]
        assert main([*argv, "--out", str(target)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == f"io error: [Errno 17] File exists: '{target}'\n"
        # sweep has printed its effective configuration, and nothing after it
        assert captured.out.split("# results\n")[-1] == ""
        assert target.read_text(encoding="utf-8") == "keep\n"

    @pytest.mark.parametrize("out", [True, False], ids=["out", "no-out"])
    def test_a_nan_is_refused_before_the_results_block(self, tmp_path, out, capsys):
        # 64 x 16 analog: the one tracking run at seed 1 draws a direction
        # with no CSI-RS occasion, so t_tr has no wait to average
        p = tmp_path / "nan.yaml"
        p.write_text(
            "gnb: {elements: 64}\nue: {elements: 16}\nss: {n_ss: 64}\n", encoding="utf-8"
        )
        out_dir = tmp_path / "out"
        argv = ["sweep", str(p), "--runs", "1", "--seed", "1"]
        if out:
            argv += ["--out", str(out_dir)]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out.endswith("# results\n")
        assert " = " not in captured.out
        # the report refuses its NaN mean when it is built
        assert captured.err == (
            "error: scenario sa_a64xa16_n3_nss64_tss20: t_tr.mean=nan: must be finite\n"
        )
        # --out makes its directory before the campaigns run, and no file
        assert sorted(tmp_path.rglob("*")) == ([p, out_dir] if out else [p])

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
        assert f"{quick_yaml}: campaign.n_runs=0: must be in 1..{MAX_RUNS}" in (
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
        cap = f"campaign.n_runs={runs}: must be in 1..{MAX_RUNS}\n"
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
        assert f"{quick_yaml}: campaign.seed=-1: must be non-negative" in err

    @pytest.mark.parametrize("value, shown", [("abc", "'abc'"), ("1.5", "1.5")])
    def test_seed_that_is_not_an_integer_exits_one(
        self, quick_yaml, value, shown, capsys
    ):
        # the flag's value is read as YAML and checked like the file's
        assert main(["sweep", str(quick_yaml), "--seed", value]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{quick_yaml}: campaign.seed={shown}: must be an integer\n" in err

    def test_negative_file_seed_exits_one(self, tmp_path, capsys):
        p = tmp_path / "neg.yaml"
        p.write_text("campaign: {seed: -1}\n", encoding="utf-8")
        for command in ("validate", "sweep"):
            assert main([command, str(p)]) == EXIT_CONFIG
            assert "campaign.seed=-1: must be non-negative" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "field, refusal",
        [
            ("t_tr", "kiviat axis t_tr_ms: scenario {} has non-positive mean delay 0.0"),
            ("omega_tr", "kiviat axis omega_tr: all values are zero"),
        ],
    )
    def test_kiviat_refusal_writes_nothing(self, quick_yaml, tmp_path, field, refusal, capsys):
        # kiviat takes 1 / mean of a delay, which a mean of 0 has not, and
        # scales an axis by its largest value; sweep writes no such report,
        # so its report is edited by hand
        camp = tmp_path / "camp"
        assert main(["sweep", str(quick_yaml), "--out", str(camp)]) == EXIT_OK
        payload = json.loads((camp / "reports.json").read_text(encoding="utf-8"))
        for report in payload["reports"]:
            if field == "t_tr":
                report["t_tr"]["mean"] = 0.0
            else:
                report[field] = 0.0
        (camp / "reports.json").write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        out_dir = tmp_path / "tables"
        code = main(["report", str(camp / "reports.json"), "--out", str(out_dir)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        sid = payload["reports"][0]["scenario_id"]
        assert captured.err == f"error: {refusal.format(sid)}\n"
        assert captured.out == ""
        assert not out_dir.exists()

    def test_no_reports_exits_one(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text('{"reports": []}', encoding="utf-8")
        assert main(["report", str(p)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "error: no reports found in the given files\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "token, shown",
        [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e999", "inf")],
    )
    @pytest.mark.parametrize("out", [True, False], ids=["out", "no-out"])
    def test_a_non_finite_number_is_refused(self, sweep_yaml, tmp_path, token, shown, out, capsys):
        # Python's json reads NaN and Infinity, which RFC 8259 has not, and
        # reads 1e999 as inf: the report they would build refuses them
        camp = tmp_path / "camp"
        assert main(["sweep", str(sweep_yaml), "--out", str(camp)]) == EXIT_OK
        payload = json.loads((camp / "reports.json").read_text(encoding="utf-8"))
        payload["reports"][1]["t_rlf"]["mean"] = "X"
        p = tmp_path / "edited.json"
        p.write_text(json.dumps(payload).replace('"X"', token), encoding="utf-8")
        sid = payload["reports"][1]["scenario_id"]
        capsys.readouterr()
        out_dir = tmp_path / "tables"
        argv = ["report", str(p)] + (["--out", str(out_dir)] if out else [])
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {p}: report JSON: reports[1]: scenario {sid}: "
            f"t_rlf.mean={shown}: must be finite\n"
        )
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

    def test_report_without_its_censored_count_exits_one(
        self, sweep_yaml, tmp_path, capsys
    ):
        camp = tmp_path / "camp"
        assert main(["sweep", str(sweep_yaml), "--out", str(camp)]) == EXIT_OK
        payload = json.loads((camp / "reports.json").read_text(encoding="utf-8"))
        del payload["reports"][0]["censored_tracking"]
        p = tmp_path / "old.json"
        p.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        out_dir = tmp_path / "tables"
        assert main(["report", str(p), "--out", str(out_dir)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and len(captured.err.splitlines()) == 1
        assert "old.json" in captured.err and "censored_tracking" in captured.err
        assert captured.out == "" and not out_dir.exists()

    def test_report_with_an_unknown_field_exits_one(self, sweep_yaml, tmp_path, capsys):
        camp = tmp_path / "camp"
        assert main(["sweep", str(sweep_yaml), "--out", str(camp)]) == EXIT_OK
        payload = json.loads((camp / "reports.json").read_text(encoding="utf-8"))
        payload["reports"][1]["extra"] = 0
        p = tmp_path / "extra.json"
        p.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(p)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        assert "extra.json" in captured.err
        assert captured.err.rstrip().endswith("reports[1] has unknown field 'extra'")

    @pytest.mark.parametrize("out", [True, False], ids=["out", "no-out"])
    def test_an_int_beyond_float_range_is_refused(self, sweep_yaml, tmp_path, out, capsys):
        # json reads a 401-digit int exactly, which no float holds
        camp = tmp_path / "camp"
        assert main(["sweep", str(sweep_yaml), "--out", str(camp)]) == EXIT_OK
        payload = json.loads((camp / "reports.json").read_text(encoding="utf-8"))
        payload["reports"][0]["t_ia"]["mean"] = 10**400
        sid = payload["reports"][0]["scenario_id"]
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        out_dir = tmp_path / "tables"
        argv = ["report", str(p)] + (["--out", str(out_dir)] if out else [])
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and not out_dir.exists()
        assert captured.err == (
            f"error: {p}: report JSON: reports[0]: scenario {sid}: "
            f"t_ia.mean=1{'0' * 400}: must be finite\n"
        )

    @pytest.mark.parametrize(
        "field, value, refusal",
        [
            ("m_gnb", None, "m_gnb=None: must be an integer"),
            ("scenario_id", 7, "scenario_id=7: must be a string"),
            ("accuracy", True, "accuracy=True: must be a real number"),
            (
                "t_ia",
                {"mean": "abc", "stderr": 0.1, "n_samples": 5},
                "t_ia.mean='abc': must be a real number",
            ),
        ],
        ids=["null-int", "int-str", "bool-float", "str-stat-mean"],
    )
    def test_a_value_of_the_wrong_kind_is_refused(
        self, sweep_yaml, tmp_path, field, value, refusal, capsys
    ):
        camp = tmp_path / "camp"
        assert main(["sweep", str(sweep_yaml), "--out", str(camp)]) == EXIT_OK
        payload = json.loads((camp / "reports.json").read_text(encoding="utf-8"))
        payload["reports"][0][field] = value
        sid = payload["reports"][0]["scenario_id"]
        p = tmp_path / "kind.json"
        p.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        out_dir = tmp_path / "tables"
        assert main(["report", str(p), "--out", str(out_dir)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and not out_dir.exists()
        assert captured.err == f"error: {p}: report JSON: reports[0]: scenario {sid}: {refusal}\n"

    def test_an_id_with_a_line_break_is_refused_on_one_line(
        self, sweep_yaml, tmp_path, capsys
    ):
        camp = tmp_path / "camp"
        assert main(["sweep", str(sweep_yaml), "--out", str(camp)]) == EXIT_OK
        payload = json.loads((camp / "reports.json").read_text(encoding="utf-8"))
        payload["reports"][0]["scenario_id"] = "a\nb"
        p = tmp_path / "nl.json"
        p.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(p)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {p}: report JSON: reports[0]: scenario 'a\\nb': "
            "scenario_id='a\\nb': must be a string on one line\n"
        )

    def test_missing_report_exits_three(self, tmp_path):
        assert main(["report", str(tmp_path / "none.json")]) == EXIT_IO


DEEP_YAML = "[" * 5000 + "]" * 5000
# integers past the interpreter's default 4300-digit limit: the decimal one
# fails to read, the 0x one (about 4800 digits) reads but fails to print
LONG_INTS = [pytest.param("1" * 5000, id="decimal"), pytest.param("0x" + "f" * 4000, id="hex")]
DIGIT_LIMIT = f"({sys.get_int_max_str_digits()} digits)"


class TestMalformedInput:
    """Input that the readers cannot take is an error naming the file or
    key, not a traceback."""

    @staticmethod
    def _assert_one_error(code, capsys, *names):
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert len(err) < 500
        assert "Traceback" not in err
        for name in names:
            assert name in err

    @pytest.mark.parametrize(
        "content, problem",
        [
            pytest.param(b"\xff\xfess: {n_ss: 8}\n", "can't decode", id="utf16-bom"),
            pytest.param(b"ss: {n_ss: \xe9}\n", "can't decode", id="latin1"),
            pytest.param(
                f"ss: {{n_ss: {DEEP_YAML}}}\n".encode(), "nested too deeply", id="nested-5000"
            ),
            pytest.param(
                f"sweep: {{ss.n_ss: {DEEP_YAML}}}\n".encode(),
                "nested too deeply",
                id="sweep-nested-5000",
            ),
            pytest.param(
                f"scenario_id: {DEEP_YAML}\n".encode(), "nested too deeply", id="id-nested-5000"
            ),
            # shallow text, but each alias nests the value once more
            pytest.param(
                (
                    "ss:\n  k0: &a0 [8]\n"
                    + "".join(f"  k{i + 1}: &a{i + 1} [*a{i}]\n" for i in range(5000))
                ).encode(),
                "nested too deeply",
                id="aliases-nested-5000",
            ),
            # libyaml composes nodes by recursion on the C stack
            pytest.param(
                b"ss: {n_ss: " + b"[" * 100_000 + b"]" * 100_000 + b"}\n",
                "nested too deeply",
                id="nested-100000",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_scenario_file(self, tmp_path, command, content, problem, capsys):
        p = tmp_path / "bad.yaml"
        p.write_bytes(content)
        self._assert_one_error(main([command, str(p)]), capsys, str(p), problem)

    @pytest.mark.parametrize(
        "content, at, key",
        [
            pytest.param("ss: {n_ss: 8, n_ss: 64}\n", "line 1, column 15", "n_ss", id="key"),
            pytest.param(
                "ss: {n_ss: 8}\nss:\n  t_ss_ms: 20\n", "line 2, column 1", "ss", id="section"
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_repeated_key(self, tmp_path, command, content, at, key, capsys):
        # YAML forbids it; PyYAML alone would keep the last value
        p = tmp_path / "twice.yaml"
        p.write_text(content, encoding="utf-8")
        self._assert_one_error(
            main([command, str(p)]),
            capsys,
            f"{p}, {at}: not valid YAML: found duplicate key {key!r} ",
        )

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_sweep_past_the_scenario_cap(self, tmp_path, command, capsys, monkeypatch):
        # refused before any scenario is built: each costs time and memory
        cap = scenario_io._MAX_SCENARIOS
        p = tmp_path / "huge.yaml"
        values = ", ".join(str(float(v)) for v in range(cap + 1))
        p.write_text(f"sweep:\n  power.c_chain_w: [{values}]\n", encoding="utf-8")
        built = []
        monkeypatch.setattr(scenario_io, "_build_scenario", lambda *args: built.append(args))
        self._assert_one_error(
            main([command, str(p)]),
            capsys,
            f"error: {p}: sweep: expands to {cap + 1} scenarios; at most {cap} are supported\n",
        )
        assert built == []

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

    @pytest.mark.parametrize(
        "template",
        [
            pytest.param("ss: {{n_ss: {}}}\n", id="value"),
            pytest.param("sweep: {{ss.n_ss: [8, {}]}}\n", id="swept-value"),
            pytest.param("? {}\n: 8\n", id="key"),
        ],
    )
    @pytest.mark.parametrize("number", LONG_INTS)
    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_integer_past_the_digit_limit(
        self, tmp_path, command, number, template, capsys
    ):
        p = tmp_path / "long.yaml"
        p.write_text(template.format(number), encoding="utf-8")
        self._assert_one_error(
            main([command, str(p)]), capsys, f"{p}: not valid YAML: ", DIGIT_LIMIT
        )

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_date_that_does_not_exist(self, tmp_path, command, capsys):
        p = tmp_path / "date.yaml"
        p.write_text("ss: {n_ss: 2001-02-30}\n", encoding="utf-8")
        self._assert_one_error(
            main([command, str(p)]), capsys, f"{p}: not valid YAML: ", "day is out of range"
        )

    @pytest.mark.parametrize("number", LONG_INTS)
    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_set_integer_past_the_digit_limit(self, quick_yaml, command, number, capsys):
        code = main([command, str(quick_yaml), "--set", f"campaign.n_runs={number}"])
        # the line names the key and the limit, and does not echo the digits
        self._assert_one_error(
            code, capsys, f"{quick_yaml}: campaign.n_runs: ", DIGIT_LIMIT
        )

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
            pytest.param(
                b'{"reports": [{"n_runs": ' + b"1" * 5000 + b"}]}", id="integer-5000-digits"
            ),
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
        blobs = []
        for sub in ("a", "b"):
            proc = _fresh_python(script, tmp_path / sub)
            assert proc.returncode == EXIT_OK, proc.stderr
            assert "20/20 anchors passed" in proc.stdout
            blobs.append((tmp_path / sub / "anchors.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_no_command_loads_scipy(self, sweep_yaml, tmp_path):
        # scipy is no dependency, so no command may import it where it is
        # installed
        script = (
            "import sys\n"
            "from nrbeamsim.cli import main\n"
            "scenario, out = sys.argv[1:]\n"
            "codes = [\n"
            "    main(['validate', scenario]),\n"
            "    main(['sweep', scenario, '--runs', '20', '--out', out]),\n"
            "    main(['anchors']),\n"
            "    main(['report', out + '/reports.json']),\n"
            "]\n"
            "assert codes == [0, 0, 0, 0], codes\n"
            "scipy = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
            "assert not scipy, scipy\n"
        )
        proc = _fresh_python(script, sweep_yaml, tmp_path / "out")
        assert proc.returncode == EXIT_OK, proc.stderr


def _fresh_python(script: str, *args) -> subprocess.CompletedProcess:
    """``script`` run with ``args`` by a fresh interpreter that imports
    this checkout's package and turns warnings into errors."""
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", script, *map(str, args)],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=300,
    )
