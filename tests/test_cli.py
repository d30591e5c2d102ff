from __future__ import annotations

import json

import pytest

from nrbeamsim.cli import (
    EXIT_ANCHOR,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    SEED_ENV_VAR,
    main,
)


@pytest.fixture
def quick_yaml(tmp_path):
    p = tmp_path / "case.yaml"
    p.write_text(
        "ss: {n_ss: 8}\n"
        "gnb: {elements: 16}\n"
        "ue: {elements: 1}\n"
        "campaign: {n_runs: 200, seed: 11, n_drops: 200}\n",
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
        "campaign: {n_runs: 150, seed: 11, n_drops: 150}\n"
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
        ],
    )
    def test_invalid_configs_exit_one(self, quick_yaml, override, capsys):
        code = main(["validate", str(quick_yaml), "--set", override])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_exits_one(self, quick_yaml, capsys):
        code = main(["validate", str(quick_yaml), "--set", "ss.bogus=1"])
        assert code == EXIT_CONFIG

    def test_missing_file_exits_three(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path / "nope.yaml")])
        assert code == EXIT_IO
        assert "io error" in capsys.readouterr().err


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
