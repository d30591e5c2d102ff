"""Acceptance gate: ten checks, one verdict line each.

Every test prints ``criterion NN: PASS|FAIL - detail`` (visible under
``pytest -rA`` or on failure) and asserts the same condition, so the
suite reads as a checklist. Tolerances are pinned here and nowhere
else; statistical gates use three standard errors at fixed seeds, which
makes them deterministic.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_scenario
from nrbeamsim.anchors import anchors_csv, run_anchors
from nrbeamsim.cli import EXIT_CONFIG, EXIT_OK, main
from nrbeamsim.codebook import Architecture, ArrayConfig, PowerModel, power_consumption_w
from nrbeamsim.errors import ConfigurationError
from nrbeamsim.evaluation import (
    CampaignSettings,
    estimate_metrics,
    omega_ia_for,
    omega_tr_for,
    stat_from_samples,
)
from nrbeamsim.frame import CsiRsConfig, Numerology, SsBurstConfig
from nrbeamsim.link import ChannelParams, misdetection_probability
from nrbeamsim.procedures import (
    LTE_LATENCY_VALUES_MS,
    expected_beam_report_delay_ms,
    oracle_expected_ia,
    oracle_expected_rlf_sa,
    simulate_ia_batch,
    simulate_rlf_batch,
    simulate_tracking_batch,
    tracking_plan,
)
from nrbeamsim.reporting import reports_to_csv, reports_to_json

SEED = 42


def verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_criterion_01_recovery_delay_anchors(self):
        t0 = time.perf_counter()
        details = []
        ok = True
        for t_ss, reference in ((40.0, 20.0535), (80.0, 40.0535)):
            sc = make_scenario(
                m_gnb=64, arch_gnb="digital", m_ue=1, n_ss=64, t_ss_ms=t_ss
            )
            oracle = oracle_expected_rlf_sa(sc)
            ia = simulate_ia_batch(sc, 100_000, np.random.default_rng(SEED))
            batch = simulate_rlf_batch(sc, ia)
            stat = stat_from_samples(batch.t_total_ms)
            ok_oracle = abs(oracle - reference) <= 0.002
            ok_sim = abs(stat.mean - oracle) <= 3.0 * stat.stderr
            ok = ok and ok_oracle and ok_sim
            details.append(
                f"t_ss={t_ss:g}: oracle {oracle:.4f} vs {reference} (tol 0.002), "
                f"sim {stat.mean:.4f}+/-{stat.stderr:.4f}"
            )
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 5.0
        details.append(f"{elapsed:.2f}s < 5s")
        verdict(1, ok, "; ".join(details))

    def test_criterion_02_nsa_legs_are_exact(self):
        ok = True
        for lte in LTE_LATENCY_VALUES_MS:
            sc = make_scenario(mode="NSA", lte_latency_ms=lte)
            ia = simulate_ia_batch(sc, 1000, np.random.default_rng(SEED))
            batch = simulate_rlf_batch(sc, ia)
            rep = estimate_metrics(sc, CampaignSettings(n_runs=500, seed=SEED))
            ok = ok and bool(np.all(batch.t_total_ms == lte))
            ok = ok and expected_beam_report_delay_ms(sc) == lte
            ok = ok and rep.t_br.mean == lte and rep.t_br.stderr == 0.0
            ok = ok and rep.t_rlf.mean == lte and rep.t_rlf.stderr == 0.0
        verdict(
            2,
            ok,
            f"t_br and t_rlf equal the LTE leg exactly over {LTE_LATENCY_VALUES_MS}",
        )

    def test_criterion_03_ss_overhead_grid(self):
        targets = {
            (64, 20.0): 10.0,
            (64, 80.0): 2.5,
            (8, 20.0): 1.25,
            (8, 80.0): 0.3125,
        }
        values = {
            key: omega_ia_for(make_scenario(n_ss=key[0], t_ss_ms=key[1]))
            for key in targets
        }
        top = max(values.values())
        worst = max(
            abs(10.0 * values[k] / top - t) / t for k, t in targets.items()
        )
        verdict(
            3,
            worst < 1e-9,
            f"normalized SS overhead grid {{10, 2.5, 1.25, 0.3125}}, "
            f"worst relative error {worst:.3g} < 1e-9",
        )

    def test_criterion_04_power_model_points(self):
        pm = PowerModel()
        digital = {4: 64.359, 16: 257.433, 64: 1030.74}
        analog = {4: 16.2847, 16: 16.9867, 64: 19.7947}
        worst_rel = max(
            abs(
                power_consumption_w(ArrayConfig(m, Architecture.DIGITAL), pm) - t
            )
            / t
            for m, t in digital.items()
        )
        worst_abs = max(
            abs(power_consumption_w(ArrayConfig(m, Architecture.ANALOG), pm) - t)
            for m, t in analog.items()
        )
        ok = worst_rel <= 0.005 and worst_abs <= 0.001
        verdict(
            4,
            ok,
            f"digital draw within {worst_rel:.2%} (<=0.5%), "
            f"analog within {worst_abs:.2e} W (<=0.001 W)",
        )

    def test_criterion_05_reporting_delay_orderings(self):
        def t_br(m_gnb: int, n_ss: int) -> float:
            return expected_beam_report_delay_ms(
                make_scenario(m_gnb=m_gnb, m_ue=1, n_ss=n_ss)
            )

        e4 = t_br(4, 64)
        e16 = t_br(16, 64)
        e64_n64 = t_br(64, 64)
        e64_n8 = t_br(64, 8)
        ok = (
            e4 < e16 < 0.8
            and e64_n8 > 10.0
            and e64_n64 < e64_n8
            and e4 <= e16 <= e64_n64
        )
        verdict(
            5,
            ok,
            f"t_br(4)={e4:.4f} < t_br(16)={e16:.4f} < 0.8 ms at n_ss=64; "
            f"t_br(64, n_ss=8)={e64_n8:.2f} > 10 ms; dense bursts faster "
            f"({e64_n64:.4f} < {e64_n8:.2f}); monotone in M",
        )

    def test_criterion_06_simulator_matches_oracle_everywhere(self):
        rng = np.random.default_rng(2026)
        t0 = time.perf_counter()
        worst_z = 0.0
        for _ in range(20):
            arch_g = rng.choice(["analog", "digital"])
            kw = dict(
                m_gnb=int(rng.choice([4, 8, 16, 32, 64])),
                m_ue=int(rng.choice([1, 2, 4, 8, 16])),
                arch_gnb=str(arch_g),
                n_ss=int(rng.choice([4, 8, 16, 32, 64])),
                t_ss_ms=float(rng.choice([5.0, 10.0, 20.0, 40.0, 80.0])),
            )
            if rng.uniform() < 0.25:
                kw["mode"] = "NSA"
                kw["lte_latency_ms"] = float(rng.choice(LTE_LATENCY_VALUES_MS))
            sc = make_scenario(**kw)
            batch = simulate_ia_batch(sc, 10_000, np.random.default_rng(SEED))
            stat = stat_from_samples(batch.t_total_ms)
            z = abs(stat.mean - oracle_expected_ia(sc)) / stat.stderr
            worst_z = max(worst_z, z)
        elapsed = time.perf_counter() - t0
        ok = worst_z <= 3.0 and elapsed < 30.0
        verdict(
            6,
            ok,
            f"20 randomized campaigns, 1e4 runs each: worst |z| {worst_z:.2f} "
            f"<= 3 SE, {elapsed:.1f}s < 30s",
        )

    def test_criterion_07_accuracy_ordering(self):
        cp = ChannelParams()
        acc = {}
        for m_g, m_u in ((64, 16), (64, 1), (4, 4)):
            acc[(m_g, m_u)] = 1.0 - misdetection_probability(
                ArrayConfig(m_g, Architecture.ANALOG),
                ArrayConfig(m_u, Architecture.ANALOG),
                cp,
            )
        ok = acc[(64, 16)] > acc[(64, 1)] > acc[(4, 4)]
        verdict(
            7,
            ok,
            f"accuracy strictly ordered by combined gain: "
            f"{acc[(64, 16)]:.4f} > {acc[(64, 1)]:.4f} > {acc[(4, 4)]:.4f}",
        )

    def test_criterion_08_tracking_period_and_overhead(self):
        means = {}
        omegas = set()
        for n_ss in (8, 64):
            for t_ss in (20.0, 80.0):
                sc = make_scenario(
                    m_gnb=64,
                    arch_gnb="digital",
                    m_ue=16,
                    n_ss=n_ss,
                    t_ss_ms=t_ss,
                    csi=CsiRsConfig(t_csi_slots=5),
                )
                waits, _ = simulate_tracking_batch(
                    tracking_plan(sc), 10_000, np.random.default_rng(SEED)
                )
                means[(n_ss, t_ss)] = float(np.nanmean(waits))
                omegas.add(omega_tr_for(sc))
        ok_order = (
            means[(8, 80.0)] <= means[(8, 20.0)]
            and means[(64, 80.0)] <= means[(64, 20.0)]
        )
        ok = ok_order and len(omegas) == 1
        verdict(
            8,
            ok,
            f"mean t_tr at t_ss=80 ({means[(8, 80.0)]:.3f}/{means[(64, 80.0)]:.3f} ms) "
            f"<= at t_ss=20 ({means[(8, 20.0)]:.3f}/{means[(64, 20.0)]:.3f} ms); "
            f"omega_tr single value {omegas.pop():.6g} across all four",
        )

    def test_criterion_09_invalid_configs_rejected(self, tmp_path):
        constructors = [
            lambda: SsBurstConfig(n_ss=8, t_ss_ms=15.0),
            lambda: CsiRsConfig(t_csi_slots=7),
            lambda: CsiRsConfig(n_symbols=3),
            lambda: CsiRsConfig(bandwidth_rb=30),
            lambda: Numerology(5),
        ]
        lib_ok = True
        for build in constructors:
            try:
                build()
                lib_ok = False
            except ConfigurationError:
                pass

        overrides = [
            "ss.t_ss_ms=15",
            "csi.t_csi_slots=7",
            "csi.n_symbols=3",
            "csi.bandwidth_rb=30",
            "numerology.n=5",
        ]
        yaml_path = tmp_path / "probe.yaml"
        yaml_path.write_text("", encoding="utf-8")
        cli_ok = main(["validate", str(yaml_path)]) == EXIT_OK
        for override in overrides:
            code = main(["validate", str(yaml_path), "--set", override])
            cli_ok = cli_ok and code == EXIT_CONFIG
        ok = lib_ok and cli_ok
        verdict(
            9,
            ok,
            "five invalid configurations raise ConfigurationError in the "
            "library and exit 1 from the CLI (valid baseline exits 0)",
        )

    def test_criterion_10_bytewise_reproducibility(self, tmp_path):
        sc_yaml = tmp_path / "rep.yaml"
        sc_yaml.write_text(
            "ss: {n_ss: 8}\n"
            "gnb: {elements: 16}\n"
            "ue: {elements: 1}\n"
            "campaign: {n_runs: 2000, seed: 42}\n"
            "sweep: {deployment.mode: [SA, NSA], deployment.lte_latency_ms: [10]}\n",
            encoding="utf-8",
        )
        src = Path(__file__).resolve().parents[1] / "src"
        pythonpath = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "nrbeamsim",
                    "sweep",
                    str(sc_yaml),
                    "--out",
                    str(out),
                ],
                env=dict(os.environ, PYTHONPATH=pythonpath),
                capture_output=True,
                text=True,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            blobs.append(
                (
                    (out / "reports.csv").read_bytes(),
                    (out / "reports.json").read_bytes(),
                )
            )
        files_ok = blobs[0] == blobs[1]

        campaign = CampaignSettings(n_runs=500, seed=SEED)
        reports = [estimate_metrics(make_scenario(n_ss=8), campaign) for _ in range(2)]
        lib_ok = reports_to_csv(reports[:1]) == reports_to_csv(reports[1:])
        lib_ok = lib_ok and reports_to_json(reports[:1]) == reports_to_json(reports[1:])

        anchors_ok = anchors_csv(run_anchors()) == anchors_csv(run_anchors())
        ok = files_ok and lib_ok and anchors_ok
        verdict(
            10,
            ok,
            "reruns at seed 42 are byte-identical: campaign CSV/JSON across "
            "processes, report serialization in-process, anchors CSV",
        )
