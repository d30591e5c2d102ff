"""Built-in regression anchors.

Each anchor checks one published-figure-grade property of the model:
closed-form recovery delays, NSA constants, overhead ratios, power
points, reporting-delay orderings, detection-accuracy orderings and
tracking behaviour. ``run_anchors`` evaluates them all and returns one
result per check; the CLI prints a line each and fails the process if
any gated anchor fails. Calibration lines report reference values
without gating (their absolute scale depends on scheduler details the
model does not pin down).

Every anchor reads closed forms only, so the set is deterministic and
draws no random number. The simulation side of the same checks is the
acceptance suite's: criteria 01, 02, 06 and 08 hold the campaigns to
these closed forms.
"""
from __future__ import annotations

from dataclasses import dataclass

from .codebook import Architecture, ArrayConfig, PowerModel, power_consumption_w
from .evaluation import omega_ia_for, omega_tr_for
from .frame import CsiRsConfig, SsBurstConfig, make_numerology
from .link import ChannelParams, misdetection_probability
from .procedures import (
    LTE_LATENCY_VALUES_MS,
    DeploymentMode,
    Scenario,
    expected_beam_report_delay_ms,
    expected_tracking_delay_ms,
    oracle_expected_rlf_sa,
)
from .reporting import _to_csv

RLF_ANCHORS_MS = ((40.0, 20.0535), (80.0, 40.0535))
RLF_ANCHOR_TOL_MS = 0.002
OMEGA_GRID = ((8, 20.0), (8, 80.0), (64, 20.0), (64, 80.0))
OMEGA_NORMALIZED = {(64, 20.0): 10.0, (64, 80.0): 2.5, (8, 20.0): 1.25, (8, 80.0): 0.3125}
DIGITAL_POWER_POINTS_W = {4: 64.359, 16: 257.433, 64: 1030.74}
DIGITAL_POWER_RTOL = 0.005
ANALOG_POWER_POINTS_W = {4: 16.2847, 16: 16.9867, 64: 19.7947}
ANALOG_POWER_ATOL_W = 0.001
REPORT_BAR_TARGETS_MS = {(64, 8): 40.56, (64, 64): 1.562, (16, 64): 0.5, (4, 64): 0.0625}


@dataclass(frozen=True)
class AnchorResult:
    name: str
    passed: bool
    detail: str
    gated: bool = True


def _scenario(
    m_gnb: int = 64,
    m_ue: int = 1,
    arch_gnb: Architecture = Architecture.ANALOG,
    arch_ue: Architecture = Architecture.ANALOG,
    n: int = 3,
    n_ss: int = 64,
    t_ss_ms: float = 20.0,
    t_csi_slots: int = 5,
    mode: DeploymentMode = DeploymentMode.SA,
    lte_latency_ms: float | None = None,
) -> Scenario:
    return Scenario(
        gnb=ArrayConfig(elements=m_gnb, arch=arch_gnb),
        ue=ArrayConfig(elements=m_ue, arch=arch_ue),
        numerology=make_numerology(n),
        ss=SsBurstConfig(n_ss=n_ss, t_ss_ms=t_ss_ms),
        csi=CsiRsConfig(t_csi_slots=t_csi_slots),
        mode=mode,
        lte_latency_ms=lte_latency_ms,
    )


def _check_rlf_anchors() -> list[AnchorResult]:
    out = []
    for t_ss, expect in RLF_ANCHORS_MS:
        sc = _scenario(
            m_gnb=64,
            arch_gnb=Architecture.DIGITAL,
            m_ue=1,
            n_ss=64,
            t_ss_ms=t_ss,
        )
        oracle = oracle_expected_rlf_sa(sc)
        out.append(
            AnchorResult(
                name=f"rlf_recovery_mean_t_ss_{t_ss:g}",
                passed=abs(oracle - expect) <= RLF_ANCHOR_TOL_MS,
                detail=(
                    f"oracle {oracle:.6f} ms vs reference {expect:g} "
                    f"(tol {RLF_ANCHOR_TOL_MS:g})"
                ),
            )
        )
    return out


def _check_nsa_constants() -> list[AnchorResult]:
    out = []
    for lte in LTE_LATENCY_VALUES_MS:
        t_br = expected_beam_report_delay_ms(
            _scenario(mode=DeploymentMode.NSA, lte_latency_ms=lte)
        )
        out.append(
            AnchorResult(
                name=f"nsa_constants_lte_{lte:g}",
                passed=t_br == lte,
                detail=f"t_br {t_br:g} ms, target {lte:g} (exact)",
            )
        )
    return out


def _check_omega_ia_ratios() -> AnchorResult:
    values = {}
    for n_ss, t_ss in OMEGA_GRID:
        values[(n_ss, t_ss)] = omega_ia_for(_scenario(n_ss=n_ss, t_ss_ms=t_ss))
    top = max(values.values())
    worst = 0.0
    for key, v in values.items():
        normalized = 10.0 * v / top
        rel = abs(normalized - OMEGA_NORMALIZED[key]) / OMEGA_NORMALIZED[key]
        worst = max(worst, rel)
    return AnchorResult(
        name="omega_ia_grid_ratios",
        passed=worst < 1e-9,
        detail=(
            "normalized SS overhead over (n_ss, t_ss) grid matches "
            f"{{10, 2.5, 1.25, 0.3125}}; worst relative error {worst:.3g}"
        ),
    )


def _check_power_points() -> list[AnchorResult]:
    out = []
    worst_rel = 0.0
    for m, target in DIGITAL_POWER_POINTS_W.items():
        got = power_consumption_w(
            ArrayConfig(elements=m, arch=Architecture.DIGITAL), PowerModel()
        )
        worst_rel = max(worst_rel, abs(got - target) / target)
    out.append(
        AnchorResult(
            name="power_digital_points",
            passed=worst_rel <= DIGITAL_POWER_RTOL,
            detail=(
                f"digital draw at M in {sorted(DIGITAL_POWER_POINTS_W)} within "
                f"{DIGITAL_POWER_RTOL:.1%} of references; worst {worst_rel:.3%}"
            ),
        )
    )
    worst_abs = 0.0
    for m, target in ANALOG_POWER_POINTS_W.items():
        got = power_consumption_w(
            ArrayConfig(elements=m, arch=Architecture.ANALOG), PowerModel()
        )
        worst_abs = max(worst_abs, abs(got - target))
    out.append(
        AnchorResult(
            name="power_analog_points",
            passed=worst_abs <= ANALOG_POWER_ATOL_W,
            detail=(
                f"analog draw at M in {sorted(ANALOG_POWER_POINTS_W)} within "
                f"{ANALOG_POWER_ATOL_W:g} W of references; worst {worst_abs:.4f} W"
            ),
        )
    )
    return out


def _report_delay(m_gnb: int, n_ss: int) -> float:
    return expected_beam_report_delay_ms(
        _scenario(m_gnb=m_gnb, m_ue=1, n_ss=n_ss, t_ss_ms=20.0)
    )


def _check_report_orderings() -> list[AnchorResult]:
    e4 = _report_delay(4, 64)
    e16 = _report_delay(16, 64)
    e64_n8 = _report_delay(64, 8)
    e64_n64 = _report_delay(64, 64)
    out = [
        AnchorResult(
            name="t_br_small_arrays_fast",
            passed=e4 < e16 < 0.8,
            detail=f"t_br(M=4) {e4:.4f} < t_br(M=16) {e16:.4f} < 0.8 ms at n_ss=64",
        ),
        AnchorResult(
            name="t_br_large_array_sparse_burst_slow",
            passed=e64_n8 > 10.0,
            detail=f"t_br(M=64, n_ss=8) {e64_n8:.3f} ms > 10 ms",
        ),
        AnchorResult(
            name="t_br_large_array_dense_burst_faster",
            passed=e64_n64 < e64_n8,
            detail=f"t_br(M=64, n_ss=64) {e64_n64:.4f} < t_br(M=64, n_ss=8) {e64_n8:.3f}",
        ),
        AnchorResult(
            name="t_br_monotone_in_m_gnb",
            passed=e4 <= e16 <= e64_n64 and _report_delay(4, 8) <= _report_delay(16, 8) <= e64_n8,
            detail="t_br non-decreasing in M_gnb at fixed n_ss (8 and 64)",
        ),
    ]
    for (m, n_ss), target in sorted(REPORT_BAR_TARGETS_MS.items()):
        got = _report_delay(m, n_ss)
        out.append(
            AnchorResult(
                name=f"calibration_t_br_m{m}_nss{n_ss}",
                passed=True,
                gated=False,
                detail=f"computed {got:.4f} ms, reference bar {target:g} ms (not gated)",
            )
        )
    return out


def _check_accuracy_ordering() -> AnchorResult:
    cp = ChannelParams()
    accs = {}
    for m_g, m_u in ((64, 16), (64, 1), (4, 4)):
        accs[(m_g, m_u)] = 1.0 - misdetection_probability(
            ArrayConfig(elements=m_g, arch=Architecture.ANALOG),
            ArrayConfig(elements=m_u, arch=Architecture.ANALOG),
            cp,
        )
    ok = accs[(64, 16)] > accs[(64, 1)] > accs[(4, 4)]
    return AnchorResult(
        name="accuracy_ordering",
        passed=bool(ok),
        detail=(
            f"1-P_md: 64x16 {accs[(64, 16)]:.4f} > 64x1 {accs[(64, 1)]:.4f} > "
            f"4x4 {accs[(4, 4)]:.4f}"
        ),
    )


def _check_tracking() -> list[AnchorResult]:
    scenarios = {
        (n_ss, t_ss): _scenario(
            m_gnb=64,
            arch_gnb=Architecture.DIGITAL,
            m_ue=16,
            n_ss=n_ss,
            t_ss_ms=t_ss,
            t_csi_slots=5,
        )
        for n_ss in (8, 64)
        for t_ss in (20.0, 80.0)
    }
    means = {key: expected_tracking_delay_ms(sc) for key, sc in scenarios.items()}
    ok_order = means[(8, 80.0)] <= means[(8, 20.0)] and means[(64, 80.0)] <= means[
        (64, 20.0)
    ]
    distinct = {omega_tr_for(sc) for sc in scenarios.values()}
    return [
        AnchorResult(
            name="tracking_sparser_bursts_track_faster",
            passed=ok_order,
            detail=(
                "closed-form mean t_tr at t_ss=80 "
                f"{means[(8, 80.0)]:.4f}/{means[(64, 80.0)]:.4f} "
                f"<= at t_ss=20 {means[(8, 20.0)]:.4f}/{means[(64, 20.0)]:.4f} ms"
            ),
        ),
        AnchorResult(
            name="tracking_overhead_invariant",
            passed=len(distinct) == 1,
            detail=f"omega_tr identical across burst configs: {sorted(distinct)}",
        ),
    ]


def run_anchors() -> list[AnchorResult]:
    """Evaluate every anchor."""
    results: list[AnchorResult] = []
    results += _check_rlf_anchors()
    results += _check_nsa_constants()
    results.append(_check_omega_ia_ratios())
    results += _check_power_points()
    results += _check_report_orderings()
    results.append(_check_accuracy_ordering())
    results += _check_tracking()
    return results


def anchors_csv(results: list[AnchorResult]) -> str:
    return _to_csv(
        ("name", "status", "gated", "detail"),
        ((r.name, "pass" if r.passed else "FAIL", str(r.gated), r.detail) for r in results),
    )
