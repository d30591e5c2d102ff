"""Check a sweep's ``reports.json`` against the closed-form oracles.

Every scenario of a workload is checked on its own, so a defect shows as
a count of failing scenarios rather than as one pass/fail bit:

* SA ``t_ia`` and ``t_rlf`` lie within ``K_STDERR`` standard errors of
  ``oracle_expected_ia`` and ``oracle_expected_rlf_sa``;
* NSA ``t_br`` and ``t_rlf`` equal ``lte_latency_ms`` exactly, with zero
  standard error;
* ``t_tr`` lies within ``K_STDERR`` standard errors of
  ``expected_tracking_delay_ms`` wherever no tracking run was censored
  (the oracle is the censoring-free mean);
* the report carries the scenario's id, mode, seed and run count, in the
  order the sweep expands.

``K_STDERR`` is 5. The worst |z| among the workloads' SA z-tests at
seed 42 is about 2.4. With at most a hundred z-tests in a workload, a
chance 5-sigma miss happens in fewer than 1 of 10 000 runs, while a
mean shifted by 10 standard errors still fails.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from nrbeamsim.errors import NotApplicableError
from nrbeamsim.procedures import (
    DeploymentMode,
    Scenario,
    expected_tracking_delay_ms,
    oracle_expected_ia,
    oracle_expected_rlf_sa,
)

K_STDERR = 5.0


@dataclass
class Verdict:
    """Outcome of checking one reports.json against its scenarios."""

    scenarios: int
    failures: list[tuple[str, str]] = field(default_factory=list)
    max_abs_z: float = 0.0

    @property
    def failed(self) -> int:
        return len({sid for sid, _ in self.failures})


def _z_fails(stat: Mapping[str, Any], expected: float) -> tuple[Optional[str], float]:
    mean, se = stat["mean"], stat["stderr"]
    if not (math.isfinite(mean) and math.isfinite(se)):
        return f"non-finite mean {mean!r} or stderr {se!r}", math.inf
    if se == 0.0:
        if abs(mean - expected) <= 1e-9 * max(1.0, abs(expected)):
            return None, 0.0
        return f"deterministic mean {mean!r} != oracle {expected!r}", math.inf
    z = (mean - expected) / se
    if abs(z) > K_STDERR:
        return f"mean {mean:.6g} is {z:+.2f} stderr from oracle {expected:.6g}", abs(z)
    return None, abs(z)


def check_scenario(
    sc: Scenario, rep: Mapping[str, Any], seed: int, n_runs: int
) -> tuple[list[str], float]:
    """Reasons this scenario's report is wrong (empty when it passes), max |z|."""
    reasons: list[str] = []
    worst = 0.0
    for key, want in (
        ("scenario_id", sc.scenario_id),
        ("mode", sc.mode.value),
        ("seed", seed),
        ("n_runs", n_runs),
    ):
        if rep.get(key) != want:
            reasons.append(f"{key}={rep.get(key)!r}, expected {want!r}")

    if sc.mode is DeploymentMode.NSA:
        for key in ("t_br", "t_rlf"):
            stat = rep[key]
            if stat["mean"] != sc.lte_latency_ms or stat["stderr"] != 0.0:
                reasons.append(
                    f"NSA {key} = {stat['mean']!r} +/- {stat['stderr']!r}, "
                    f"expected exactly {sc.lte_latency_ms!r}"
                )
    else:
        for key, oracle in (("t_ia", oracle_expected_ia), ("t_rlf", oracle_expected_rlf_sa)):
            why, z = _z_fails(rep[key], oracle(sc))
            worst = max(worst, z)
            if why:
                reasons.append(f"SA {key}: {why}")

    if rep["censored_tracking"] == 0:
        try:
            expected = expected_tracking_delay_ms(sc)
        except NotApplicableError as exc:
            reasons.append(f"t_tr uncensored but the oracle refuses: {exc}")
        else:
            why, z = _z_fails(rep["t_tr"], expected)
            worst = max(worst, z)
            if why:
                reasons.append(f"t_tr: {why}")
    return reasons, worst


def check_reports(
    scenarios: Sequence[Scenario], text: str, seed: int, n_runs: int
) -> Verdict:
    """Check every scenario's report in ``text`` (the reports.json bytes)."""
    verdict = Verdict(scenarios=len(scenarios))
    try:
        reports = json.loads(text)["reports"]
    except (ValueError, KeyError, TypeError) as exc:
        verdict.failures = [(sc.scenario_id, f"unreadable reports.json: {exc}") for sc in scenarios]
        return verdict
    if len(reports) != len(scenarios):
        verdict.failures = [
            (sc.scenario_id, f"{len(reports)} reports for {len(scenarios)} scenarios")
            for sc in scenarios
        ]
        return verdict
    for sc, rep in zip(scenarios, reports):
        try:
            reasons, worst = check_scenario(sc, rep, seed, n_runs)
        except (KeyError, TypeError) as exc:
            reasons, worst = [f"malformed report: {exc!r}"], 0.0
        verdict.max_abs_z = max(verdict.max_abs_z, worst if math.isfinite(worst) else 0.0)
        verdict.failures.extend((sc.scenario_id, r) for r in reasons)
    return verdict
