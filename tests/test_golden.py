"""Golden digests of the benchmark sweeps' outputs at seeds 42 and 7,
and of the mixed-architecture sweeps under ``tests/scenarios``.

Pinned: ``reports.json`` and ``reports.csv`` from ``beamsim sweep``, the
``# results`` lines ``sweep`` prints, and the three tables and
``kiviat.json`` that ``beamsim report --out`` writes from that
``reports.json``; for the mixed-architecture sweeps, the two report
files only. A refactor that keeps the model must keep these bytes at
every seed. A change that means to alter results updates the digests
here and records the new values, and why, in CHANGES.md.

Every pinned campaign's ``reports.json`` also passes the benchmark's
correctness gate, ``nrbench/checker.py``, with no failed scenario.
"""
from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from nrbeamsim.cli import EXIT_OK, main
from nrbeamsim.scenario_io import parse_scenario

BENCH = Path(__file__).resolve().parents[1] / "nrbench"
WORKLOADS = BENCH / "workloads"
SCENARIOS = Path(__file__).resolve().parent / "scenarios"

# the benchmark's checker, loaded from its file, as nrbench is no package;
# its dataclasses need the module registered before it runs
_spec = importlib.util.spec_from_file_location("nrbench_checker", BENCH / "checker.py")
checker = sys.modules.setdefault(_spec.name, importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(checker)

# (workload, seed) -> sha256 of reports.json and of reports.csv
DIGESTS = {
    ("dense_grid", 42): (
        "f5719e626bba05978be3575cf55845f218d1366f48f6b56848017a900b02bd57",
        "161b7cd0a17ecf122981e3dc4df3675b50c64f5cbd8f08118cb4fd08bb607892",
    ),
    ("dense_grid", 7): (
        "cb7b24de95b7a051356ef90fc5260e9d97cd6218ed5b7397b483aceffc43a0db",
        "c70ece9149b7c8793a0305cb5f5bbab0dfde5404d93dadb05bf443b72432d250",
    ),
    ("wide_arrays", 42): (
        "b1c7e0ce102815a33ffafb4186ea6c859673bb8906a02f568e1286d113b526c0",
        "1523d2a8d7e32d92c26239aa5b84fcaab33d718f7327e9fa08518e1a11cf1a79",
    ),
    ("wide_arrays", 7): (
        "b8cc123d290d12c00a5e04547369c9819503f0359949ad1ae40e983678e682bb",
        "561e96d36c7667b93778cc08b7fc97e3f875b5a823bc2e3d067ddb7beb7e0abe",
    ),
}

REPORT_FILES = ("t_br_by_gnb.csv", "power_overhead.csv", "t_rlf_table.csv", "kiviat.json")

# (workload, seed) -> sha256 of the `# results` lines of `sweep` stdout,
# then of each of REPORT_FILES
OUTPUT_DIGESTS = {
    ("dense_grid", 42): (
        "a703377196ef5ff1ace2a3f267ab4a5d399daa5d900f4a7006faa2838e187083",
        "74a30657fcf1b917b89b7f50dbf297da7a588fba361fd1127ec8633d268c39cd",
        "d5d3752584b608ce353369c05f06e074e098842e15ce3b9e9822de9b18b38d53",
        "22d73d4be8ce981b8c557ba89f9de38f8f6c777d4d35042413708d31599c5730",
        "c69477e2fde42f0b82c01396cd6691e9c0b0cd72ce3ec498ba57a79999350497",
    ),
    ("dense_grid", 7): (
        "6e88a7daf27953426854fa07af13e15044d8ae1236364f42c5d1a6eafd26dd1b",
        "3fcba6151c62c579590b2654ef92306979f664b05bdcf49605999309173294cf",
        "d5d3752584b608ce353369c05f06e074e098842e15ce3b9e9822de9b18b38d53",
        "37096a42dad65935bb12706490582cd2dd2b99bf68123d961cc8214828465c98",
        "5c949f2a5da9807620f8232833f064df0ed8c072657ba24794b00eed81b78665",
    ),
    ("wide_arrays", 42): (
        "43b799c2582c48750eddc2a0f289e50f112087e9769bcdc83c861ab406dd6bd5",
        "ed36d9f294b31c3e4dddafc7e6ed529168431eece5fd6704342e0d4b117f0991",
        "ae3e1573fe3525b3eb1cf63bf2e231fa3f3f2cfbddd730d509055d39c45ce3e1",
        "4b94915b144c1b4d378b7e446c8cc9c9e3334398b877e520d16ba53d80a6a075",
        "61e994e3d3dd50f5f26e233b077c2660bba36c5e46e5f8018ab45bebde3b6ff5",
    ),
    ("wide_arrays", 7): (
        "06d57e6c8127a3ad3a620a941d75f005465f1f770fe1db7e318cc035d8769dea",
        "7e500d3a1902c01bf12662064836282573179e49dfe0bda2b8d1ab9d3f2dad1f",
        "ae3e1573fe3525b3eb1cf63bf2e231fa3f3f2cfbddd730d509055d39c45ce3e1",
        "45901383c42a4695331f45b2b9ea8000cfc572781cbaa35381868a80437c52be",
        "712bd8186de127c494247d59e8b9cc538ad0b74b79beee9dfa5bfa0c1c890bc3",
    ),
}

WORKLOAD_SEEDS = sorted(DIGESTS)

# scenario file under tests/scenarios -> sha256 of reports.json and of
# reports.csv, at the file's own seed and run count
ARCH_DIGESTS = {
    "mixed_arch": (
        "a92a3ad55c13abece33c22690c5d483ef0951fd5a4e3ea22fdfc452123661abc",
        "f45d1c88d6e11a7daf52e7ef26c7f2f14c5dbdbba336540bbaa8428171b06838",
    ),
    "hybrid_k6": (
        "b8fbc0e1cd0aef4a00ace735078e16c2e2a4bbf35672bd12aa7ac9a07fe8c7aa",
        "33c121efffad19b715f562699ed9c97ae8c0996dd55cbdb392955e22921699c8",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _results_lines(stdout: str) -> str:
    """The lines after ``# results``, without the ``wrote PATH`` lines."""
    lines = stdout.splitlines()
    tail = lines[lines.index("# results") + 1 :]
    return "".join(f"{line}\n" for line in tail if not line.startswith("wrote "))


@pytest.fixture(
    scope="module", params=WORKLOAD_SEEDS, ids=[f"{w}-{s}" for w, s in WORKLOAD_SEEDS]
)
def campaign(request, tmp_path_factory):
    """A benchmark sweep with ``--out``: (workload, seed), out dir, stdout."""
    workload, seed = request.param
    out = tmp_path_factory.mktemp(f"{workload}-{seed}")
    argv = [
        "sweep", str(WORKLOADS / f"{workload}.yaml"), "--seed", str(seed), "--out", str(out)
    ]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == EXIT_OK
    return request.param, out, buf.getvalue()


def _assert_checker_passes(path: Path, out: Path, seed: int | None = None) -> None:
    """The checker finds no failed scenario in the sweep of ``path`` at
    ``seed``, or at the file's own seed."""
    sf = parse_scenario(path)
    verdict = checker.check_reports(
        sf.scenarios,
        (out / "reports.json").read_text(),
        seed=sf.campaign.seed if seed is None else seed,
        n_runs=sf.campaign.n_runs,
    )
    assert verdict.scenarios == len(sf.scenarios)
    assert verdict.failed == 0, verdict.failures


def test_sweep_reports_are_byte_identical(campaign):
    key, out, _ = campaign
    json_digest, csv_digest = DIGESTS[key]
    assert _sha256((out / "reports.json").read_bytes()) == json_digest
    assert _sha256((out / "reports.csv").read_bytes()) == csv_digest


def test_results_lines_and_report_files_are_byte_identical(campaign):
    key, out, stdout = campaign
    tables = out / "tables"
    with redirect_stdout(io.StringIO()):
        assert main(["report", str(out / "reports.json"), "--out", str(tables)]) == EXIT_OK
    got = [_sha256(_results_lines(stdout).encode())]
    got += [_sha256((tables / name).read_bytes()) for name in REPORT_FILES]
    assert tuple(got) == OUTPUT_DIGESTS[key]


def test_checker_passes_the_benchmark_sweep(campaign):
    (workload, seed), out, _ = campaign
    # the 191- and 255-element gNBs at 64 SS blocks keep a CSI-RS occasion
    # in every direction, so no run is censored and the checker holds
    # their t_tr to expected_tracking_delay_ms
    reports = json.loads((out / "reports.json").read_text())["reports"]
    slow = [r for r in reports if r["m_gnb"] in (191, 255) and r["n_ss"] == 64]
    assert len(slow) == (4 if workload == "wide_arrays" else 0)
    assert all(r["censored_tracking"] == 0 for r in slow)
    _assert_checker_passes(WORKLOADS / f"{workload}.yaml", out, seed)


@pytest.fixture(scope="module", params=sorted(ARCH_DIGESTS))
def arch_campaign(request, tmp_path_factory):
    """A mixed-architecture sweep with ``--out``: its name and out dir."""
    out = tmp_path_factory.mktemp(request.param)
    argv = ["sweep", str(SCENARIOS / f"{request.param}.yaml"), "--out", str(out)]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK
    return request.param, out


def test_mixed_architecture_reports_are_byte_identical(arch_campaign):
    name, out = arch_campaign
    got = tuple(_sha256((out / f).read_bytes()) for f in ("reports.json", "reports.csv"))
    assert got == ARCH_DIGESTS[name]


def test_checker_passes_the_mixed_architecture_sweep(arch_campaign):
    name, out = arch_campaign
    _assert_checker_passes(SCENARIOS / f"{name}.yaml", out)
