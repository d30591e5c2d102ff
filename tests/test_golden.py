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
        "8e12928e5ec884e0251022bc90a0fcb64a559737ef4316cbfbc66333314169a7",
        "a4d3c5fae5c2dd7d12b58158596eb4d89a2712b39f8642712f51c446521c4650",
    ),
    ("dense_grid", 7): (
        "04b12cc796a10236f6d1785bf2af5f320adcb79cbb977f5b46f328bfcb0c1aab",
        "0d58fdc613113a50d89038fb7b599dc5f84cbf93a23a109f90ea34d0ea96a42e",
    ),
    ("wide_arrays", 42): (
        "4485eb9e02e0f0ef78685c1f2a5ad267c02315ba24851d68935072bf588ce216",
        "89fdf5300973dd90fb3d10ce1442336c2196c38eeba4b45ed5ee9fcd2b141484",
    ),
    ("wide_arrays", 7): (
        "334cfcf91c7092f7f50291fdce00eae9a9342f1704f5a12663dcdc28c485b331",
        "43f6da9e9ab9e40904fa1da714246cfd8f0204c4fe7b616b85bc1fb99e2ab118",
    ),
}

REPORT_FILES = ("t_br_by_gnb.csv", "power_overhead.csv", "t_rlf_table.csv", "kiviat.json")

# (workload, seed) -> sha256 of the `# results` lines of `sweep` stdout,
# then of each of REPORT_FILES
OUTPUT_DIGESTS = {
    ("dense_grid", 42): (
        "25be2b2ace686b85762ec4147ecebc446cf0220dd04b4e23ea0d51e55ca33c8f",
        "fa470833f9a2523924a750b330aef69897b84a9e0b472cc17bc64d9b81af4cef",
        "d5d3752584b608ce353369c05f06e074e098842e15ce3b9e9822de9b18b38d53",
        "9b7391ab2755e2b8c815274004d974177e84955f1752090b8c1189628e7afdcd",
        "f7c196224fbe65d024d6f81fda9542b3e9ed451bb3023c76a57837105e5292ec",
    ),
    ("dense_grid", 7): (
        "8e0c1b3dc06ac188e774a95100b775b7ef9dbd576868cb8ca936cc0d293fa228",
        "fb05026306e70ea3d93780b9df0f386c1d1a6b46cb34da63fb69628d0592a970",
        "d5d3752584b608ce353369c05f06e074e098842e15ce3b9e9822de9b18b38d53",
        "cdff646c2e9b5962ada6a8ee8afe7e1a878f36dec6198e0f47ebf49b4ea301e8",
        "ad1dc108f5a48878faba39b2a27ef244e566d939e9b7e54987cb149fc99deb36",
    ),
    ("wide_arrays", 42): (
        "ed1ae97b256475ae77bb6ec974bdf25841d6d6b0bd0dc8795ada3d6f02bd00fb",
        "add2bac35515b097af1c866b285ba03e6f067303ece58c66b3705d22b808ad78",
        "ae3e1573fe3525b3eb1cf63bf2e231fa3f3f2cfbddd730d509055d39c45ce3e1",
        "52db59e7d5bf3ccf15a49726529b69eb64ca54207f248661cdd228decc02173d",
        "2c840c3359aa11f6331705d51cea54a23e29b5dbc2f7e5b96efeb53a0418899b",
    ),
    ("wide_arrays", 7): (
        "042670e20625350a02bc2692cb767a37774ae12bb58063cd66031367c528bff1",
        "73b0d65254a1e458450c426075a6977068403f1b42427876d5b289bf63280dc6",
        "ae3e1573fe3525b3eb1cf63bf2e231fa3f3f2cfbddd730d509055d39c45ce3e1",
        "078e05c3bd41afe10606cc896e28bc00c40986166dde803496e7396eb4c5c420",
        "c4abfe52fcda38f30ab05c7b618d5a23386af0403ad3c067e807d86822b766df",
    ),
}

WORKLOAD_SEEDS = sorted(DIGESTS)

# scenario file under tests/scenarios -> sha256 of reports.json and of
# reports.csv, at the file's own seed and run count
ARCH_DIGESTS = {
    "mixed_arch": (
        "1558f3494089e32961100c4aaa9a8a2cd20d13e58d410d1ceaf262610be29a03",
        "c048865f66fbdab42f4b3be3b50867df7fc00610c6c2bd888b250875b8bebf35",
    ),
    "hybrid_k6": (
        "a1ce2dbf08d69da0064dd3cad897e7f463017692412c0abfcee74524f70bd53d",
        "4d6d2138f74287b4f9955da18f96056ceb962f017e992310c810ca9036562d96",
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
