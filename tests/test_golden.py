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
        "1a5d367801413185d366c18ad6245b62a35b47925a2649a1163c15d597ad9ab9",
        "9338e3c9595f90ed10161e40b333e8199cf5c884094cc44432b0802cf7875a16",
    ),
    ("dense_grid", 7): (
        "5b7c6c86a4a9d98dd28ea2137aabc11f9fb33bddec7f4f0e59d83b1979504294",
        "d0085a2be28a7b74a55bb40958762e26976bd7a85ee70b01317c43ac4651cccb",
    ),
    ("wide_arrays", 42): (
        "b58e4804395e8e73114406d1487cbd75c95e140424cb141377f436aa6aa0cf59",
        "75bff9b0e4058a5639b7dcf7bad77764daf067dc22d904a1a56e0f977d08b889",
    ),
    ("wide_arrays", 7): (
        "fe06521338db70f13d09288612fc9886c946a218b6c87588ee23fce4321defd1",
        "69e3af516032303064e0afc94d483f48f8ddd97ada0bb536f1b01414405772fb",
    ),
}

REPORT_FILES = ("t_br_by_gnb.csv", "power_overhead.csv", "t_rlf_table.csv", "kiviat.json")

# (workload, seed) -> sha256 of the `# results` lines of `sweep` stdout,
# then of each of REPORT_FILES
OUTPUT_DIGESTS = {
    ("dense_grid", 42): (
        "bb10d741d769a0cdf34017130fcfabff24dd10d649e0dc5f84f6ba20345cf35f",
        "74a30657fcf1b917b89b7f50dbf297da7a588fba361fd1127ec8633d268c39cd",
        "d5d3752584b608ce353369c05f06e074e098842e15ce3b9e9822de9b18b38d53",
        "22d73d4be8ce981b8c557ba89f9de38f8f6c777d4d35042413708d31599c5730",
        "419de4b8986f553a837a400f2fcbc03b64ef0ec95bf762ea11746b5073909821",
    ),
    ("dense_grid", 7): (
        "e8b2063779a2ea4496dc21604efbcba739e66536fb943c3e32e124eb8dddba7b",
        "3fcba6151c62c579590b2654ef92306979f664b05bdcf49605999309173294cf",
        "d5d3752584b608ce353369c05f06e074e098842e15ce3b9e9822de9b18b38d53",
        "37096a42dad65935bb12706490582cd2dd2b99bf68123d961cc8214828465c98",
        "f591750f9c9b7495ae02e67b1c4459a0410a865f679b5356428286e9b756c68d",
    ),
    ("wide_arrays", 42): (
        "730134516dae8ad9107e8565f29313baecf138884b7a9d4e2ef6420e0b9b8ef6",
        "ed36d9f294b31c3e4dddafc7e6ed529168431eece5fd6704342e0d4b117f0991",
        "ae3e1573fe3525b3eb1cf63bf2e231fa3f3f2cfbddd730d509055d39c45ce3e1",
        "4b94915b144c1b4d378b7e446c8cc9c9e3334398b877e520d16ba53d80a6a075",
        "11b8522196f1b8a7c7f8f23eb2b0f8923fdf3222bd04cded84a1d13886398741",
    ),
    ("wide_arrays", 7): (
        "f1fd59ae8e49026eb6dab965ad35d65e8f3ab77ab67c7375b8fe8fe507af6a15",
        "7e500d3a1902c01bf12662064836282573179e49dfe0bda2b8d1ab9d3f2dad1f",
        "ae3e1573fe3525b3eb1cf63bf2e231fa3f3f2cfbddd730d509055d39c45ce3e1",
        "45901383c42a4695331f45b2b9ea8000cfc572781cbaa35381868a80437c52be",
        "5d6ae7001a3e9caeef472a5043153afccf7d17980398e2674f6ce6b3cc347e56",
    ),
}

WORKLOAD_SEEDS = sorted(DIGESTS)

# scenario file under tests/scenarios -> sha256 of reports.json and of
# reports.csv, at the file's own seed and run count
ARCH_DIGESTS = {
    "mixed_arch": (
        "4e873f583429ccc05311b92592d8419f458e864fe12cb2df0419d9c2675c9c61",
        "a123447181dc6ce29c59f388090e37bf58dcee0654bf9b1d7dcbbb6dcf3f930a",
    ),
    "hybrid_k6": (
        "51324e7a982adbb04e631567b5cb3745e9c8e1b21c6e9ad54a9743bfcdaebeea",
        "f146571235d4ebb39a348fc56352252cb67008be3f80e5b5bb87dae44be5bae2",
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
