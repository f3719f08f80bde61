"""`tools/hash_set.py`: the committed golden-output manifest and its check."""
import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "hash_set.py"
SPOILED = "ablation/runs/cdpm/final.cdpm"


@pytest.fixture(scope="module")
def hash_set():
    spec = importlib.util.spec_from_file_location("hash_set", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def stubbed(hash_set, monkeypatch):
    """The manifest's facts and digests, for a host and a run stubbed to
    match them exactly, and the output directory of each run started."""
    facts, digests = hash_set.read_manifest(hash_set.MANIFEST)
    runs = []
    monkeypatch.setattr(hash_set, "host_facts", lambda: dict(facts))
    monkeypatch.setattr(hash_set, "run_set",
                        lambda out_dir, checkout: runs.append(out_dir) or dict(digests))
    return facts, digests, runs


@pytest.fixture
def check_copy(hash_set, stubbed, monkeypatch, tmp_path, capsys):
    """`--check` against a copy of the manifest with each line `spoil`
    alters: its exit code, its output and the copy's path."""
    def check(spoil):
        copy = tmp_path / "copy.sha256"
        lines = hash_set.MANIFEST.read_text().splitlines(keepends=True)
        copy.write_text("".join(spoil(line) for line in lines))
        monkeypatch.setattr(hash_set, "MANIFEST", copy)
        code = hash_set.main([str(tmp_path / "run"), "--check"])
        return code, capsys.readouterr().out, copy
    return check


def test_manifest_lists_the_host_facts_and_every_output(stubbed):
    facts, digests, _ = stubbed
    assert set(facts) == {"numpy", "blas", "blas_core"}
    assert len(digests) == 90 and all(len(digest) == 64 for digest in digests.values())
    assert "ablation/ablation.csv" in digests and SPOILED in digests
    assert sum(name.startswith("ablation/runs/") and name.endswith(".cdpm")
               for name in digests) == 15


def test_check_passes_when_every_file_matches(stubbed, check_copy, tmp_path):
    code, out, copy = check_copy(lambda line: line)
    assert code == 0 and out == f"90 of 90 files match {copy}\n"
    assert stubbed[2] == [tmp_path / "run"]


def test_check_names_the_spoiled_file(hash_set, check_copy):
    code, out, copy = check_copy(
        lambda line: "0" * 64 + line[64:] if line.endswith(f"  {SPOILED}\n") else line)
    assert code == hash_set.EXIT_MISMATCH == 1
    assert out == f"changed: {SPOILED}\n89 of 90 files match {copy}\n"


def test_check_gives_no_verdict_on_another_host(hash_set, stubbed, check_copy):
    code, out, copy = check_copy(
        lambda line: "# numpy 0.0\n" if line.startswith("# numpy ") else line)
    assert code == hash_set.EXIT_HOST not in (0, 1)
    assert out == (f"host numpy: {stubbed[0]['numpy']} here, 0.0 in {copy}\n"
                   "no verdict: this host's facts differ from the manifest's\n")
    assert stubbed[2] == []


def test_listing_reads_back_as_the_manifest(hash_set, stubbed, tmp_path, capsys):
    assert hash_set.main([str(tmp_path / "run")]) == 0
    listing = tmp_path / "listing.sha256"
    listing.write_text(capsys.readouterr().out)
    assert listing.read_text() == hash_set.MANIFEST.read_text()


def test_outputs_hash_as_the_committed_manifest(hash_set, tmp_path, request):
    """Opt-in with `pytest --golden`: rerun the whole set (about a minute) and
    compare every file it writes with `tools/hash_set.sha256`."""
    if not request.config.getoption("--golden"):
        pytest.skip("the golden-output check runs with --golden")
    code = hash_set.main([str(tmp_path / "run"), "--check"])
    if code == hash_set.EXIT_HOST:
        pytest.skip("this host's facts differ from the manifest's: no verdict")
    assert code == 0


def test_every_command_runs_with_one_blas_thread(hash_set, monkeypatch, tmp_path):
    """A caller's BLAS thread count does not reach the commands: it can change
    the last bits of a matrix product, so every command runs with one."""
    envs = []

    def run(args, env, **kwargs):
        envs.append(env)
        return subprocess.CompletedProcess(args, 0)

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.setattr(hash_set.subprocess, "run", run)
    assert hash_set.run_set(tmp_path / "run", tmp_path) == {}
    assert len(envs) == len(hash_set.commands())
    assert all(env[var] == "1" for env in envs
               for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
