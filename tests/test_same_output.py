"""scripts/same_output.py: its comparison, its invocation list, and one run against HEAD."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "same_output.py"


def _script():
    spec = importlib.util.spec_from_file_location("same_output", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_names_each_difference():
    compare = _script().compare
    ref = {"exit": 0, "stdout": b"{}\n", "stderr": b"",
           "files": {"a.out": b"1", "b.out": b"2"}}
    assert compare(ref, {**ref, "files": dict(ref["files"])}) == []
    tree = {"exit": 1, "stdout": b"{}\n", "stderr": b"warning\n",
            "files": {"a.out": b"1", "b.out": b"3", "c.out": b""}}
    assert compare(ref, tree) == ["exit", "stderr", "file b.out", "file c.out"]
    assert compare(tree, ref) == ["exit", "stderr", "file b.out", "file c.out"]
    hung = {"exit": None, "stdout": b"", "stderr": b"", "files": {}}
    assert compare(ref, hung) == compare(hung, hung) == ["timeout"]


def test_run_one_records_a_hung_process_as_a_timeout(tmp_path, monkeypatch):
    same_output = _script()
    monkeypatch.setattr(same_output, "TIMEOUT_S", 0.5)
    result = same_output.run_one(tmp_path, tmp_path / "run",
                                 ("-c", "import time; time.sleep(30)"))
    assert result["exit"] is None


def test_ci_lines_reads_command_lines_only(tmp_path, monkeypatch):
    same_output = _script()
    workflow = tmp_path / ".github" / "workflows" / "tests.yml"
    workflow.parent.mkdir(parents=True)
    workflow.write_text("    - name: Don't skip the stdlib run\n"
                        "      run: |  # it's the CI step\n"
                        "        PYTHONPATH=src python -S -m geomatch.cli spectrum --out /dev/null\n")
    monkeypatch.setattr(same_output, "ROOT", tmp_path)
    assert same_output._ci_lines() == [("-S", "-m", "geomatch.cli", "spectrum", "--out",
                                        "written-5.out")]


def test_invocation_list_covers_every_source():
    same_output = _script()
    tiny, full = same_output.invocation_list("tiny"), same_output.invocation_list("all")
    assert len(set(full)) == len(full) and set(tiny) < set(full)
    assert all(args[:3] == same_output.CLI for args in tiny)
    for argv in same_output.CRITERION_9:
        assert same_output.CLI + argv in full
    ci = same_output._ci_lines()
    assert ("-S", "scripts/run_verification.py") in ci
    ramified = same_output.CLI + ("coverage", "--decomposition", "all", "--p", "2", "--M", "4",
                                  "--samples", "20000", "--seed", "1", "--torus",
                                  "ramified-field", "--out")
    assert [args[-1] for args in ci if args[:-1] == ramified] == ["written-17.out"]
    assert len(same_output._readme_lines()) >= 7
    assert not [args for args in full if "/dev/null" in args]


def test_same_output_against_head_on_tiny_invocations():
    if not (shutil.which("git") and shutil.which("tar")) or subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("needs git, tar and a git checkout to extract HEAD")
    proc = subprocess.run([sys.executable, str(SCRIPT), "HEAD", "--set", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith(" identical, 0 differ"), proc.stdout
