#!/usr/bin/env python3
"""Check that the working tree prints and writes exactly what commit REF does.

    python scripts/same_output.py REF [--set all|tiny]

REF is extracted with `git archive REF | tar -x` into a temporary directory.
One fixed list of CLI invocations then runs in a fresh interpreter at REF and
at the working tree, each in its own empty directory:

- every geobench `session.invocations(workload, seed, size)` for the three
  workloads, seeds 1 and 2 and both sizes (`--set tiny`: the tiny size only);
- the criterion-9 determinism fixtures of tests/test_acceptance.py;
- the README's `geomatch ...` lines;
- the command lines of .github/workflows/tests.yml, with each `/dev/null`
  output replaced by a file.

Identical argument lists run once, up to JOBS pairs at a time.  stdout,
stderr, the exit code and every written file are compared, with each side's
root path read as `<ROOT>`; a process still running after TIMEOUT_S seconds
is killed and its invocation counts as a difference.
Each difference is printed to stderr; the last stdout line is the summary.
Exits 1 on any difference, 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
OUTPUT_FLAGS = ("--out", "--csv-out")
CRITERION_9 = (
    ("coverage", "--decomposition", "nonsplit-J", "--p", "2", "--M", "3",
     "--samples", "2000", "--seed", "42", "--torus", "ramified-field", "--out", "cov.out"),
    ("relation", "--ramified", "2,3", "--x-max", "400", "--out", "rel.out"),
    ("spectrum", "--level", "2", "--x-max", "800", "--x-count", "5", "--format", "csv",
     "--out", "spec.out"),
    ("verify-local", "--p", "3", "--n-max", "1", "--M", "9", "--out", "loc.out"),
)
CLI = ("-S", "-m", "geomatch.cli")  # as CI runs it: standard library only
JOBS = min(4, os.cpu_count() or 1)  # invocation pairs run at once
TIMEOUT_S = 300  # per process; the slowest invocation takes a few seconds


def _session_module():
    spec = importlib.util.spec_from_file_location(
        "geobench_session", ROOT / "geobench" / "session.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _with_output_files(argv: list[str]) -> tuple[str, ...]:
    """argv with each /dev/null after an output flag replaced by a file name."""
    out = list(argv)
    for i in range(1, len(out)):
        if out[i - 1] in OUTPUT_FLAGS and out[i] == "/dev/null":
            out[i] = f"written-{i}.out"
    return tuple(out)


def _readme_lines() -> list[tuple[str, ...]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [CLI + tuple(line.split("#")[0].split()[1:])
            for line in text.splitlines() if line.startswith("geomatch ")]


def _ci_lines() -> list[tuple[str, ...]]:
    """The `PYTHONPATH=src python -S ...` commands of the CI workflow, after `python`."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    return [_with_output_files(shlex.split(line, comments=True)[2:])
            for line in map(str.strip, text.splitlines())
            if line.startswith("PYTHONPATH=src python ")]


def invocation_list(which: str) -> list[tuple[str, ...]]:
    """Interpreter arguments of every invocation, in a fixed order, each once."""
    session = _session_module()
    sizes = ("tiny",) if which == "tiny" else ("full", "tiny")
    runs = [CLI + inv.argv for size in sizes for workload in session.WORKLOADS
            for seed in SEEDS for inv in session.invocations(workload, seed, size)]
    if which == "all":
        runs += [CLI + argv for argv in CRITERION_9] + _readme_lines() + _ci_lines()
    return list(dict.fromkeys(runs))


def run_one(root: Path, workdir: Path, args: tuple[str, ...]) -> dict:
    """Run one invocation at root in an empty workdir; what it printed and wrote."""
    workdir.mkdir(parents=True)
    args = tuple(str(root / a) if a.endswith(".py") else a for a in args)  # its scripts
    try:
        proc = subprocess.run([sys.executable, *args], cwd=workdir, capture_output=True,
                              env={**os.environ, "PYTHONPATH": str(root / "src")},
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None, "stdout": b"", "stderr": b"", "files": {}}
    files = {str(p.relative_to(workdir)): p.read_bytes()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    root_bytes = str(root).encode()
    return {"exit": proc.returncode,
            "stdout": proc.stdout.replace(root_bytes, b"<ROOT>"),
            "stderr": proc.stderr.replace(root_bytes, b"<ROOT>"),
            "files": files}


def compare(ref: dict, tree: dict) -> list[str]:
    """What differs between two run_one results; empty when they are identical."""
    if ref["exit"] is None or tree["exit"] is None:
        return ["timeout"]
    diffs = [key for key in ("exit", "stdout", "stderr") if ref[key] != tree[key]]
    for name in sorted(set(ref["files"]) | set(tree["files"])):
        if ref["files"].get(name) != tree["files"].get(name):
            diffs.append(f"file {name}")
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="the commit to compare against, e.g. HEAD or a sha")
    ap.add_argument("--set", dest="which", choices=("all", "tiny"), default="all",
                    help="tiny: the tiny benchmark invocations only")
    args = ap.parse_args(argv)
    sha = subprocess.run(["git", "rev-parse", "--short", args.ref], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    runs = invocation_list(args.which)
    with tempfile.TemporaryDirectory(prefix="same_output-") as tmp:
        ref_root = Path(tmp) / "ref"
        ref_root.mkdir()
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(ref_root)], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait():
            raise SystemExit(f"git archive {sha} failed")

        def both(k: int) -> list[str]:
            sides = [run_one(root, Path(tmp) / side / str(k), runs[k])
                     for root, side in ((ref_root, "ref-runs"), (ROOT, "tree-runs"))]
            return compare(*sides)

        with ThreadPoolExecutor(JOBS) as pool:
            results = list(pool.map(both, range(len(runs))))
    differing = 0
    for args_k, diffs in zip(runs, results):
        if diffs:
            differing += 1
            print(f"DIFF {shlex.join(args_k)}: {', '.join(diffs)}", file=sys.stderr)
    print(f"same_output: {len(runs)} invocations at {sha} and the working tree, "
          f"{len(runs) - differing} identical, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
