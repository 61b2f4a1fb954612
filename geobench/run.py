"""Cold-run benchmark of the geomatch CLI: spectrum, relation and verify.

    python3 geobench/run.py --workload spectrum|relation|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; geomatch is imported from its src/.  The
run first times setup_s in fresh interpreters, then starts one session
process (geobench/session.py) that repeats the workload cold for S seconds.
Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics (the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with --trace 1).
Exits nonzero, printing no result, when geomatch cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
DEADLINE_S = 175.0  # every run must end within 180 s

PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "import geomatch.cli; geomatch.cli.build_parser()")

THROUGHPUT_NAME = {"spectrum": "traces_per_s", "relation": "trace_groups_per_s",
                   "verify": "checks_per_s"}


def setup_seconds() -> list[float]:
    """Wall time from spawning a fresh interpreter to geomatch.cli's parser built.

    The probes may write bytecode caches into src/, as an installed package
    has them; otherwise PYTHONDONTWRITEBYTECODE would double the figure.
    Popen.wait() without a timeout blocks in waitpid; with a timeout it polls
    with sleeps of up to 50 ms, which would quantize the measurement.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)], env=env,
                              stdout=subprocess.DEVNULL) as proc:
            code = proc.wait()
        times.append(perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, PROBE)
    return times


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("spectrum", "relation", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the benchmark's own tests; not for measurement")
    args = ap.parse_args(argv)
    start = perf_counter()
    if not (SRC / "geomatch" / "cli.py").is_file():
        print(f"geobench: no geomatch sources under {SRC}", file=sys.stderr)
        return 2
    try:
        setup = setup_seconds()
    except subprocess.CalledProcessError as exc:
        print(f"geobench: setup probe failed: {exc}", file=sys.stderr)
        return 2
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S - (perf_counter() - start))
    except subprocess.TimeoutExpired:
        print("geobench: session did not finish in time", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"geobench: session exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    session = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = dict(session["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    unit = units()
    walls = session["walls"]["untraced"]
    print(f"geobench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} reps={session['reps']}")
    print("  untraced wall_s per rep: " + " ".join(f"{w:.3f}" for w in walls))
    if args.trace:
        print("  traced wall_s per rep:   "
              + " ".join(f"{w:.3f}" for w in session["walls"]["traced"]))
        print(f"  spans written to {session['spans']}")
    else:
        print("  setup_s per fresh interpreter: " + " ".join(f"{s:.4f}" for s in setup))
        print(f"  {THROUGHPUT_NAME[args.workload]} = items_per_s = "
              f"{metrics['items_per_s']:.6g} 1/s ({session['items']} items per rep)")
    print(f"  fail_ratio = {session['failed'] / session['attempted']:.6g} "
          f"({session['failed']} of {session['attempted']} invocations failed)")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit[name]}")
    print(json.dumps({
        "correct": session["failed"] == 0,
        "attempted": session["attempted"],
        "failed": session["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
