"""One benchmark session: cold repetitions of a workload's CLI invocations.

Run by run.py in a fresh interpreter:

    python3 geobench/session.py --workload W --seed N --seconds S --trace 0|1 [--size tiny]

Each repetition clears every lru_cache in geomatch, then calls
geomatch.cli.main(argv) for each invocation of the workload in turn, from
this one process (a closed loop with one client).  Outputs are checked
against geobench/reference.json after the timer stops.  The last stdout line
is a JSON object that run.py turns into the benchmark result.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".bench_out"

WORKLOADS = ("spectrum", "relation", "verify")

# (ramified primes, exponents) run by the relation workload, all at one x.
RELATION_POOL = (
    ("2,3", ""), ("2,3", "2=1"), ("2,3", "3=1"), ("2,3", "2=1,3=1"),
    ("2,3", "2=2"), ("2,11", "2=3"), ("2,5", "5=1"), ("3,7", "3=1"),
    ("3,13", "3=2"), ("5,7", ""), ("2,3,5,7", "2=1,3=1"), ("3,5,7,11", ""),
)

SIZES = {
    "full": {
        "spectrum_x": 30000.0, "grid_points": 8, "relation_x": 20000.0,
        "relation_pool": RELATION_POOL, "samples": 20000,
        "verify_local": (("2", "3"), ("3", "3")),
        "verify_matching": ("2,3,5", "6"),
        "coverage": (("2", "3"), ("3", "2"), ("3", "3")),
    },
    "tiny": {
        "spectrum_x": 2000.0, "grid_points": 4, "relation_x": 300.0,
        "relation_pool": RELATION_POOL[:2] + RELATION_POOL[6:7], "samples": 200,
        "verify_local": (("2", "1"),),
        "verify_matching": ("2,3", "2"),
        "coverage": (("2", "2"), ("3", "2")),
    },
}

# spectrum runs on every core of the reference machine; the other workloads
# never reach cli.pmap
THREADS = {"spectrum": 2, "relation": 1, "verify": 1}
DPSI_CHECK_TRACES = (3, -5, 11)


@dataclass(frozen=True)
class Invocation:
    label: str  # key into the reference values
    argv: tuple[str, ...]

    @property
    def options(self) -> dict[str, str]:
        return dict(zip(self.argv[1::2], self.argv[2::2]))


def geometric_grid(x_max: float, count: int) -> list[float]:
    ratio = (x_max / 10.0) ** (1.0 / (count - 1))
    return [10.0 * ratio ** k for k in range(count)]


def trace_bound(x: float) -> int:
    """Largest t with t <= sqrt(x) + 1/sqrt(x), i.e. t^2 x <= (x + 1)^2."""
    fx = Fraction(x)
    t = math.isqrt(int(fx) + 2) + 1
    while t * t * fx > (fx + 1) ** 2:
        t -= 1
    return t


def signed_traces(x: float) -> int:
    return 2 * max(trace_bound(x) - 2, 0)


def invocations(workload: str, seed: int, size: str) -> list[Invocation]:
    """The workload's CLI invocations; the seed is the only source of variation."""
    cfg = SIZES[size]
    if workload == "spectrum":
        x_max, count = cfg["spectrum_x"], cfg["grid_points"]
        grid = ",".join(repr(x) for x in geometric_grid(x_max, count))
        return [Invocation("spectrum level 1",
                           ("spectrum", "--level", "1", "--x-max", repr(x_max),
                            "--x-count", str(count))),
                Invocation("report level 4", ("report", "--level", "4", "--x-grid", grid))]
    if workload == "relation":
        pool = list(cfg["relation_pool"])
        random.Random(seed).shuffle(pool)
        return [Invocation(f"relation ram={ram} exponents={exps}",
                           ("relation", "--ramified", ram, "--exponents", exps,
                            "--x-max", repr(cfg["relation_x"])))
                for ram, exps in pool]
    if workload == "verify":
        out = [Invocation(f"verify-local p{p}",
                          ("verify-local", "--p", p, "--n-max", n, "--M", "12"))
               for p, n in cfg["verify_local"]]
        primes, n = cfg["verify_matching"]
        out.append(Invocation("verify-matching",
                              ("verify-matching", "--primes", primes, "--n-max", n)))
        out += [Invocation(f"coverage p{p} M{M}",
                           ("coverage", "--decomposition", "all", "--p", p, "--M", M,
                            "--samples", str(cfg["samples"]), "--seed", str(seed)))
                for p, M in cfg["coverage"]]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def work_items(invs: list[Invocation], ref: dict) -> int:
    """Units of work in one repetition, the numerator of items_per_s.

    spectrum: signed traces walked, summed over invocations and grid points;
    relation: signed traces times Eichler descriptors (2^|ram|);
    verify: orbital points, matching points and coverage samples.
    """
    total = 0
    for inv in invs:
        args = inv.options
        if inv.argv[0] == "spectrum":
            grid = geometric_grid(float(args["--x-max"]), int(args["--x-count"]))
            total += sum(signed_traces(x) for x in grid)
        elif inv.argv[0] == "report":
            total += sum(signed_traces(float(x)) for x in args["--x-grid"].split(","))
        elif inv.argv[0] == "relation":
            n_ram = len(args["--ramified"].split(","))
            total += signed_traces(float(args["--x-max"])) * 2 ** n_ram
        elif inv.argv[0] == "coverage":
            total += 4 * int(args["--samples"])
        else:
            total += ref[inv.label]["points_checked"]
    return total


# ---------------------------------------------------------------------------
# output checks


def check_output(inv: Invocation, code, text: str, ref: dict) -> list[str]:
    """Reasons the invocation failed; empty when its output is correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        results = json.loads(text)["results"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable report: {exc}"]
    expected = ref.get(inv.label)
    if expected is None:
        return [f"no reference value for {inv.label!r}"]
    errors = []
    command = inv.argv[0]
    if command in ("spectrum", "report"):
        if len(results) != len(expected["rows"]):
            return [f"{len(results)} rows, reference has {len(expected['rows'])}"]
        for row, (x, pi, psi) in zip(results, expected["rows"]):
            if row["x"] != x or row["pi"] != pi:
                errors.append(f"x={row['x']}: pi {row['pi']} != {pi}")
            if not math.isclose(row["psi"], psi, rel_tol=1e-9, abs_tol=0.0):
                errors.append(f"x={x}: psi {row['psi']!r} != {psi!r}")
            if abs(row["psi"] - row["x"]) > 5 * row["x"] ** 0.75:
                errors.append(f"x={x}: psi {row['psi']} outside |psi - x| <= 5 x^0.75")
    elif command == "relation":
        if not math.isclose(results["psi_D"], expected["psi_D"], rel_tol=1e-9,
                            abs_tol=0.0):
            errors.append(f"psi_D {results['psi_D']!r} != {expected['psi_D']!r}")
        if results["coefficient_sum"] != expected["coefficient_sum"]:
            errors.append(f"coefficient_sum {results['coefficient_sum']} "
                          f"!= {expected['coefficient_sum']}")
    elif command == "coverage":
        samples = int(inv.options["--samples"])
        for rep in results:
            if not rep["ok"]:
                errors.append(f"{rep['decomposition']}: not ok")
            if sum(rep["r_histogram"].values()) != samples:
                errors.append(f"{rep['decomposition']}: histogram sums to "
                              f"{sum(rep['r_histogram'].values())}, not {samples}")
    else:
        if not results["ok"]:
            errors.append("not ok")
        if results["points_checked"] != expected["points_checked"]:
            errors.append(f"points_checked {results['points_checked']} "
                          f"!= {expected['points_checked']}")
    return errors


def check_relation_identities(invs: list[Invocation]) -> dict[str, list[str]]:
    """dpsi_relation exact and matching identities at a few traces per entry."""
    from geomatch.assembly import RamifiedLevelData, dpsi_relation
    errors = {}
    for inv in invs:
        args = inv.options
        ram = tuple(int(p) for p in args["--ramified"].split(","))
        exps = tuple(tuple(int(v) for v in part.split("="))
                     for part in args["--exponents"].split(",") if part)
        data = RamifiedLevelData(ram, exps)
        bad = [f"t={t}: exact={rep.exact_identity_ok} matching={rep.matching_identity_ok}"
               for t in DPSI_CHECK_TRACES
               for rep in [dpsi_relation(data, t)]
               if not (rep.exact_identity_ok and rep.matching_identity_ok)]
        if bad:
            errors[inv.label] = bad
    return errors


# ---------------------------------------------------------------------------
# repetitions


def run_rep(invs: list[Invocation], threads: int, recorder=None):
    """One cold pass over the invocations: (wall seconds, [(exit code, stdout)])."""
    from geomatch import cli
    from tracer import ROOT_SPAN, clear_caches

    clear_caches()
    gc.collect()
    os.environ["GEOMATCH_THREADS"] = str(threads)
    outputs = []
    t0 = perf_counter()
    for inv in invs:
        buf = io.StringIO()
        with redirect_stdout(buf), (recorder.span(ROOT_SPAN) if recorder else nullcontext()):
            try:
                code = cli.main(list(inv.argv))
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc()
                code = "exception"
        outputs.append((code, buf.getvalue()))
    return perf_counter() - t0, outputs


class Tally:
    """Attempted and failed operations; an operation is one CLI invocation."""

    def __init__(self, ref: dict):
        self.ref = ref
        self.attempted = 0
        self.failed = 0

    def record(self, invs, outputs, extra_errors=None, twin=None) -> None:
        for k, (inv, (code, text)) in enumerate(zip(invs, outputs)):
            errors = check_output(inv, code, text, self.ref)
            errors += (extra_errors or {}).get(inv.label, [])
            if twin is not None and twin[k] != (code, text):
                errors.append("traced output differs from untraced output")
            self.attempted += 1
            if errors:
                self.failed += 1
                print(f"FAILED {inv.label}: " + "; ".join(errors[:5]), file=sys.stderr)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest pool worker (MiB)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_session(workload: str, seed: int, seconds: float, trace: bool,
                size: str = "full", ref: dict | None = None) -> dict:
    from tracer import PER_LAYER_UNITS, Recorder, layer_metrics

    if ref is None:
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[size]
    invs = invocations(workload, seed, size)
    tally = Tally(ref)
    walls: dict[str, list[float]] = {"untraced": [], "untraced_2": [], "traced": []}
    layers: list[dict] = []
    recorder = None
    start = perf_counter()
    while True:
        t_rep = perf_counter()
        if not trace:
            wall, outputs = run_rep(invs, THREADS[workload])
            extra = check_relation_identities(invs) \
                if workload == "relation" and not walls["untraced"] else None
            walls["untraced"].append(wall)
            tally.record(invs, outputs, extra)
        else:
            if workload == "spectrum":
                wall, outputs = run_rep(invs, THREADS[workload])
                walls["untraced_2"].append(wall)
                tally.record(invs, outputs)
            wall, plain = run_rep(invs, 1)
            walls["untraced"].append(wall)
            tally.record(invs, plain)
            recorder = Recorder()
            with recorder:
                wall, outputs = run_rep(invs, 1, recorder)
            walls["traced"].append(wall)
            tally.record(invs, outputs, twin=plain)
            layers.append(layer_metrics(recorder))
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - t_rep) > seconds:
            break
    med = {k: statistics.median(v) for k, v in walls.items() if v}
    out = {"workload": workload, "seed": seed, "size": size,
           "attempted": tally.attempted, "failed": tally.failed,
           "reps": len(walls["untraced"]), "walls": walls}
    if not trace:
        items = work_items(invs, ref)
        out["items"] = items
        out["metrics"] = {"wall_s": med["untraced"],
                          "items_per_s": items / med["untraced"],
                          "peak_rss_mb": peak_rss_mb()}
    else:
        metrics = {key: statistics.median(rep[key] for rep in layers)
                   for key in layers[0]}
        metrics["cli.pmap.speedup"] = (med["untraced"] / med["untraced_2"]
                                       if "untraced_2" in med else 0.0)
        metrics["trace.overhead_s"] = med["traced"] - med["untraced"]
        out["metrics"] = {key: metrics[key] for key in PER_LAYER_UNITS}
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{workload}-seed{seed}.csv"
        recorder.write(spans)
        out["spans"] = str(spans.relative_to(ROOT))
    return out


def import_geomatch() -> None:
    """Import geomatch from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import geomatch.cli  # noqa: F401  (the import is the point)
    origin = Path(sys.modules["geomatch"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"geomatch imported from {origin}, not from {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    args = ap.parse_args(argv)
    import_geomatch()
    out = run_session(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
