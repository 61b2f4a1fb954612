"""Command-line orchestration: verification suites, spectra, and reports.

Exit codes: 0 success, 1 identity violation found, 2 precision exhausted,
3 enumeration too large, 64 usage error.  Reports embed the tool version,
the effective configuration, the seed, and the normalization ledger; output
is deterministic for a fixed (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from . import __version__
from .assembly import (
    RamifiedLevelData,
    psi_relation,
)
from .geodesics import MAX_SPLITTING_LEVEL, pgt_report, signed_traces, trace_row
from .geodesics import sl2_classes  # noqa: F401  (read by the benchmark harness)
from .integrals import TestFunctionSpec, orbital, verify_matching
from .oracle import (
    coset_coverage_nonsplit,
    coset_coverage_split,
    index_enumeration_test,
    oracle_orbital,
    radical_intersection_test,
)
from .orders import OrderKind
from .padic import (
    EnumerationTooLarge,
    PrecisionExhausted,
    RAMIFIED,
    SPLIT,
    UNRAMIFIED,
    ramified_torus,
    ramified_torus_2nonsplit,
    split_torus,
    unramified_torus,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PRECISION = 2
EXIT_TOO_LARGE = 3
EXIT_USAGE = 64

NORMALIZATION_LEDGER = {
    "field_measure": "Vol(O_E^x) = 1",
    "split_measure": "Vol(o^x x o^x) = 1",
    "norm_index_prefactor": "applied in global assembly, off in bare local values",
    "dpsi": "sum of log x0 over classes of trace t, divided by sqrt(|t|-2)",
    "psi_weight": "2 sqrt(|t|-2) per trace (log of the class norm), times c",
    "sign_convention": "both signs of t counted; c = 1/2 when -1 is in the group",
}


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Validated run parameters echoed into every report."""

    command: str
    params: dict
    seed: int = 0
    out: str | None = None
    fmt: str = "json"

    def echo(self) -> dict:
        return {"command": self.command, "seed": self.seed, "format": self.fmt,
                **{k: (str(v) if isinstance(v, Fraction) else v)
                   for k, v in self.params.items()}}


def pmap(fn, items):
    """In-order map, kept only because the benchmark's tracer wraps it.

    Nothing in geomatch calls it; it is deleted together with the tracer's
    cli.pmap layers when the benchmark is next refreshed (ROADMAP item 5).
    """
    return [fn(it) for it in items]


def fmt_float(v: float) -> str:
    return format(v, ".12g")


def _round12(v):
    if isinstance(v, float):
        return float(fmt_float(v))
    if isinstance(v, Fraction):
        return str(v)
    return v


def report_envelope(cfg: RunConfig, results) -> dict:
    return {"tool": "geomatch", "version": __version__, "config": cfg.echo(),
            "seed": cfg.seed, "normalization": NORMALIZATION_LEDGER,
            "results": results}


def emit_json(cfg: RunConfig, results) -> str:
    def clean(obj):
        if isinstance(obj, dict):
            return {str(k): clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return _round12(obj)

    return json.dumps(clean(report_envelope(cfg, results)), indent=2) + "\n"


def emit_csv(cfg: RunConfig, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    for k, v in report_envelope(cfg, None).items():
        if k in ("results",):
            continue
        if isinstance(v, dict):
            for k2, v2 in v.items():
                buf.write(f"# {k}.{k2}={v2}\n")
        else:
            buf.write(f"# {k}={v}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([fmt_float(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _write(cfg: RunConfig, text: str):
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verification drivers


def _tori_for(p: int, M: int):
    tori = [split_torus(p, M), unramified_torus(p, M), ramified_torus(p, M)]
    if p == 2:
        tori.append(ramified_torus_2nonsplit(M))
    return tori


def _grid(torus, span: int):
    """(i, j, x) over the verification grid of a torus.

    Field tori take x = (1 + p^i) + p^j theta0; the split torus takes the pair
    (1 + p^i, 1) with j = 0, skipping a first coordinate that is not a unit.
    """
    p = torus.ctx.p
    for i in range(span + 1):
        if torus.kind == SPLIT:
            a = (1 + p ** i) % torus.ctx.modulus
            if a % p:
                yield i, 0, torus.element(a, 1)
        else:
            for j in range(span + 1):
                yield i, j, torus.element(1 + p ** i, p ** j)


def run_verify_local(p: int, n_max: int, M: int) -> dict:
    """Closed form against the brute-force oracle over a coordinate grid.

    M must leave the guard band above n_max; the working precision of the
    verification grid is raised internally as the coset sums demand.
    """
    if M < n_max + 2:
        raise PrecisionExhausted(f"M = {M} cannot decide level-{n_max} congruences")
    span = 1 if p == 5 else 3  # the 2^20 enumeration cap binds earlier at p = 5
    work = max(M, span + n_max + 6)
    failures = []
    checked = 0
    for torus in _tori_for(p, work):
        for kind in OrderKind:
            for n in range(0, n_max + 1):
                for flag in (False, True):
                    spec = TestFunctionSpec(kind, n, flag)
                    for i, j, x in _grid(torus, span):
                        lhs = orbital(spec, x)
                        rhs = oracle_orbital(spec, x)
                        checked += 1
                        if lhs != rhs:
                            failures.append({
                                "torus": torus.kind, "kind": kind.value,
                                "n": n, "norm_index": flag,
                                "alpha_exp": i, "beta_exp": j,
                                "closed_form": str(lhs), "oracle": str(rhs)})
    inter = []
    for torus in _tori_for(p, max(work, 14))[1:]:
        for kind in (OrderKind.M, OrderKind.J):
            for r in range(0, 3):
                if kind is OrderKind.J and r == 0 and torus.kind == UNRAMIFIED:
                    continue
                for n in range(0, min(n_max, 3) + 1):
                    rep = radical_intersection_test(kind, torus, r, n)
                    if not rep["ok"]:
                        inter.append(rep)
    idx = []
    for kind in OrderKind:
        for n in range(1, min(n_max, 4) + 1):
            rep = index_enumeration_test(kind, n, p)
            if not rep["ok"]:
                idx.append(rep)
    return {"p": p, "n_max": n_max, "M": M, "points_checked": checked,
            "orbital_failures": failures, "intersection_failures": inter,
            "index_failures": idx,
            "ok": not failures and not inter and not idx}


def run_verify_matching(primes, n_max: int) -> dict:
    """Split vanishing and field matching over the supported grids."""
    span = 4
    failures = []
    checked = 0
    for p in primes:
        M = span + 2 * n_max + 6
        for torus in _tori_for(p, M):
            for n in range(0, n_max + 1):
                for i, j, x in _grid(torus, span):
                    for flag in (False, True):
                        rep = verify_matching(p, n, x, flag)
                        checked += 1
                        if not rep.equal:
                            failures.append({
                                "p": p, "n": n, "torus": torus.kind,
                                "alpha_exp": i, "beta_exp": j,
                                "norm_index": flag,
                                "lhs": str(rep.lhs), "rhs": str(rep.rhs)})
    return {"primes": list(primes), "n_max": n_max, "points_checked": checked,
            "failures": failures, "ok": not failures}


def run_coverage(decomposition: str, p: int, M: int, samples: int, seed: int,
                 torus_kind: str = UNRAMIFIED) -> dict:
    if decomposition == "split-M":
        rep = coset_coverage_split(OrderKind.M, p, M, samples, seed)
    elif decomposition == "split-J":
        rep = coset_coverage_split(OrderKind.J, p, M, samples, seed)
    elif decomposition == "nonsplit-M":
        rep = coset_coverage_nonsplit(OrderKind.M, torus_kind, p, M, samples, seed)
    elif decomposition == "nonsplit-J":
        rep = coset_coverage_nonsplit(OrderKind.J, torus_kind, p, M, samples, seed)
    else:
        raise UsageError(f"unknown decomposition {decomposition!r}")
    return rep.to_dict()


# ---------------------------------------------------------------------------
# commands


def _add_common(sp):
    sp.add_argument("--config", help="flat key=value config file")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)


def build_parser() -> Parser:
    ps = Parser(prog="geomatch", description=__doc__)
    ps.add_argument("--version", action="store_true")
    sub = ps.add_subparsers(dest="command")
    ps.commands = sub.choices  # subcommand name -> its parser

    sp = sub.add_parser("verify-local", help="closed forms against the oracle")
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--n-max", type=int, default=3)
    sp.add_argument("--M", type=int, default=12)
    _add_common(sp)

    sp = sub.add_parser("verify-matching", help="split vanishing and field matching")
    sp.add_argument("--primes", default="2,3,5")
    sp.add_argument("--n-max", type=int, default=6)
    _add_common(sp)

    sp = sub.add_parser("coverage", help="coset decomposition coverage")
    sp.add_argument("--decomposition", default="all",
                    choices=("all", "split-M", "split-J", "nonsplit-M", "nonsplit-J"))
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--M", type=int, default=3)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--torus", default=UNRAMIFIED,
                    choices=(UNRAMIFIED, RAMIFIED))
    _add_common(sp)

    sp = sub.add_parser("classes", help="conjugacy classes per trace")
    sp.add_argument("--t-min", type=int, default=3)
    sp.add_argument("--t-max", type=int, default=12)
    sp.add_argument("--level", type=int, default=1)
    _add_common(sp)

    sp = sub.add_parser("spectrum", help="counting functions on an x grid")
    sp.add_argument("--level", type=int, default=1)
    sp.add_argument("--x-max", type=float, default=10000.0)
    sp.add_argument("--x-count", type=int, default=12)
    _add_common(sp)

    sp = sub.add_parser("relation", help="quaternion-side counting identity")
    sp.add_argument("--ramified", default="2,3")
    sp.add_argument("--exponents", default="")
    sp.add_argument("--x-max", type=float, default=5000.0)
    sp.add_argument("--csv-out", default=None)
    _add_common(sp)

    sp = sub.add_parser("report", help="prime-geodesic table at given x values")
    sp.add_argument("--level", type=int, default=1)
    sp.add_argument("--x-grid", default="100,1000,10000")
    _add_common(sp)
    return ps


def _load_config(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            k, v = line.split("=", 1)
            out[k.strip().replace("-", "_")] = v.strip()
    return out


def _parse_primes(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"bad prime list {text!r}") from exc


def _parse_exponents(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad exponent entry {part!r}")
        k, v = part.split("=", 1)
        out[int(k)] = int(v)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command and args.config:
            # config values become the subcommand's defaults, so explicit
            # flags win and argparse converts the values with each flag's type
            sub = parser.commands[args.command]
            known = vars(sub.parse_args([]))
            sub.set_defaults(**{k: v for k, v in _load_config(args.config).items()
                                if k in known})
            args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.version:
        print(__version__)
        return EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_USAGE
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except EnumerationTooLarge as exc:
        print(f"enumeration too large: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE


def _cfg(args, command: str, params: dict) -> RunConfig:
    return RunConfig(command=command, params=params,
                     seed=args.seed if args.seed is not None else 0,
                     out=args.out, fmt=args.fmt or "json")


def _x_values(args) -> list[float]:
    """The x values a command counts up to: the report grid, or [x-max]."""
    if args.command == "report":
        try:
            xs = [float(s) for s in args.x_grid.split(",") if s.strip()]
        except ValueError as exc:
            raise UsageError(f"bad x grid {args.x_grid!r}") from exc
        if not xs:
            raise UsageError("x grid is empty")
        return xs
    if args.command in ("spectrum", "relation"):
        return [args.x_max]
    return []


def _dispatch(args) -> int:
    if (args.command in ("classes", "spectrum", "report")
            and not 1 <= args.level <= MAX_SPLITTING_LEVEL):
        raise UsageError(f"level must be in [1, {MAX_SPLITTING_LEVEL}]")
    xs = _x_values(args)
    if not all(math.isfinite(x) and x >= 10 for x in xs):
        raise UsageError("x values must be finite and >= 10")
    if args.command == "verify-local":
        if args.p not in (2, 3, 5):
            raise UsageError("p must be one of 2, 3, 5")
        if not (0 <= args.n_max <= 6):
            raise UsageError("n-max must be in [0, 6]")
        cfg = _cfg(args, "verify-local",
                   {"p": args.p, "n_max": args.n_max, "M": args.M})
        res = run_verify_local(args.p, args.n_max, args.M)
        _write(cfg, emit_json(cfg, res))
        return EXIT_OK if res["ok"] else EXIT_VIOLATION

    if args.command == "verify-matching":
        primes = _parse_primes(args.primes)
        if not primes or any(p not in (2, 3, 5) for p in primes):
            raise UsageError("primes must be a nonempty list among 2, 3, 5")
        if not (0 <= args.n_max <= 8):
            raise UsageError("n-max must be in [0, 8]")
        cfg = _cfg(args, "verify-matching",
                   {"primes": primes, "n_max": args.n_max})
        res = run_verify_matching(primes, args.n_max)
        _write(cfg, emit_json(cfg, res))
        return EXIT_OK if res["ok"] else EXIT_VIOLATION

    if args.command == "coverage":
        if args.p not in (2, 3):
            raise UsageError("coverage supports p in {2, 3}")
        if args.M < 2:
            raise UsageError("coverage needs M >= 2")
        if args.samples < 1:
            raise UsageError("coverage needs samples >= 1")
        names = (["split-M", "split-J", "nonsplit-M", "nonsplit-J"]
                 if args.decomposition == "all" else [args.decomposition])
        seed = args.seed if args.seed is not None else 0
        cfg = _cfg(args, "coverage",
                   {"decomposition": args.decomposition, "p": args.p,
                    "M": args.M, "samples": args.samples, "torus": args.torus})
        results = [run_coverage(name, args.p, args.M, args.samples, seed,
                                args.torus) for name in names]
        _write(cfg, emit_json(cfg, results))
        return EXIT_OK if all(r["ok"] for r in results) else EXIT_VIOLATION

    if args.command == "classes":
        if args.t_min < 3 or args.t_max < args.t_min:
            raise UsageError("need 3 <= t-min <= t-max")
        cfg = _cfg(args, "classes",
                   {"t_min": args.t_min, "t_max": args.t_max, "level": args.level})
        rows = [[r.t, r.class_count_sl2, r.classes_in_level, r.dpsi]
                for r in (trace_row(args.level, t)
                          for t in signed_traces(args.t_min, args.t_max))]
        return _write_table(cfg, ["t", "class_count_sl2", "classes_in_level", "dpsi"], rows)

    if args.command == "spectrum":
        if args.x_count < 1:
            raise UsageError("x-count must be >= 1")
        return _pgt_table(args, {"level": args.level, "x_max": args.x_max,
                                 "x_count": args.x_count},
                          _geometric_grid(args.x_max, args.x_count))

    if args.command == "relation":
        ram = _parse_primes(args.ramified)
        try:
            data = RamifiedLevelData(tuple(ram),
                                     tuple(_parse_exponents(args.exponents).items()))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        cfg = _cfg(args, "relation",
                   {"ramified": ram, "exponents": args.exponents,
                    "x_max": args.x_max})
        rep = psi_relation(data, args.x_max)
        res = {
            "x": rep.x,
            "psi_D": rep.psi_quaternion,
            "terms": [{"subset": list(t.subset), "coefficient": str(t.coefficient),
                       "psi": t.psi, "mode": t.mode} for t in rep.terms],
            "coefficient_sum": str(rep.coefficient_sum),
            "error": rep.error,
            "bound_7_10": rep.bound_7_10,
            "note": rep.note,
        }
        _write(cfg, emit_json(cfg, res))
        if args.csv_out:
            header = ["t"] + [f"dpsi_I_{'_'.join(map(str, t.subset)) or 'none'}"
                              for t in rep.terms] + ["dpsi_quaternion"]
            rows = []
            for row in rep.per_trace:
                keys = [k for k in row if k.startswith("dpsi[")]
                rows.append([row["t"]] + [row[k] for k in keys]
                            + [row["dpsi_quaternion"]])
            ccfg = replace(cfg, out=args.csv_out, fmt="csv")
            _write(ccfg, emit_csv(ccfg, header, rows))
        return EXIT_OK

    if args.command == "report":
        return _pgt_table(args, {"level": args.level, "x_grid": xs}, xs)

    raise UsageError(f"unknown command {args.command!r}")


def _geometric_grid(x_max: float, count: int) -> list[float]:
    if count < 2:
        return [x_max]
    lo, hi = 10.0, float(x_max)
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio ** k for k in range(count)]


def _pgt_table(args, params: dict, xs: list[float]) -> int:
    """The counting-function table of spectrum and report, one row per x."""
    cfg = _cfg(args, args.command, params)
    header = ["x", "psi", "psi_minus_x", "x_pow_7_10", "pi", "li_x", "pi_minus_li"]
    rows = [[getattr(r, h) for h in header] for r in pgt_report(args.level, xs)]
    return _write_table(cfg, header, rows)


def _write_table(cfg: RunConfig, header: list[str], rows: list[list]) -> int:
    """One row per list, as CSV or as JSON objects keyed by the header."""
    if cfg.fmt == "csv":
        _write(cfg, emit_csv(cfg, header, rows))
    else:
        _write(cfg, emit_json(cfg, [dict(zip(header, r)) for r in rows]))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
