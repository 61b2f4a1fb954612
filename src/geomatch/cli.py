"""Command-line orchestration: verification suites, spectra, and reports.

Exit codes: 0 success, 1 identity violation found, 2 precision exhausted,
3 enumeration too large, 64 usage error (a flag or config value breaking its
rule, an unreadable config file, an unwritable output path).  Reports embed
the tool version, the effective configuration, the seed, and the
normalization ledger; output is deterministic for a fixed (config, seed).
Only coverage, which draws samples, takes --seed; only classes, spectrum and
report, which write a table, take --format.  The others report seed 0 and
json.  coverage exits 3 above M = 56 (over 2^20 split axis points), and
exits 64 on an explicit --torus for split-M or split-J, which use no torus.
relation exits 1 where c_D dpsi_D misses sum_I coeff_I c_I dpsi_I, and 64 on an
--exponents level above 1000 (assembly.MAX_EXPONENT) or a prime above 2^40
(MAX_PRIME); verify-local exits 64 on an --M outside [1, 1000] (MAX_VERIFY_M).
spectrum and report exit 3 on a grid of more than 2^20 x values.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace

from . import __version__
from .assembly import RamifiedLevelData, psi_relation
from .geodesics import pgt_report, signed_traces, trace_row
from .geodesics import sl2_classes  # noqa: F401  (read by the benchmark harness)
from .integrals import TestFunctionSpec, orbital, verify_matching
from .oracle import (
    check_coverage_size,
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

# verify-local's precision: cost grows like M^2.2 (2.4 s at M = 20 000,
# n_max 0); at 1000 the slowest run (p = 5, n_max 6) takes about 0.3 s
MAX_VERIFY_M = 1000

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
                **self.params}


def pmap(fn, items):
    """In-order map, kept only because the benchmark's tracer wraps it.

    Nothing in geomatch calls it; it is deleted together with the tracer's
    cli.pmap layers when the benchmark is next refreshed (ROADMAP item 20).
    """
    return [fn(it) for it in items]


def fmt_float(v: float) -> str:
    return format(v, ".12g")


def _round12(v):
    if isinstance(v, float):
        return float(fmt_float(v))
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


def _open(path: str, mode: str):
    """open(), with an unreadable or unwritable path reported as a usage error."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot open {path}: {exc.strerror}") from exc


def _write(cfg: RunConfig, text: str):
    if cfg.out:
        with _open(cfg.out, "w") as fh:
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
                        rep = verify_matching(n, x, flag)
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
                 torus_kind: str) -> dict:
    kind = OrderKind(decomposition.split("-")[1])
    if decomposition.startswith("split"):
        return coset_coverage_split(kind, p, M, samples, seed).to_dict()
    return coset_coverage_nonsplit(kind, torus_kind, p, M, samples, seed).to_dict()


# ---------------------------------------------------------------------------
# input rules: each flag's type= converter, so --config values obey them too


def _rule(convert, ok, what: str):
    """A type= converter: convert the text, then require ok(value)."""
    def conv(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return conv


def _list_of(convert):
    """Comma-separated entries, each passed through convert."""
    return lambda text: [convert(s) for s in text.split(",") if s.strip()]


def _one_of(convert, allowed):
    return _rule(convert, lambda v: v in allowed,
                 "one of " + ", ".join(map(str, allowed)))


def _int_in(lo: int, hi: float = math.inf):
    return _rule(int, lambda v: lo <= v <= hi, f"an integer in [{lo}, {hi}]")


DECOMPOSITIONS = ("split-M", "split-J", "nonsplit-M", "nonsplit-J")


def _add_common(sp):
    sp.add_argument("--config", help="flat key=value config file")
    sp.add_argument("--out", default=None)


def build_parser() -> Parser:
    ps = Parser(prog="geomatch", description=__doc__)
    ps.add_argument("--version", action="store_true")
    ps.set_defaults(seed=0, fmt="json")  # echoed by the commands without the flag
    sub = ps.add_subparsers(dest="command")
    ps.commands = sub.choices  # subcommand name -> its parser
    level = _int_in(1)
    x = _rule(float, lambda v: math.isfinite(v) and v >= 10, "a finite x >= 10")
    table_format = _one_of(str, ("json", "csv"))

    sp = sub.add_parser("verify-local", help="closed forms against the oracle")
    sp.add_argument("--p", type=_one_of(int, (2, 3, 5)), default=2)
    sp.add_argument("--n-max", type=_int_in(0, 6), default=3)
    sp.add_argument("--M", type=_int_in(1, MAX_VERIFY_M), default=12)
    _add_common(sp)

    sp = sub.add_parser("verify-matching", help="split vanishing and field matching")
    sp.add_argument("--primes", default="2,3,5",
                    type=_rule(_list_of(_one_of(int, (2, 3, 5))), bool, "a nonempty list"))
    sp.add_argument("--n-max", type=_int_in(0, 8), default=6)
    _add_common(sp)

    sp = sub.add_parser("coverage", help="coset decomposition coverage")
    sp.add_argument("--decomposition", default="all",
                    type=_one_of(str, ("all", *DECOMPOSITIONS)))
    sp.add_argument("--p", type=_one_of(int, (2, 3)), default=2)
    sp.add_argument("--M", type=int, default=3)
    sp.add_argument("--samples", type=int, default=10000)
    # no default: an explicit --torus is refused where only split cosets run
    sp.add_argument("--torus", type=_one_of(str, (UNRAMIFIED, RAMIFIED)))
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)

    sp = sub.add_parser("classes", help="conjugacy classes per trace")
    sp.add_argument("--t-min", type=_int_in(3), default=3)
    sp.add_argument("--t-max", type=int, default=12)
    sp.add_argument("--level", type=level, default=1)
    sp.add_argument("--format", dest="fmt", type=table_format, default="json")
    _add_common(sp)

    sp = sub.add_parser("spectrum", help="counting functions on an x grid")
    sp.add_argument("--level", type=level, default=1)
    sp.add_argument("--x-max", type=x, default=10000.0)
    sp.add_argument("--x-count", type=_int_in(1), default=12)
    sp.add_argument("--format", dest="fmt", type=table_format, default="json")
    _add_common(sp)

    sp = sub.add_parser("relation", help="quaternion-side counting identity")
    sp.add_argument("--ramified", default="2,3",
                    type=_rule(_list_of(_int_in(2)), bool, "a nonempty list"))
    sp.add_argument("--exponents", default="", type=_list_of(_rule(
        lambda e: tuple(map(int, e.split("="))), lambda e: len(e) == 2, "a prime=level pair")))
    sp.add_argument("--x-max", type=x, default=5000.0)
    sp.add_argument("--csv-out", default=None)
    _add_common(sp)

    sp = sub.add_parser("report", help="prime-geodesic table at given x values")
    sp.add_argument("--level", type=level, default=1)
    sp.add_argument("--x-grid", default="100,1000,10000",
                    type=_rule(_list_of(x), bool, "a nonempty list"))
    sp.add_argument("--format", dest="fmt", type=table_format, default="json")
    _add_common(sp)
    return ps


def _load_config(path: str) -> dict:
    out = {}
    with _open(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            k, v = line.split("=", 1)
            out[k.strip().replace("-", "_")] = v.strip()
    return out


def _parse(parser: Parser, argv):
    args = parser.parse_args(argv)
    if args.command and args.config:
        # config keys (dests or flag spellings) become the subcommand's defaults, so
        # explicit flags win and argparse passes the values through each flag's type rule
        sub = parser.commands[args.command]
        known = vars(sub.parse_args([]))
        dests = {opt.lstrip("-").replace("-", "_"): a.dest for a in sub._actions
                 for opt in a.option_strings if a.dest in known} | {k: k for k in known}
        sub.set_defaults(**{dests[k]: v for k, v in _load_config(args.config).items()
                            if k in dests})
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse(parser, argv)
        if args.version:
            print(__version__)
            return EXIT_OK
        if not args.command:
            parser.print_help()
            return EXIT_USAGE
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except EnumerationTooLarge as exc:
        print(f"enumeration too large: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE


# ---------------------------------------------------------------------------
# one handler per subcommand


def _cfg(args, params: dict) -> RunConfig:
    return RunConfig(args.command, params, args.seed, args.out, args.fmt)


def _write_json(cfg: RunConfig, results, ok: bool = True) -> int:
    _write(cfg, emit_json(cfg, results))
    return EXIT_OK if ok else EXIT_VIOLATION


def _verify_local(args) -> int:
    cfg = _cfg(args, {"p": args.p, "n_max": args.n_max, "M": args.M})
    res = run_verify_local(args.p, args.n_max, args.M)
    return _write_json(cfg, res, res["ok"])


def _verify_matching(args) -> int:
    cfg = _cfg(args, {"primes": args.primes, "n_max": args.n_max})
    res = run_verify_matching(args.primes, args.n_max)
    return _write_json(cfg, res, res["ok"])


def _coverage(args) -> int:
    try:
        check_coverage_size(args.M, args.samples)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.torus and args.decomposition.startswith("split"):
        raise UsageError(f"--torus has no effect on {args.decomposition}")
    torus = args.torus or UNRAMIFIED
    cfg = _cfg(args, {"decomposition": args.decomposition, "p": args.p,
                      "M": args.M, "samples": args.samples, "torus": torus})
    names = DECOMPOSITIONS if args.decomposition == "all" else [args.decomposition]
    results = [run_coverage(name, args.p, args.M, args.samples, args.seed, torus)
               for name in names]
    return _write_json(cfg, results, all(r["ok"] for r in results))


def _classes(args) -> int:
    if args.t_max < args.t_min:
        raise UsageError("need t-min <= t-max")
    cfg = _cfg(args, {"t_min": args.t_min, "t_max": args.t_max, "level": args.level})
    rows = [[r.t, r.class_count_sl2, r.classes_in_level, r.dpsi]
            for r in (trace_row(args.level, t)
                      for t in signed_traces(args.t_min, args.t_max))]
    return _write_table(cfg, ["t", "class_count_sl2", "classes_in_level", "dpsi"], rows)


def _spectrum(args) -> int:
    return _pgt_table(args, {"level": args.level, "x_max": args.x_max,
                             "x_count": args.x_count},
                      _geometric_grid(args.x_max, args.x_count))


def _report(args) -> int:
    return _pgt_table(args, {"level": args.level, "x_grid": args.x_grid}, args.x_grid)


def _relation(args) -> int:
    try:
        data = RamifiedLevelData(tuple(args.ramified), tuple(args.exponents))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cfg = _cfg(args, {"ramified": args.ramified,
                      "exponents": ",".join(f"{p}={n}" for p, n in args.exponents),
                      "x_max": args.x_max})
    rep = psi_relation(data, args.x_max)
    code = _write_json(cfg, {
        "x": rep.x, "psi_D": rep.psi_quaternion,
        "terms": [{"subset": list(t.subset), "coefficient": str(t.coefficient),
                   "psi": t.value, "mode": t.mode} for t in rep.terms],
        "coefficient_sum": str(rep.coefficient_sum), "error": rep.error,
        "bound_7_10": rep.bound_7_10, "note": rep.note}, rep.identity_violation is None)
    if args.csv_out:
        header = ["t"] + [f"dpsi_I_{'_'.join(map(str, t.subset)) or 'none'}"
                          for t in rep.terms] + ["dpsi_quaternion"]
        rows = [[t, *vals, dq] for t, vals, dq in rep.per_trace]
        _write_table(replace(cfg, out=args.csv_out, fmt="csv"), header, rows)
    if code:
        print(f"identity violation at trace {rep.identity_violation}", file=sys.stderr)
    return code


COMMANDS = {
    "verify-local": _verify_local,
    "verify-matching": _verify_matching,
    "coverage": _coverage,
    "classes": _classes,
    "spectrum": _spectrum,
    "relation": _relation,
    "report": _report,
}


def _geometric_grid(x_max: float, count: int):
    """count points from 10 to x_max in geometric progression, yielded lazily."""
    if count < 2:
        return [x_max]
    lo, hi = 10.0, float(x_max)
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return (lo * ratio ** k for k in range(count))


def _pgt_table(args, params: dict, xs) -> int:
    """The counting-function table of spectrum and report, one row per x."""
    cfg = _cfg(args, params)
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
