"""In-memory span recorder around the public functions of each geomatch layer.

Every traced function is replaced, in every geomatch module namespace that
binds it, by a wrapper.  Wrappers come in two kinds:

* span: one record (name, start, end, parent) per call, kept in memory and
  written out at the end; self time is derived from the records.
* aggregate: functions called inside per-sample or per-class inner loops
  (hundreds of thousands of calls per run).  They keep a call count and a
  self-time total only, and their time is charged to the enclosing span so
  that its derived self time excludes it.  An aggregate never encloses a
  span, which the recorder checks.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

SPAN = "span"
AGGREGATE = "aggregate"


@dataclass(frozen=True)
class Traced:
    """One traced function: module, attribute name, wrapper kind."""

    module: str
    name: str
    kind: str = SPAN

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


ORACLE_ENUM = ("enum_unit_filtration_index", "_enum_head_index",
               "_enum_radical_quotient", "enum_order_unit_index",
               "enum_gl2_unit_index_direct", "_enum_quad_stratum",
               "enum_quad_index_pair", "enum_quad_order_index",
               "enum_norm_image")

TRACED = (
    Traced("padic", "classify_torus"),
    Traced("padic", "is_square"),
    Traced("padic", "torus_generator"),
    Traced("orders", "in_normalizer", AGGREGATE),
    Traced("orders", "order_membership", AGGREGATE),
    Traced("orders", "congruence_subgroup_membership", AGGREGATE),
    Traced("integrals", "orbital"),
    Traced("integrals", "verify_matching"),
    Traced("oracle", "oracle_orbital"),
    Traced("oracle", "coset_coverage_split"),
    Traced("oracle", "coset_coverage_nonsplit"),
    Traced("oracle", "radical_intersection_test"),
    Traced("oracle", "index_enumeration_test"),
    *(Traced("oracle", name, AGGREGATE) for name in ORACLE_ENUM),
    Traced("geodesics", "primitive_classes"),
    Traced("geodesics", "pell_fundamental"),
    Traced("geodesics", "sl2_classes"),
    Traced("geodesics", "gamma_splitting", AGGREGATE),
    Traced("geodesics", "spectrum_rows"),
    Traced("geodesics", "pi_enumerated"),
    Traced("assembly", "local_factor"),
    Traced("assembly", "matched_local_factor"),
    Traced("assembly", "factor_support", AGGREGATE),
    Traced("assembly", "local_product"),
    Traced("assembly", "extract_global_constant"),
    Traced("assembly", "dpsi_value"),
    Traced("cli", "pmap"),
    Traced("cli", "emit_json"),
    Traced("cli", "emit_csv"),
    Traced("cli", "_write"),
)

ROOT_SPAN = "cli.main"  # one per CLI invocation, the parent of every other span
KEEP_ARGS = frozenset({"padic.classify_torus", "oracle.coset_coverage_split",
                       "oracle.coset_coverage_nonsplit", "cli.pmap"})
KEEP_RESULTS = frozenset({"assembly.dpsi_value"})


def geomatch_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "geomatch" or n.startswith("geomatch."))]


def clear_caches() -> None:
    """cache_clear() every lru_cache bound in a geomatch module."""
    seen = set()
    for mod in geomatch_modules():
        for obj in vars(mod).values():
            obj = getattr(obj, "__wrapped_original__", obj)
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info") \
                    and id(obj) not in seen:
                seen.add(id(obj))
                obj.cache_clear()


class Recorder:
    """Installs the wrappers, records spans and aggregates, restores on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.inner: list[float] = []  # aggregate time charged to the span
        self.args: dict[int, tuple] = {}  # span index -> (args, kwargs), KEEP_ARGS only
        self.results: dict[int, object] = {}  # span index -> result, KEEP_RESULTS only
        self.agg_calls: Counter = Counter()
        self.agg_self: Counter = Counter()
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._agg_stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Recorder":
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in geomatch_modules()}
        for tr in TRACED:
            orig = getattr(mods[tr.module], tr.name)
            self.originals[tr.key] = orig
            wrapper = (self._span_wrapper if tr.kind == SPAN
                       else self._aggregate_wrapper)(tr.key, orig)
            wrapper.__wrapped_original__ = orig
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()
        return False

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; used for whole CLI invocations."""
        idx = self._open(name, None)
        self.starts[idx] = perf_counter()
        try:
            yield
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def _open(self, name: str, args) -> int:
        if self._agg_stack:
            raise RuntimeError(f"span {name} opened inside an aggregate call")
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.inner.append(0.0)
        if name in KEEP_ARGS:
            self.args[idx] = args
        self._stack.append(idx)
        return idx

    def _span_wrapper(self, key, fn):
        starts, ends, stack = self.starts, self.ends, self._stack
        keep_result = key in KEEP_RESULTS

        def wrapper(*args, **kwargs):
            idx = self._open(key, (args, kwargs))
            starts[idx] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if keep_result:
                self.results[idx] = out
            return out

        return wrapper

    def _aggregate_wrapper(self, key, fn):
        agg_stack, stack, inner = self._agg_stack, self._stack, self.inner
        calls, selft = self.agg_calls, self.agg_self

        def wrapper(*args, **kwargs):
            acc = [0.0]
            agg_stack.append(acc)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                agg_stack.pop()
                calls[key] += 1
                selft[key] += dt - acc[0]
                if agg_stack:
                    agg_stack[-1][0] += dt
                elif stack:
                    inner[stack[-1]] += dt

        return wrapper

    # -- derived quantities ---------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus child spans minus aggregate time inside it."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] - self.inner[i]
                for i in range(len(self.names))]

    def misses(self, key: str) -> int:
        return self.originals[key].cache_info().misses

    def write(self, path) -> None:
        """Spans as CSV, times in s from the first span's start.

        agg_s is the aggregate time inside the span, so self time is
        end_s - start_s - (child spans) - agg_s, as in self_times().
        """
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,agg_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{self.parents[i]},{self.inner[i]:.9f}\n")
            fh.write("# aggregates: name,calls,self_s\n")
            for key in sorted(self.agg_calls):
                fh.write(f"# {key},{self.agg_calls[key]},{self.agg_self[key]:.9f}\n")


# ---------------------------------------------------------------------------
# per-layer metrics

COUNT, SECONDS = "count", "s"

# traced functions reported one by one; the rest are grouped below
LAYER_FUNCTIONS = (
    "padic.classify_torus", "padic.is_square", "padic.torus_generator",
    "orders.in_normalizer", "orders.order_membership",
    "orders.congruence_subgroup_membership",
    "integrals.orbital", "integrals.verify_matching",
    "oracle.oracle_orbital", "oracle.radical_intersection_test",
    "oracle.index_enumeration_test",
    "geodesics.primitive_classes", "geodesics.pell_fundamental",
    "geodesics.sl2_classes", "geodesics.gamma_splitting",
    "geodesics.spectrum_rows", "geodesics.pi_enumerated",
    "assembly.local_factor", "assembly.matched_local_factor",
    "assembly.factor_support", "assembly.local_product",
    "assembly.extract_global_constant",
)
# the lru-cached ones, which also report misses
CACHED = frozenset({
    "geodesics.primitive_classes", "geodesics.pell_fundamental",
    "geodesics.sl2_classes", "assembly.local_factor",
    "assembly.matched_local_factor", "assembly.extract_global_constant",
})

COVERAGE = ("oracle.coset_coverage_split", "oracle.coset_coverage_nonsplit")
COVERAGE_LEGS = ((2, 3), (3, 2), (3, 3))
EMIT = ("cli.emit_json", "cli.emit_csv", "cli._write")


def _per_layer_units() -> dict[str, str]:
    units = {}
    for key in LAYER_FUNCTIONS:
        units[f"{key}.calls"] = COUNT
        if key in CACHED:
            units[f"{key}.misses"] = COUNT
        units[f"{key}.self_s"] = SECONDS
    units["padic.max_precision"] = "digits"
    units["oracle.coverage.calls"] = COUNT
    units["oracle.coverage.self_s"] = SECONDS
    for p, M in COVERAGE_LEGS:
        units[f"oracle.coverage.samples_per_s.p{p}_M{M}"] = "1/s"
    units["oracle.enum.misses"] = COUNT
    units["oracle.enum.self_s"] = SECONDS
    units["assembly.local_factor.retries"] = COUNT
    units["assembly.dpsi_value.enumerated"] = COUNT
    units["assembly.dpsi_value.predicted"] = COUNT
    units["cli.pmap.self_s"] = SECONDS
    units["cli.pmap.tasks"] = COUNT
    units["cli.emit.self_s"] = SECONDS
    units["cli.pmap.speedup"] = "ratio"
    units["trace.overhead_s"] = SECONDS
    order = ("padic", "orders", "integrals", "oracle", "geodesics", "assembly", "cli",
             "trace")
    return dict(sorted(units.items(), key=lambda kv: order.index(kv[0].split(".")[0])))


PER_LAYER_UNITS = _per_layer_units()


def _bound(rec: Recorder, idx: int) -> dict:
    """Arguments of span idx by parameter name, defaults filled in."""
    args, kwargs = rec.args[idx]
    bound = inspect.signature(rec.originals[rec.names[idx]]).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _classify_precision(rec: Recorder, idx: int) -> int:
    call = _bound(rec, idx)
    if call["M"] is not None:
        return call["M"]
    from geomatch.padic import default_precision
    return default_precision(call["t"], call["p"])


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every per-layer metric except the two that need untraced runs."""
    selfs = rec.self_times()
    calls: Counter = Counter(rec.agg_calls)
    self_s: Counter = Counter(rec.agg_self)
    for name, s in zip(rec.names, selfs):
        calls[name] += 1
        self_s[name] += s
    out: dict[str, float] = {}
    for key in LAYER_FUNCTIONS:
        out[f"{key}.calls"] = calls[key]
        if key in CACHED:
            out[f"{key}.misses"] = rec.misses(key)
        out[f"{key}.self_s"] = self_s[key]
    out["padic.max_precision"] = max(
        (_classify_precision(rec, i) for i, n in enumerate(rec.names)
         if n == "padic.classify_torus"), default=0)
    out["oracle.coverage.calls"] = sum(calls[k] for k in COVERAGE)
    out["oracle.coverage.self_s"] = sum(self_s[k] for k in COVERAGE)
    samples: Counter = Counter()
    seconds: Counter = Counter()
    for i, name in enumerate(rec.names):
        if name in COVERAGE:
            call = _bound(rec, i)
            leg = (call["p"], call["M"])
            samples[leg] += call["samples"]
            seconds[leg] += rec.ends[i] - rec.starts[i]
    for leg in COVERAGE_LEGS:
        out["oracle.coverage.samples_per_s.p{}_M{}".format(*leg)] = \
            samples[leg] / seconds[leg] if seconds[leg] else 0.0
    enum_keys = [f"oracle.{n}" for n in ORACLE_ENUM]
    out["oracle.enum.misses"] = sum(
        rec.originals[k].cache_info().misses for k in enum_keys
        if hasattr(rec.originals[k], "cache_info"))
    out["oracle.enum.self_s"] = sum(self_s[k] for k in enum_keys)
    under_local = sum(1 for i, name in enumerate(rec.names)
                      if name == "padic.classify_torus"
                      and rec.parents[i] >= 0
                      and rec.names[rec.parents[i]] == "assembly.local_factor")
    out["assembly.local_factor.retries"] = under_local - rec.misses("assembly.local_factor")
    modes = Counter(r[1] for r in rec.results.values())
    out["assembly.dpsi_value.enumerated"] = modes["enumerated"]
    out["assembly.dpsi_value.predicted"] = modes["predicted"]
    out["cli.pmap.self_s"] = self_s["cli.pmap"]
    out["cli.pmap.tasks"] = sum(len(_bound(rec, i)["items"])
                                for i, n in enumerate(rec.names) if n == "cli.pmap")
    out["cli.emit.self_s"] = sum(self_s[k] for k in EMIT)
    return out
