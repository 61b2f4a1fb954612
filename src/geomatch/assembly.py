"""Global assembly: ramification data, subset coefficients, and the identity
expressing the quaternion-side counting function through matrix-side ones.

The per-trace engine: for a hyperbolic trace t, the product of normalized
local orbital integrals at the canonical root of X^2 - t X + 1, times a
trace-dependent but group-independent constant, equals c * dpsi of the group.
The constant is extracted from the full-level enumeration (never computed
from class-number data) and then predicts every other group, including the
quaternion side, whose dpsi is defined through the matched combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .geodesics import MAX_SPLITTING_LEVEL, dpsi_enumerated, signed_traces, trace_bound
from .integrals import (
    matched_value,
    matching_combination,
    orbital,
    TestFunctionSpec,
)
from .orders import (
    DivisionModel,
    MatElt,
    OrderKind,
    congruence_subgroup_membership,
)
from .padic import (
    PAdicContext,
    PrecisionExhausted,
    classify_torus,
    default_precision,
    is_prime,
    torus_generator,
)


@dataclass(frozen=True)
class RamifiedLevelData:
    """Ramification set of a rational division quaternion algebra plus levels.

    ram must have even cardinality >= 2 (unramified at infinity); exponents
    is a finitely supported map prime -> level, which may also assign levels
    at unramified primes.
    """

    ram: tuple[int, ...]
    exponents: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        ram = tuple(sorted(set(self.ram)))
        exponents = dict(self.exponents)
        if len(ram) % 2 or len(ram) < 2:
            raise ValueError("ramification set must have even cardinality >= 2")
        for p in ram:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        for p, n in exponents.items():
            if not is_prime(p) or n < 0:
                raise ValueError("exponents must map primes to levels >= 0")
        object.__setattr__(self, "ram", ram)
        object.__setattr__(self, "exponents",
                           tuple(sorted((p, n) for p, n in exponents.items() if n > 0)))

    def exponent(self, p: int) -> int:
        return dict(self.exponents).get(p, 0)

    def level_support(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.ram) | {p for p, _ in self.exponents}))


def subset_coefficients(data: RamifiedLevelData) -> dict[frozenset, Fraction]:
    """prod a_p (p in I) * prod b_p (p in ram - I) over subsets I of ram.

    The coefficients of the matched combinations at each ramified prime; the
    values sum to 1 exactly since a_p + b_p = 1.
    """
    coeffs = {}
    for mask in range(2 ** len(data.ram)):
        subset = frozenset(p for k, p in enumerate(data.ram) if mask >> k & 1)
        val = Fraction(1)
        for p in data.ram:
            combo = matching_combination(p, data.exponent(p))
            val *= combo.coeff_f if p in subset else combo.coeff_g
        coeffs[subset] = val
    total = sum(coeffs.values())
    if total != 1:
        raise AssertionError("subset coefficients must sum to 1")
    return coeffs


MATRIX = "matrix"
QUATERNION = "quaternion"


@dataclass(frozen=True)
class GroupDescriptor:
    """A congruence group given by its local kind and level at each prime.

    Primes absent from entries carry (M, 0).  The matrix side describes a
    unit group of an Eichler order in M2; the quaternion side replaces the
    order by the maximal order of the division algebra at ramified primes.
    """

    side: str
    entries: tuple[tuple[int, str, int], ...]
    label: str = ""

    def local_entry(self, p: int) -> tuple[OrderKind, int]:
        for q, kind, level in self.entries:
            if q == p:
                return OrderKind(kind), level
        return OrderKind.M, 0

    @classmethod
    def principal(cls, N: int) -> "GroupDescriptor":
        if N < 1:
            raise ValueError("level must be >= 1")
        entries = []
        n = N
        p = 2
        while n > 1:
            if is_prime(p) and n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                entries.append((p, "M", e))
            p += 1
        return cls(MATRIX, tuple(entries), label=f"Gamma({N})")

    @classmethod
    def eichler(cls, data: RamifiedLevelData, subset: frozenset) -> "GroupDescriptor":
        entries = []
        for p in data.level_support():
            n = data.exponent(p)
            if p not in data.ram:
                if n:
                    entries.append((p, "M", n))
            elif p in subset:
                combo = matching_combination(p, n)
                entries.append((p, "M", combo.f_level))
            else:
                combo = matching_combination(p, n)
                entries.append((p, "J", combo.g_level))
        name = ",".join(str(p) for p in sorted(subset)) or "-"
        return cls(MATRIX, tuple(entries), label=f"Eichler[I={{{name}}}]")

    @classmethod
    def quaternion(cls, data: RamifiedLevelData) -> "GroupDescriptor":
        entries = []
        for p in data.level_support():
            n = data.exponent(p)
            if p in data.ram:
                entries.append((p, "D", n))
            elif n:
                entries.append((p, "M", n))
        return cls(QUATERNION, tuple(entries),
                   label="Gamma_D(" + "*".join(f"{p}^{data.exponent(p)}"
                                               for p in data.ram) + ")")

    def principal_level(self) -> int | None:
        """N when the group is the principal congruence subgroup Gamma(N)."""
        if self.side != MATRIX:
            return None
        N = 1
        for p, kind, level in self.entries:
            if kind != "M":
                return None
            N *= p ** level
        return N


@lru_cache(maxsize=None)
def group_c_factor(desc: GroupDescriptor) -> Fraction:
    """1/2 when -1 satisfies every local congruence, by explicit membership, else 1."""
    for p, kind, level in desc.entries:
        if level == 0:
            continue
        ctx = PAdicContext(p, level + 4)
        if kind == "D":
            neg = DivisionModel(ctx).elt((-1, 0), (0, 0))
        else:
            neg = MatElt.from_rows(ctx, ((-1, 0), (0, -1)))
        if not congruence_subgroup_membership(OrderKind(kind), neg, level):
            return Fraction(1)
    return Fraction(1, 2)


# ---------------------------------------------------------------------------
# local factors


def _at_canonical_element(value, level: int, t: int, p: int):
    """value(x) at the canonical trace-t element x of Q_p.

    x is built at precision default_precision(t, p) + level, which is doubled
    after each PrecisionExhausted, six tries in all.
    """
    M = default_precision(t, p) + level
    for _ in range(6):
        try:
            return value(torus_generator(classify_torus(t, p, M), t))
        except PrecisionExhausted:
            M *= 2
    raise PrecisionExhausted(f"local factor at p={p}, t={t} needs more than M={M}")


@lru_cache(maxsize=None)
def local_factor(kind: OrderKind, level: int, t: int, p: int) -> Fraction:
    """Normalized local orbital integral at the canonical trace-t element.

    Includes the norm-index prefactor; returns an exact rational.
    """
    if abs(t) <= 2:
        raise ValueError("hyperbolic traces only")
    spec = TestFunctionSpec(kind, level, include_norm_index=True)
    return _at_canonical_element(lambda x: orbital(spec, x), level, t, p)


@lru_cache(maxsize=None)
def matched_local_factor(level: int, t: int, p: int) -> Fraction:
    """a_p O(f) + b_p O(g) at the canonical trace-t element (norm-indexed)."""
    return _at_canonical_element(
        lambda x: matched_value(p, level, x, include_norm_index=True), level, t, p)


def factor_support(desc: GroupDescriptor, t: int) -> tuple[int, ...]:
    """Primes where the local factor can differ from 1."""
    supp = {p for p, _, _ in desc.entries}
    dd = abs(t * t - 4)
    p = 2
    while p * p <= dd:
        if dd % p == 0:  # p is prime: every smaller prime is divided out
            supp.add(p)
            while dd % p == 0:
                dd //= p
        p += 1 if p == 2 else 2
    if dd > 1:
        supp.add(dd)
    return tuple(sorted(supp))


def local_product(desc: GroupDescriptor, t: int) -> Fraction:
    """Product of the local factors over the finite support."""
    val = Fraction(1)
    for p in factor_support(desc, t):
        kind, level = desc.local_entry(p)
        val *= local_factor(kind, level, t, p)
        if val == 0:
            return val
    return val


@lru_cache(maxsize=None)
def extract_global_constant(t: int) -> float:
    """c * dpsi of the full-level group divided by its local product.

    Group-independent at fixed t; extracted from enumeration, never from
    class-number or regulator formulas.
    """
    base = dpsi_enumerated(1, t)
    if base <= 0:
        raise AssertionError("full-level dpsi must be positive for |t| > 2")
    gamma1 = GroupDescriptor.principal(1)
    prod = local_product(gamma1, t)
    if prod <= 0:
        raise AssertionError("full-level local product must be positive")
    return 0.5 * base / float(prod)


def predict_dpsi(desc: GroupDescriptor, t: int) -> float:
    """dpsi of the group at trace t predicted from the local factors."""
    prod = local_product(desc, t)
    if prod == 0:
        return 0.0
    c = group_c_factor(desc)
    return extract_global_constant(t) * float(prod) / float(c)


def dpsi_value(desc: GroupDescriptor, t: int) -> tuple[float, str]:
    """(dpsi, mode) of the group at trace t.

    Enumerated where the group is Gamma(N) with N <= MAX_SPLITTING_LEVEL,
    predicted from the local factors everywhere else.
    """
    N = desc.principal_level()
    if N is not None and N <= MAX_SPLITTING_LEVEL:
        return dpsi_enumerated(N, t), "enumerated"
    return predict_dpsi(desc, t), "predicted"


# ---------------------------------------------------------------------------
# the per-trace relation and the counting-function report


@dataclass(frozen=True)
class DpsiRelationTerm:
    subset: tuple[int, ...]
    coefficient: Fraction
    c_factor: Fraction
    dpsi: float
    mode: str


@dataclass(frozen=True)
class DpsiRelationReport:
    t: int
    c_quaternion: Fraction
    dpsi_quaternion: float
    terms: tuple[DpsiRelationTerm, ...]
    exact_identity_ok: bool
    matching_identity_ok: bool


def dpsi_relation(data: RamifiedLevelData, t: int) -> DpsiRelationReport:
    """Decompose c_D dpsi_D(t) = sum_I coeff_I c_I dpsi_I(t) and verify it.

    dpsi_D is defined by the right-hand side (the quaternion side is never
    enumerated directly); the exact rational identities behind the relation
    are checked as well: the subset expansion of the local products and the
    agreement with the quaternion-side local product.
    """
    coeffs = subset_coefficients(data)
    qdesc = GroupDescriptor.quaternion(data)
    c_q = group_c_factor(qdesc)
    terms = []
    rhs = 0.0
    subset_sum = Fraction(0)
    for subset in sorted(coeffs, key=lambda s: tuple(sorted(s))):
        desc = GroupDescriptor.eichler(data, subset)
        c_i = group_c_factor(desc)
        val, mode = dpsi_value(desc, t)
        coeff = coeffs[subset]
        terms.append(DpsiRelationTerm(tuple(sorted(subset)), coeff, c_i, val, mode))
        rhs += float(coeff) * float(c_i) * val
        subset_sum += coeff * local_product(desc, t)
    matched = Fraction(1)
    for p in factor_support(qdesc, t):
        if p in data.ram:
            matched *= matched_local_factor(data.exponent(p), t, p)
        else:
            kind, level = qdesc.local_entry(p)
            matched *= local_factor(kind, level, t, p)
    exact_ok = subset_sum == matched
    matching_ok = matched == local_product(qdesc, t)
    dpsi_q = rhs / float(c_q)
    return DpsiRelationReport(t, c_q, dpsi_q, tuple(terms), exact_ok, matching_ok)


@dataclass(frozen=True)
class PsiRelationTerm:
    subset: tuple[int, ...]
    coefficient: Fraction
    psi: float
    mode: str


@dataclass(frozen=True)
class PsiRelationReport:
    x: float
    psi_quaternion: float
    terms: tuple[PsiRelationTerm, ...]
    coefficient_sum: Fraction
    error: float
    bound_7_10: float
    per_trace: tuple
    note: str


def psi_relation(data: RamifiedLevelData, x) -> PsiRelationReport:
    """Assemble Psi of the quaternion group from the matrix-side groups.

    Psi_D(x) = sum_I coeff_I Psi_I(x); each Psi_I accumulates its dpsi values
    with the weight c_I 2 sqrt(|t|-2), i.e. the log of the class norm.  The
    quaternion-side value is *defined* through this identity (the division
    side has no direct geodesic enumeration here); the report says so.
    """
    if x < 10:
        raise ValueError("x must be >= 10")
    coeffs = subset_coefficients(data)
    subsets = sorted(coeffs, key=lambda s: tuple(sorted(s)))
    descs = {s: GroupDescriptor.eichler(data, s) for s in subsets}
    modes = {}
    tmax = trace_bound(x)
    psi_terms = {s: 0.0 for s in subsets}
    per_trace = []
    qdesc = GroupDescriptor.quaternion(data)
    c_q = group_c_factor(qdesc)
    for t in signed_traces(3, tmax):
        weight = 2.0 * math.sqrt(abs(t) - 2)
        row = {"t": t}
        dq = 0.0
        for s in subsets:
            val, modes[s] = dpsi_value(descs[s], t)
            c = float(group_c_factor(descs[s]))
            psi_terms[s] += c * weight * val
            dq += float(coeffs[s]) * c * val
            row[f"dpsi[{descs[s].label}]"] = val
        row["dpsi_quaternion"] = dq / float(c_q)
        per_trace.append(row)
    terms = tuple(PsiRelationTerm(tuple(sorted(s)), coeffs[s], psi_terms[s], modes[s])
                  for s in subsets)
    psi_q = 0.0
    for term in terms:
        psi_q += float(term.coefficient) * term.psi
    return PsiRelationReport(
        x=float(x),
        psi_quaternion=psi_q,
        terms=terms,
        coefficient_sum=sum(coeffs.values()),
        error=psi_q - float(x),
        bound_7_10=float(x) ** 0.7,
        per_trace=tuple(per_trace),
        note=("quaternion-side values are defined through the per-trace "
              "matched-combination identity, not by direct enumeration"),
    )
