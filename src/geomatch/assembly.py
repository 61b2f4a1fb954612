"""Global assembly: ramification data, subset coefficients, and the identity
expressing the quaternion-side counting function through matrix-side ones.

The per-trace engine: for a hyperbolic trace t, c * dpsi of a group is the
product of normalized local orbital integrals at the canonical root of
X^2 - t X + 1, times a trace-dependent but group-independent constant.  So
every group is predicted as c_1 dpsi_1(t) of Gamma(1), extracted from
enumeration (never from class-number data), times the ratio of its local
factors to Gamma(1)'s at its own primes, where all the others agree.  So is
the quaternion side, which the relation checks against the Eichler terms.

A local factor reads the trace only through its local type at p
(padic.local_type: the torus kind and v_p(t - 2), v_p(t + 2)).  The closed
forms are evaluated at the type itself, with no p-adic element built, and
factors and their exact ratios to Gamma(1)'s are cached per (kind, level,
local type).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .geodesics import GroupDescriptor, c_factor, dpsi_enumerated, signed_traces, trace_bound
from .integrals import matched_value, matching_combination, orbital, TestFunctionSpec
from .orders import OrderKind
from .padic import (
    ENUM_CAP,
    EnumerationTooLarge,
    LocalType,
    factorize,
    is_prime,
    local_type,
)

MAX_EXPONENT = 1000  # cost grows as the square of a level; at 1000 a relation stays near 0.1 s
MAX_PRIME = ENUM_CAP ** 2  # is_prime divides by trial: at most 2^20 steps, 0.07 s


@dataclass(frozen=True)
class RamifiedLevelData:
    """Ramification set of a rational division quaternion algebra plus levels.

    ram must have even cardinality >= 2 (unramified at infinity); exponents
    is a finitely supported map prime -> level, which may also assign levels
    at unramified primes, up to MAX_EXPONENT.  No prime may repeat or exceed MAX_PRIME.
    """

    ram: tuple[int, ...]
    exponents: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        ram = tuple(sorted(set(self.ram)))
        exponents = dict(self.exponents)
        if len(ram) < len(self.ram) or len(exponents) < len(self.exponents):
            raise ValueError("a prime is repeated in the ramification set or the exponents")
        if len(ram) % 2 or len(ram) < 2:
            raise ValueError("ramification set must have even cardinality >= 2")
        for p in ram:
            if p > MAX_PRIME or not is_prime(p):
                raise ValueError(f"{p} is not a prime up to 2^40")
        for p, n in exponents.items():
            if p > MAX_PRIME or not is_prime(p) or not 0 <= n <= MAX_EXPONENT:
                raise ValueError(f"exponents map primes <= 2^40 to levels 0 to {MAX_EXPONENT}")
        object.__setattr__(self, "ram", ram)
        object.__setattr__(self, "exponents",
                           tuple(sorted((p, n) for p, n in exponents.items() if n > 0)))


def _double(items, f, g):
    """[g(items[0]), f(item) for every item, g(item) for the rest]: one ramified prime.

    Doubling at each ramified prime, from the largest down, with f for the
    subsets that take the prime and g for those that do not, lists the subsets
    in sorted order: for the least prime p, the sorted subsets are (), then
    (p,) + s, then s != (), for s over the sorted subsets of the rest.
    """
    rest = list(map(g, items))
    return rest[:1] + list(map(f, items)) + rest[1:]


def relation_terms(data: RamifiedLevelData):
    """((I, coeff_I, descriptor of Gamma_I), ...) over the subsets I of ram, and D's descriptor."""
    plan = _relation_plan(data)
    return plan.terms, plan.qdesc


# ---------------------------------------------------------------------------
# local factors


@lru_cache(maxsize=None)
def local_factor(kind: OrderKind, level: int, lt: LocalType) -> Fraction:
    """Normalized local orbital integral at the canonical element of local type lt.

    Exact, with the norm-index prefactor.  orbital reads lt as it would read
    that element, so no element is built and no precision is chosen.
    """
    return orbital(TestFunctionSpec(kind, level, True), lt)


@lru_cache(maxsize=None)
def matched_local_factor(level: int, lt: LocalType) -> Fraction:
    """a_p O(f) + b_p O(g) at the canonical element of local type lt (norm-indexed)."""
    return matched_value(level, lt, include_norm_index=True)


@lru_cache(maxsize=None)
def local_ratio(kind: OrderKind, level: int, lt: LocalType) -> tuple[int, int]:
    """local_factor(kind, level, lt) over Gamma(1)'s factor at the same type, exactly.

    The reduced ratio as a (numerator, denominator) pair of ints, so that a
    product of ratios is two int products and one division.
    """
    full = local_factor(OrderKind.M, 0, lt)
    if full <= 0:
        raise AssertionError("full-level local factor must be positive")
    ratio = local_factor(kind, level, lt) / full
    return ratio.numerator, ratio.denominator


def factor_support(desc: GroupDescriptor, t: int) -> tuple[int, ...]:
    """Primes where the local factor can differ from 1."""
    supp = {p for p, _, _ in desc.entries}
    supp.update(p for p, _ in factorize(abs(t * t - 4) or 1))  # t = +-2: no primes
    return tuple(sorted(supp))


def local_product(desc: GroupDescriptor, t: int) -> Fraction:
    """Product of the local factors over the finite support."""
    val = Fraction(1)
    for p in factor_support(desc, t):
        kind, level = desc.local_entry(p)
        val *= local_factor(kind, level, local_type(t, p))
        if val == 0:
            return val
    return val


@lru_cache(maxsize=None)
def extract_global_constant(t: int) -> float:
    """c * dpsi of the full-level group Gamma(1) at trace t.

    Every other group is predicted from it through the ratio of its local
    factors to Gamma(1)'s; extracted from enumeration, never from
    class-number or regulator formulas.
    """
    base = dpsi_enumerated(1, t)
    if base <= 0:
        raise AssertionError("full-level dpsi must be positive for |t| > 2")
    return float(c_factor(GroupDescriptor.principal(1))) * base


def predict_dpsi(desc: GroupDescriptor, t: int) -> float:
    """dpsi of the group at trace t predicted from the local factors.

    c dpsi / (c_1 dpsi_1) is local_product(desc) / local_product(Gamma(1)),
    whose factors agree away from the descriptor's own primes, so only those
    enter the ratio; each prime's exact ratio is cached per local type.  The
    ratios' numerators and denominators are multiplied as ints and divided
    once: int true division is correctly rounded, as float(Fraction) is.
    """
    num = den = 1
    for p, kind, level in desc.entries:
        n, d = local_ratio(kind, level, local_type(t, p))
        if not n:
            return 0.0
        num, den = num * n, den * d
    return extract_global_constant(t) * (num / den) / float(c_factor(desc))


def dpsi_value(desc: GroupDescriptor, t: int) -> tuple[float, str]:
    """(dpsi, mode) of the group at trace t.

    Enumerated where the group is Gamma(N), at any level N, and predicted
    from the local factors everywhere else.
    """
    N = desc.principal_level()
    if N is not None:
        return dpsi_enumerated(N, t), "enumerated"
    return predict_dpsi(desc, t), "predicted"


# ---------------------------------------------------------------------------
# the per-trace relation and the counting-function report


# Both sides of c_D dpsi_D = sum_I coeff_I c_I dpsi_I round exact local products, and
# the coeff_I have both signs, so the gap is measured against sum_I |coeff_I c_I dpsi_I|:
# rounding leaves under 5e-16 of it over 3 698 traces, a term off by 1e-6 about 1e-7.
IDENTITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class _RelationPlan:
    """What _trace_terms reads of one relation, formed once per relation."""

    terms: tuple  # (I, coeff_I, descriptor of Gamma_I) per Eichler term, in sorted-subset order
    qdesc: GroupDescriptor
    # per prime, increasing: (p, whether ramified, f-level, g-level, whether a
    # larger ramified prime follows); f-level = g-level = n at an unramified p
    steps: tuple[tuple[int, bool, int, int, bool], ...]
    coefficient_sum: Fraction
    floats: tuple[tuple[float, float], ...]  # (c_I, coeff_I c_I) per term
    c_q: float  # c_D
    principal: int  # the one term that is a Gamma(N), I = ram: enumerated

    def modes(self) -> tuple[str, ...]:
        return tuple("enumerated" if k == self.principal else "predicted"
                     for k in range(len(self.terms)))


def _relation_plan(data: RamifiedLevelData) -> _RelationPlan:
    """The relation's terms, D's descriptor and one step per prime, in one walk.

    A ramified p of level n doubles each term (_double), into one with a_p and
    (p, M, f-level) for p in I and one with b_p and (p, J, g-level) for p not
    in I, and gives the quaternion side (p, D, n); any other p of level n adds
    (p, M, n) to both sides.  The walk runs from the largest prime down and
    prepends, so entries come out in increasing prime order and the subsets
    in sorted order.  The coefficients sum to 1 exactly since a_p + b_p = 1.
    """
    levels = dict(data.exponents)
    last = max(data.ram)
    terms = [((), Fraction(1), ())]
    quaternion = ()
    steps = []
    for p in sorted(set(data.ram) | levels.keys(), reverse=True):
        n = levels.get(p, 0)
        if p in data.ram:
            combo = matching_combination(p, n)
            f_entry, g_entry = (p, OrderKind.M, combo.f_level), (p, OrderKind.J, combo.g_level)
            terms = _double(
                terms,
                lambda term: ((p, *term[0]), term[1] * combo.coeff_f, (f_entry, *term[2])),
                lambda term: (term[0], term[1] * combo.coeff_g, (g_entry, *term[2])))
            quaternion = ((p, OrderKind.D, n), *quaternion)
            steps.append((p, True, combo.f_level, combo.g_level, p < last))
        else:
            entry = (p, OrderKind.M, n)
            terms = [(s, c, (entry, *e)) for s, c, e in terms]
            quaternion = (entry, *quaternion)
            steps.append((p, False, n, n, p < last))
    coefficient_sum = sum(c for _, c, _ in terms)
    if coefficient_sum != 1:
        raise AssertionError("subset coefficients must sum to 1")
    terms = tuple((s, c, GroupDescriptor(e)) for s, c, e in terms)
    floats = tuple((c := float(c_factor(desc)), float(coeff) * c) for _, coeff, desc in terms)
    qdesc = GroupDescriptor(quaternion)
    # _double moves the all-f term, I = ram, from index k to k + 1
    return _RelationPlan(terms, qdesc, tuple(reversed(steps)), coefficient_sum, floats,
                         float(c_factor(qdesc)), len(data.ram))


_ZERO = (0, 1)  # the ratio of a factor that no predicted term reaches


def _trace_terms(plan: _RelationPlan, t: int):
    """([dpsi_I per Eichler term], dpsi_D, whether the identity holds) at trace t.

    Each value is the one dpsi_value gives, and dpsi_D is predict_dpsi's.  One
    walk up the primes reads each local type once, and reads a ratio only
    where predict_dpsi would: where a predicted descriptor taking it has a
    nonzero product over the smaller primes.  Then _double, from the largest
    ramified prime down, forms every term's ratio with one int product per term.
    """
    with_j = False  # some product with a J entry over the primes walked is nonzero
    num = den = 1  # the unramified primes' ratios, shared by every term
    pairs = []  # (f ratio, g ratio) per ramified prime
    for p, ramified, f_level, g_level, later in plan.steps:
        lt = local_type(t, p)
        f = local_ratio(OrderKind.M, f_level, lt) if with_j or later else _ZERO
        if not ramified:  # f is the ratio of every term
            if not f[0]:
                with_j = False
                break
            num, den = num * f[0], den * f[1]
            continue
        g = local_ratio(OrderKind.J, g_level, lt)
        with_j = with_j and f[0] != 0 or g[0] != 0
        if not (f[0] or g[0]):
            break
        pairs.append((f, g))
    vals = [0.0] * len(plan.terms)
    if with_j:
        nums, dens = [num], [den]
        for (f_num, f_den), (g_num, g_den) in reversed(pairs):
            nums = _double(nums, f_num.__mul__, g_num.__mul__)
            dens = _double(dens, f_den.__mul__, g_den.__mul__)
        base = extract_global_constant(t)
        vals = [base * (n / d) / c if n else 0.0
                for n, d, (c, _) in zip(nums, dens, plan.floats)]
    vals[plan.principal] = dpsi_value(plan.terms[plan.principal][2], t)[0]
    dpsi_q = predict_dpsi(plan.qdesc, t)
    weighted = [coeff_c * val for (_, coeff_c), val in zip(plan.floats, vals) if val]
    gap = sum(weighted) - plan.c_q * dpsi_q
    return vals, dpsi_q, abs(gap) <= IDENTITY_TOLERANCE * sum(map(abs, weighted))


@dataclass(frozen=True)
class RelationTerm:
    subset: tuple[int, ...]
    coefficient: Fraction
    value: float  # dpsi at one trace, or psi up to x
    mode: str


@dataclass(frozen=True)
class DpsiRelationReport:
    t: int
    dpsi_quaternion: float
    terms: tuple[RelationTerm, ...]
    exact_identity_ok: bool
    matching_identity_ok: bool
    identity_ok: bool


def dpsi_relation(data: RamifiedLevelData, t: int) -> DpsiRelationReport:
    """Decompose c_D dpsi_D(t) = sum_I coeff_I c_I dpsi_I(t) and verify it.

    dpsi_D is the quaternion descriptor's predicted value; the exact rational
    identities behind the relation are checked as well: the subset expansion of
    the local products and the agreement with the quaternion-side local product.
    """
    plan = _relation_plan(data)
    terms, qdesc = plan.terms, plan.qdesc
    vals, dpsi_q, identity_ok = _trace_terms(plan, t)
    subset_sum = sum(coeff * local_product(desc, t) for _, coeff, desc in terms)
    matched = Fraction(1)
    for p in factor_support(qdesc, t):
        kind, level = qdesc.local_entry(p)
        lt = local_type(t, p)
        if kind is OrderKind.D:
            matched *= matched_local_factor(level, lt)
        else:
            matched *= local_factor(kind, level, lt)
    exact_ok = subset_sum == matched
    matching_ok = matched == local_product(qdesc, t)
    relation = tuple(RelationTerm(s, coeff, val, mode)
                     for (s, coeff, _), val, mode in zip(terms, vals, plan.modes()))
    return DpsiRelationReport(t, dpsi_q, relation, exact_ok, matching_ok, identity_ok)


@dataclass(frozen=True)
class PsiRelationReport:
    x: float
    psi_quaternion: float
    terms: tuple[RelationTerm, ...]
    coefficient_sum: Fraction
    error: float
    bound_7_10: float
    per_trace: tuple[tuple[int, tuple[float, ...], float], ...]  # (t, dpsi_I, dpsi_D)
    note: str
    identity_violation: int | None  # the first trace where c_D dpsi_D misses the identity


def psi_relation(data: RamifiedLevelData, x) -> PsiRelationReport:
    """Assemble Psi of the quaternion group from the matrix-side groups.

    Psi_D(x) = sum_I coeff_I Psi_I(x); each Psi_I accumulates its dpsi values
    with the weight c_I 2 sqrt(|t|-2), i.e. the log of the class norm.  The
    quaternion-side value is *defined* through this identity (the division
    side has no direct geodesic enumeration here); the report says so.
    Raises EnumerationTooLarge, before any work, when the per_trace table
    (2^|ram| groups times the signed traces up to x) would exceed ENUM_CAP.
    """
    if x < 10:
        raise ValueError("x must be >= 10")
    size = 2 ** len(data.ram) * 2 * (trace_bound(x) - 2)
    if size > ENUM_CAP:
        raise EnumerationTooLarge(f"relation table of {size} values exceeds 2^20")
    plan = _relation_plan(data)
    psi_terms = [0.0] * len(plan.terms)
    per_trace = []
    violation = None
    for t in signed_traces(3, trace_bound(x)):
        weight = 2.0 * math.sqrt(abs(t) - 2)
        vals, dq, ok = _trace_terms(plan, t)
        psi_terms = [psi + c * weight * val
                     for psi, (c, _), val in zip(psi_terms, plan.floats, vals)]
        per_trace.append((t, tuple(vals), dq))
        if not ok and violation is None:
            violation = t
    relation = tuple(RelationTerm(s, coeff, psi, mode) for (s, coeff, _), psi, mode
                     in zip(plan.terms, psi_terms, plan.modes()))
    psi_q = 0.0
    for term in relation:
        psi_q += float(term.coefficient) * term.value
    return PsiRelationReport(
        x=float(x),
        psi_quaternion=psi_q,
        terms=relation,
        coefficient_sum=plan.coefficient_sum,
        error=psi_q - float(x),
        bound_7_10=float(x) ** 0.7,
        per_trace=tuple(per_trace),
        note=("quaternion-side values are defined through the per-trace "
              "matched-combination identity, not by direct enumeration"),
        identity_violation=violation,
    )
