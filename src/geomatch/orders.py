"""The three local chain orders and their unit filtrations.

M2(o), the Iwahori order J (lower-left entry divisible by p), and the maximal
order of the division quaternion algebra in its cyclic model over the
unramified quadratic extension, which p alone fixes.  Matrix and quaternion
elements alike are four integer entries mod p^M over a denominator p^den, so
conjugators like n(p^-r) stay in exact residue arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .padic import (
    GUARD,
    PAdicContext,
    PrecisionExhausted,
    RegularElement,
    TorusData,
    SPLIT,
    UNRAMIFIED,
    hensel_lift,
    integer_valuation,
    unramified_generator_constant,
)


class OrderKind(enum.Enum):
    M = "M"
    J = "J"
    D = "D"

    # members are singletons compared by identity; hash them by identity too,
    # in C, rather than through Enum's Python-level hash of the name
    __hash__ = object.__hash__


class _MatFields(NamedTuple):
    ctx: PAdicContext
    e11: int
    e12: int
    e21: int
    e22: int
    den: int = 0


class MatElt(_MatFields):
    """A 2x2 matrix over Q_p stored as (integer matrix mod p^M) / p^den.

    An immutable tuple (ctx, e11, e12, e21, e22, den): equal fields give equal
    elements with equal hashes.
    """

    __slots__ = ()

    def __new__(cls, ctx: PAdicContext, e11: int, e12: int, e21: int, e22: int,
                den: int = 0) -> "MatElt":
        if den < 0:
            raise ValueError("denominator exponent must be >= 0")
        return tuple.__new__(cls, (ctx, e11, e12, e21, e22, den))

    @classmethod
    def from_rows(cls, ctx: PAdicContext, rows, den: int = 0) -> "MatElt":
        (a, b), (c, d) = rows
        m = ctx.modulus
        return cls(ctx, a % m, b % m, c % m, d % m, den)

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return self[1:5]

    def __mul__(self, other: "MatElt") -> "MatElt":
        ctx, a, b, c, d, k = self
        _, e, f, g, h, l = other
        m = ctx.modulus
        # k + l >= 0 already: skip the check in __new__
        return tuple.__new__(MatElt, (ctx, (a * e + b * g) % m, (a * f + b * h) % m,
                                      (c * e + d * g) % m, (c * f + d * h) % m, k + l))

    def minus_identity(self) -> "MatElt":
        """x - 1 at the same denominator."""
        ctx, a, b, c, d, den = self
        m = ctx.modulus
        s = ctx.p ** den
        return MatElt(ctx, (a - s) % m, b, c, (d - s) % m, den)

    def det_int(self) -> int:
        ctx, a, b, c, d, _ = self
        return (a * d - b * c) % ctx.modulus


# The radical staircase of each chain order, (slope, shifts): x lies in rad^n
# when v(e_i) - den >= ceil((slope n + shift_i) / 2) for each of its four
# entries e_i, the matrix entries for M and J and (u0, u1, w0, w1) of
# u + w pi_D for D.
_STAIRCASE = {
    OrderKind.M: (2, (0, 0, 0, 0)),
    OrderKind.J: (1, (0, -1, 1, 0)),
    OrderKind.D: (1, (0, 0, -1, -1)),
}


@lru_cache(maxsize=None)
def _radical_bounds(kind: OrderKind, n: int) -> tuple[int, int, int, int]:
    """The staircase lower bounds on v(e_i) - den for rad^n, n >= 0."""
    slope, shifts = _STAIRCASE[kind]
    return tuple(-(-(slope * n + s) // 2) for s in shifts)


def radical_power_membership(kind: OrderKind, x, n: int) -> bool:
    """Whether x lies in the n-th power of the Jacobson radical (the order for n <= 0)."""
    return _valuations_meet(_entry_valuations(x), _radical_bounds(kind, max(n, 0)),
                            x.den, x.ctx)


def order_membership(kind: OrderKind, x) -> bool:
    """Whether x lies in the order itself (radical power 0)."""
    return radical_power_membership(kind, x, 0)


def is_order_unit(kind: OrderKind, x) -> bool:
    """Whether x is a unit of the order: integral with unit reduced norm."""
    if not order_membership(kind, x):
        return False
    nu = x.norm_int() if kind is OrderKind.D else x.det_int()
    s = x.ctx.p ** (2 * x.den)
    return nu % s == 0 and x.ctx.is_unit(nu // s)


def congruence_subgroup_membership(kind: OrderKind, x, n: int) -> bool:
    """Whether x lies in U^n = (1 + radical^n) cap (order units)."""
    if not is_order_unit(kind, x):
        return False
    if n <= 0:
        return True
    return radical_power_membership(kind, x.minus_identity(), n)


def contains_minus_one(kind: OrderKind, n: int, p: int) -> bool:
    """Whether -1 lies in U^n of the kind's order at p, n >= 0.

    -1 is an order unit, and -1 - 1 = -2 has only diagonal entries (u0 for D),
    each of valuation v_p(2): 1 at p = 2, 0 at odd p.  Their staircase bound
    is the first, ceil(slope n / 2), so -2 lies in rad^n exactly when that
    bound is at most v_p(2).
    """
    return _radical_bounds(kind, n)[0] <= integer_valuation(2, p)


def order_unit_index(kind: OrderKind, n: int, q: int) -> int:
    """[O^x : U^n] for n >= 1 (and 1 for n = 0).

    M: (q^2-q)(q^2-1) q^(4(n-1)); J: (q-1)^2 q^(2(n-1));
    D: (q^2-1) q^(2(n-1)), i.e. q^(2n)(1 - q^-2) written integrally.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    if n == 0:
        return 1
    if kind is OrderKind.M:
        return (q * q - q) * (q * q - 1) * q ** (4 * (n - 1))
    if kind is OrderKind.J:
        return (q - 1) ** 2 * q ** (2 * (n - 1))
    return (q * q - 1) * q ** (2 * (n - 1))


def norm_image_level(kind: OrderKind, n: int) -> int:
    """Filtration level m with det/nu image of U^n equal to U_o^m."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if kind is OrderKind.M:
        return n
    return (n + 1) // 2


def _entry_valuations(x) -> list[int]:
    """ctx.depth of each entry: v(e) mod p^M, with M standing for a zero entry.

    Every membership threshold is at most M - GUARD, so M decides each test
    as an infinite valuation would.  The lookup is inlined for the four
    entries: a depth call per entry costs about 0.7 us more per matrix.
    """
    ctx = x.ctx
    m, exponent = ctx.modulus, ctx.power_exponents
    a, b, c, d = x.entries
    return [exponent[gcd(a, m)], exponent[gcd(b, m)], exponent[gcd(c, m)], exponent[gcd(d, m)]]


def _valuations_meet(vals, bounds, den: int, ctx: PAdicContext) -> bool:
    """Whether the entry valuations meet the bounds: v >= t + den entry by entry.

    Like ctx.val_at_least, a threshold above M - GUARD raises
    PrecisionExhausted, at the first such entry unless an earlier one failed.
    """
    for v, t in zip(vals, bounds):
        t += den
        if t > 0:
            if t > ctx.M - GUARD:
                raise PrecisionExhausted(f"threshold {t} above {ctx.M} - {GUARD}")
            if v < t:
                return False
    return True


def exact_radical_level(kind: OrderKind, x) -> int:
    """Largest n with x in radical^n (x nonzero; capped by precision).

    The same read-off for M, J and D, through the staircase table: x is in
    rad^n exactly when slope n <= 2 (v_i - den) - shift_i for every entry,
    so n = min(2 (v_i - den) - shift_i) // slope.  The tests of a
    level-by-level scan at level 0 and at level n + 1 are replayed on the
    valuations, so ValueError and PrecisionExhausted come on the same inputs
    as from the scan: below the bound 2 (M - GUARD - den), no level in
    between raises unless level n + 1 does (M's four thresholds are equal,
    and J's and D's stay within the cap).
    """
    ctx, den = x.ctx, x.den
    bound = 2 * (ctx.M - GUARD - den)
    vals = _entry_valuations(x)
    if not _valuations_meet(vals, _radical_bounds(kind, 0), den, ctx):
        raise ValueError("element is not integral")
    slope, shifts = _STAIRCASE[kind]
    n = min([2 * (v - den) - s for v, s in zip(vals, shifts)]) // slope
    if n < bound and _valuations_meet(vals, _radical_bounds(kind, n + 1), den, ctx):
        raise AssertionError("the valuation read-off disagrees with the staircase")
    if n >= bound:
        raise PrecisionExhausted("radical level hit the precision cap")
    return n


def in_normalizer(kind: OrderKind, x) -> bool:
    """Whether x lies in K_O = normalizer of the order (matrix kinds).

    K_M = p^Z M^x and K_J = Pi^Z J^x; membership is v(det) equal to the exact
    radical level (staircase level for J, 2*min-entry-valuation for M).
    """
    ctx = x.ctx
    try:
        lvl = exact_radical_level(kind, x)
    except ValueError:
        return False
    d = x.det_int()
    s = ctx.p ** (2 * x.den)
    if d % s:
        return False
    y = d // s
    if y == 0:
        raise PrecisionExhausted("determinant vanished at precision")
    vdet = ctx.val(y)
    if kind is OrderKind.M:
        # p^j M^x has min entry valuation j and determinant valuation 2j
        return vdet == 2 * lvl
    return vdet == lvl


# ---------------------------------------------------------------------------
# division algebra in the cyclic model


class _DivFields(NamedTuple):
    ctx: PAdicContext
    u0: int
    u1: int
    w0: int
    w1: int
    den: int = 0


class DivElt(_DivFields):
    """u + w pi_D stored as four integer entries mod p^M over p^den, like MatElt.

    u = u0 + u1 s and w = w0 + w1 s lie in the unramified quadratic ring
    o[s], s^2 = s + c with c = unramified_generator_constant(p), and
    pi_D u = sigma(u) pi_D, pi_D^2 = p, where sigma(a + b s) = (a + b) - b s:
    the cyclic model of the division quaternion algebra over Q_p, fixed by p.
    den counts powers of p, so 2 in v_D.
    """

    __slots__ = ()

    def __new__(cls, ctx: PAdicContext, u0: int, u1: int, w0: int, w1: int,
                den: int = 0) -> "DivElt":
        if den < 0:
            raise ValueError("denominator exponent must be >= 0")
        return tuple.__new__(cls, (ctx, u0, u1, w0, w1, den))

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return self[1:5]

    def __mul__(self, other: "DivElt") -> "DivElt":
        """(u + w pi_D)(u' + w' pi_D) = (u u' + p w sigma(w')) + (u w' + w sigma(u')) pi_D."""
        ctx, a0, a1, b0, b1, k = self
        _, e0, e1, f0, f1, l = other
        m, p = ctx.modulus, ctx.p
        c = unramified_generator_constant(p)
        return tuple.__new__(DivElt, (
            ctx,
            (a0 * e0 + c * a1 * e1 + p * (b0 * (f0 + f1) - c * b1 * f1)) % m,
            (a0 * e1 + a1 * (e0 + e1) + p * (b1 * f0 - b0 * f1)) % m,
            (a0 * f0 + c * a1 * f1 + b0 * (e0 + e1) - c * b1 * e1) % m,
            (a0 * f1 + a1 * (f0 + f1) + b1 * e0 - b0 * e1) % m,
            k + l))

    def minus_identity(self) -> "DivElt":
        """x - 1 at the same denominator."""
        ctx, u0, u1, w0, w1, den = self
        return DivElt(ctx, (u0 - ctx.p ** den) % ctx.modulus, u1, w0, w1, den)

    def norm_int(self) -> int:
        """Reduced norm of the integer part: N(u) - p N(w), N(a + b s) = a^2 + a b - c b^2."""
        ctx, u0, u1, w0, w1, _ = self
        c = unramified_generator_constant(ctx.p)
        return (u0 * u0 + u0 * u1 - c * u1 * u1
                - ctx.p * (w0 * w0 + w0 * w1 - c * w1 * w1)) % ctx.modulus

    def trace_int(self) -> int:
        return (2 * self.u0 + self.u1) % self.ctx.modulus


# ---------------------------------------------------------------------------
# embeddings of a torus at a prescribed optimal level


@dataclass(frozen=True)
class MatrixEmbedding:
    """An embedding of a field torus into M2 meeting the order in L_level.

    The image of alpha + beta theta0 is
        [[alpha p^d, -beta p^(2d) N], [beta, (alpha + beta T) p^d]] / p^d
    with d = level for M2(o) and d = level - 1 for the Iwahori order; the
    Iwahori level-0 embedding (ramified tori only) is
        [[alpha, beta], [-beta N, alpha + beta T]].
    """

    torus: TorusData
    kind: OrderKind
    level: int

    def __post_init__(self):
        if self.torus.kind == SPLIT:
            raise ValueError("field tori only; split embeddings are diagonal")
        if self.kind is OrderKind.D:
            raise ValueError("use DivisionEmbedding for the division order")
        if self.level < 0 or (self.kind is OrderKind.J and self.level == 0
                              and self.torus.kind == UNRAMIFIED):
            raise ValueError("no level-0 Iwahori embedding for unramified tori")

    @property
    def den(self) -> int:
        if self.kind is OrderKind.M:
            return self.level
        return max(self.level - 1, 0)

    def of_coords(self, alpha: int, beta: int) -> MatElt:
        ctx = self.torus.ctx
        T, N = self.torus.T, self.torus.N
        if self.kind is OrderKind.J and self.level == 0:
            return MatElt.from_rows(ctx, ((alpha, beta),
                                          (-beta * N, alpha + beta * T)))
        d = self.den
        pd = ctx.p ** d
        return MatElt.from_rows(ctx, ((alpha * pd, -beta * pd * pd * N),
                                      (beta, (alpha + beta * T) * pd)), den=d)

    def of(self, x: RegularElement) -> MatElt:
        return self.of_coords(x.alpha, x.beta)


def split_conjugate(torus: TorusData, x: RegularElement, r: int) -> MatElt:
    """n(p^-r)^-1 diag(a, b) n(p^-r) = [[a, p^-r (a-b)], [0, b]]."""
    if torus.kind != SPLIT:
        raise ValueError("split tori only")
    ctx = torus.ctx
    pr = ctx.p ** r
    a, b = x.a, x.b
    return MatElt.from_rows(ctx, ((a * pr, a - b), (0, b * pr)), den=r)


def scaled_order_level(kind: OrderKind, x: MatElt, bound: int) -> int | None:
    """min j in [0, bound) with p^j x in the order (M or J), None past the bound.

    p^j x is in the order when v + j >= b + den entry by entry, b the level-0
    bounds, so j = max(0, max(b + den - v)) is read off the entry valuations.
    Replaying the scan's last test, at min(j, bound - 1), raises
    PrecisionExhausted where the scan over j raised.
    """
    vals = _entry_valuations(x)
    b = _radical_bounds(kind, 0)
    j = max(0, x.den + max(t - v for t, v in zip(b, vals)))
    k = min(j, bound - 1)
    if k >= 0 and _valuations_meet([v + k for v in vals], b, x.den, x.ctx):
        return k
    return None


@dataclass(frozen=True)
class DivisionEmbedding:
    """An embedding of a field torus into the cyclic division model.

    xi is the image of theta0, constructed by solving the trace and norm
    equations in the model (Hensel lifting from a residue solution).
    """

    torus: TorusData
    xi: DivElt

    def of_coords(self, alpha: int, beta: int) -> DivElt:
        ctx, x0, x1, y0, y1, _ = self.xi
        m = ctx.modulus
        return DivElt(ctx, (alpha + beta * x0) % m, beta * x1 % m, beta * y0 % m, beta * y1 % m)

    def of(self, x: RegularElement) -> DivElt:
        return self.of_coords(x.alpha, x.beta)


def _solve_unit_norm(ctx: PAdicContext, target: int) -> tuple[int, int]:
    """(a, b) with N(a + b s) = target (a unit), derivative 2a+b a unit."""
    p, c = ctx.p, unramified_generator_constant(ctx.p)
    start = next(((a, b) for a in range(p) for b in range(p)
                  if (a * a + a * b - c * b * b - target) % p == 0 and (2 * a + b) % p), None)
    if start is None:
        raise RuntimeError("norm equation has no nondegenerate residue solution")
    a0, b = start
    a = hensel_lift(lambda y: y * y + y * b - c * b * b - target, lambda y: 2 * y + b, a0, ctx)
    return a, b % ctx.modulus


def division_embedding(torus: TorusData) -> DivisionEmbedding:
    """Embed a field torus into the division model at the torus's precision.

    theta0, a root of X^2 - T X + N, maps to xi = T s + w pi_D: the trace is
    T since Tr(s) = 1 and Tr(w pi_D) = 0, and the norm N(T s) - p N(w) is N
    once N(w) = (N(T s) - N)/p.  The unramified torus shares the model's
    basis, so the defect is 0 and xi = s; for a ramified torus the defect is
    a unit by the Eisenstein shape, and w solves the unit norm equation.
    """
    ctx = torus.ctx
    if torus.kind == SPLIT:
        raise ValueError("split tori do not embed in the division algebra")
    T, N = torus.T % ctx.modulus, torus.N % ctx.modulus
    diff = (DivElt(ctx, 0, T, 0, 0).norm_int() - N) % ctx.modulus
    if diff % ctx.p != 0:
        raise AssertionError("norm defect not divisible by p")
    target = diff // ctx.p
    if target and not ctx.is_unit(target):
        raise AssertionError("norm defect is not a unit times p")
    xi = DivElt(ctx, 0, T, *(_solve_unit_norm(ctx, target) if target else (0, 0)))
    slack = ctx.p ** (ctx.M - GUARD)
    if xi.trace_int() % slack != T % slack or xi.norm_int() % slack != N % slack:
        raise AssertionError("division embedding failed the char-poly check")
    return DivisionEmbedding(torus, xi)
