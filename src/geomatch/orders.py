"""The three local chain orders and their unit filtrations.

M2(o), the Iwahori order J (lower-left entry divisible by p), and the maximal
order of the division quaternion algebra in its cyclic model over the
unramified quadratic extension.  Matrix and quaternion elements carry a
denominator exponent so conjugators like n(p^-r) stay in exact residue
arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .padic import (
    GUARD,
    PAdicContext,
    PrecisionExhausted,
    RegularElement,
    TorusData,
    RAMIFIED,
    SPLIT,
    UNRAMIFIED,
    unramified_generator_constant,
)


class OrderKind(enum.Enum):
    M = "M"
    J = "J"
    D = "D"


@dataclass(frozen=True)
class MatElt:
    """A 2x2 matrix over Q_p stored as (integer matrix mod p^M) / p^den."""

    ctx: PAdicContext
    e11: int
    e12: int
    e21: int
    e22: int
    den: int = 0

    def __post_init__(self):
        if self.den < 0:
            raise ValueError("denominator exponent must be >= 0")

    @classmethod
    def identity(cls, ctx: PAdicContext) -> "MatElt":
        return cls(ctx, 1, 0, 0, 1)

    @classmethod
    def from_rows(cls, ctx: PAdicContext, rows, den: int = 0) -> "MatElt":
        (a, b), (c, d) = rows
        m = ctx.modulus
        return cls(ctx, a % m, b % m, c % m, d % m, den)

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.e11, self.e12, self.e21, self.e22)

    def __mul__(self, other: "MatElt") -> "MatElt":
        m = self.ctx.modulus
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return MatElt(
            self.ctx,
            (a * e + b * g) % m,
            (a * f + b * h) % m,
            (c * e + d * g) % m,
            (c * f + d * h) % m,
            self.den + other.den,
        )

    def __add__(self, other: "MatElt") -> "MatElt":
        if self.den != other.den:
            raise ValueError("align denominators before adding")
        m = self.ctx.modulus
        return MatElt(self.ctx, *((x + y) % m for x, y in zip(self.entries, other.entries)),
                      self.den)

    def minus_identity(self) -> "MatElt":
        """x - 1 at the same denominator."""
        m = self.ctx.modulus
        s = self.ctx.p ** self.den
        a, b, c, d = self.entries
        return MatElt(self.ctx, (a - s) % m, b, c, (d - s) % m, self.den)

    def det_int(self) -> int:
        return (self.e11 * self.e22 - self.e12 * self.e21) % self.ctx.modulus

    def scale_p(self, k: int) -> "MatElt":
        """Multiply by p^k (k >= 0) without touching the denominator."""
        m = self.ctx.modulus
        s = self.ctx.p ** k
        return MatElt(self.ctx, *(x * s % m for x in self.entries), self.den)

    def inv(self) -> "MatElt":
        """Inverse via the adjugate: (A/p^d)^-1 = adj(A) unit^-1 / p^(v(det A) - d)."""
        ctx = self.ctx
        d = self.det_int()
        if d == 0:
            raise PrecisionExhausted("determinant vanished at precision")
        vdet = ctx.val(d)
        ui = ctx.inv(d // ctx.p ** vdet)
        m = ctx.modulus
        adj = (self.e22 * ui % m, -self.e12 * ui % m,
               -self.e21 * ui % m, self.e11 * ui % m)
        shift = vdet - self.den
        if shift >= 0:
            return MatElt(ctx, *adj, shift)
        s = ctx.p ** (-shift)
        return MatElt(ctx, *(e * s % m for e in adj), 0)

    def conj_by(self, g: "MatElt") -> "MatElt":
        """g^-1 * self * g."""
        return g.inv() * self * g


def pi_matrix(ctx: PAdicContext) -> MatElt:
    """The Iwahori normalizer generator (0 1; p 0)."""
    return MatElt(ctx, 0, 1, ctx.p % ctx.modulus, 0)


def pi_matrix_inv(ctx: PAdicContext) -> MatElt:
    """(0 1; p 0)^-1 = (0 1; p 0) / p."""
    return MatElt(ctx, 0, 1, ctx.p % ctx.modulus, 0, den=1)


# staircase lower bounds for the radical powers, as functions of n
def _radical_bounds(kind: OrderKind, n: int) -> tuple[int, int, int, int]:
    if kind is OrderKind.M:
        return (n, n, n, n)
    if kind is OrderKind.J:
        k, odd = divmod(n, 2)
        if odd:
            return (k + 1, k, k + 1, k + 1)
        return (k, k, k + 1, k)
    raise ValueError("matrix staircase asked for the division order")


def radical_power_membership(kind: OrderKind, x, n: int) -> bool:
    """Whether x lies in the n-th power of the Jacobson radical."""
    if n <= 0:
        return order_membership(kind, x)
    if kind is OrderKind.D:
        return x.vd_at_least(n)
    b = _radical_bounds(kind, n)
    return all(x.ctx.val_at_least(e, t + x.den) for e, t in zip(x.entries, b))


def order_membership(kind: OrderKind, x) -> bool:
    """Whether x lies in the order itself (radical power 0)."""
    if kind is OrderKind.D:
        return x.vd_at_least(0)
    b = (0, 0, 1, 0) if kind is OrderKind.J else (0, 0, 0, 0)
    return all(x.ctx.val_at_least(e, t + x.den) for e, t in zip(x.entries, b))


def is_order_unit(kind: OrderKind, x) -> bool:
    """Whether x is a unit of the order: integral with unit reduced norm."""
    ctx = x.ctx
    if kind is OrderKind.D:
        if not x.vd_at_least(0):
            return False
        s = ctx.p ** (2 * x.den)
        nu = x.norm_int()
        return nu % s == 0 and ctx.is_unit(nu // s)
    if not order_membership(kind, x):
        return False
    s = ctx.p ** (2 * x.den)
    d = x.det_int()
    return d % s == 0 and ctx.is_unit(d // s)


def congruence_subgroup_membership(kind: OrderKind, x, n: int) -> bool:
    """Whether x lies in U^n = (1 + radical^n) cap (order units)."""
    if not is_order_unit(kind, x):
        return False
    if n <= 0:
        return True
    return radical_power_membership(kind, x.minus_identity(), n)


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


def exact_radical_level(kind: OrderKind, x) -> int:
    """Largest n with x in radical^n (x nonzero; capped by precision)."""
    bound = 2 * (x.ctx.M - GUARD - x.den)
    if not order_membership(kind, x):
        raise ValueError("element is not integral")
    n = 0
    while n < bound and radical_power_membership(kind, x, n + 1):
        n += 1
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


@dataclass(frozen=True)
class DivisionModel:
    """Cyclic model of the division quaternion algebra over Q_p.

    Elements are u + w * pi_D with u, w in the unramified quadratic ring
    o[s], s^2 = s + c, and pi_D * u = sigma(u) * pi_D, pi_D^2 = p.
    """

    ctx: PAdicContext

    @property
    def c(self) -> int:
        return unramified_generator_constant(self.ctx.p)

    def elt(self, u: tuple[int, int], w: tuple[int, int], den: int = 0) -> "DivElt":
        m = self.ctx.modulus
        return DivElt(self, (u[0] % m, u[1] % m), (w[0] % m, w[1] % m), den)

    def one(self) -> "DivElt":
        return self.elt((1, 0), (0, 0))

    def pi_d(self) -> "DivElt":
        return self.elt((0, 0), (1, 0))

    # arithmetic of the unramified quadratic ring
    def _mul2(self, x, y):
        a, b = x
        e, f = y
        m = self.ctx.modulus
        return ((a * e + self.c * b * f) % m, (a * f + b * e + b * f) % m)

    def _sigma(self, x):
        a, b = x
        m = self.ctx.modulus
        return ((a + b) % m, -b % m)

    def _norm2(self, x) -> int:
        a, b = x
        return (a * a + a * b - self.c * b * b) % self.ctx.modulus

    def _add2(self, x, y):
        m = self.ctx.modulus
        return ((x[0] + y[0]) % m, (x[1] + y[1]) % m)


@dataclass(frozen=True)
class DivElt:
    """u + w pi_D at denominator p^den (den counts powers of p, so 2 in v_D)."""

    model: DivisionModel
    u: tuple[int, int]
    w: tuple[int, int]
    den: int = 0

    @property
    def ctx(self) -> PAdicContext:
        return self.model.ctx

    def __mul__(self, other: "DivElt") -> "DivElt":
        md = self.model
        p = self.ctx.p
        u1, w1, u2, w2 = self.u, self.w, other.u, other.w
        u = md._add2(md._mul2(u1, u2),
                     tuple(x * p % self.ctx.modulus for x in md._mul2(w1, md._sigma(w2))))
        w = md._add2(md._mul2(u1, w2), md._mul2(w1, md._sigma(u2)))
        return DivElt(md, u, w, self.den + other.den)

    def minus_identity(self) -> "DivElt":
        s = self.ctx.p ** self.den
        m = self.ctx.modulus
        return DivElt(self.model, ((self.u[0] - s) % m, self.u[1]), self.w, self.den)

    def norm_int(self) -> int:
        """Reduced norm of the integer part: N(u) - p N(w)."""
        md = self.model
        return (md._norm2(self.u) - self.ctx.p * md._norm2(self.w)) % self.ctx.modulus

    def trace_int(self) -> int:
        return (2 * self.u[0] + self.u[1]) % self.ctx.modulus

    def vd_at_least(self, n: int) -> bool:
        """Whether v_D(x) >= n, i.e. v(u) >= ceil(m/2), v(w) >= floor(m/2), m = n + 2 den."""
        m = n + 2 * self.den
        if m <= 0:
            return True
        ctx = self.ctx
        cu, cw = (m + 1) // 2, m // 2
        return (ctx.val_at_least(self.u[0], cu) and ctx.val_at_least(self.u[1], cu)
                and ctx.val_at_least(self.w[0], cw) and ctx.val_at_least(self.w[1], cw))


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


def embedding_order_level(kind: OrderKind, theta_image: MatElt) -> int:
    """min j >= 0 with p^j * theta_image in the order: the optimal level (< 12)."""
    for j in range(12):
        if order_membership(kind, theta_image.scale_p(j)):
            return j
    raise PrecisionExhausted("intersection level beyond the search bound 12")


@dataclass(frozen=True)
class DivisionEmbedding:
    """An embedding of a field torus into the cyclic division model.

    xi is the image of theta0, constructed by solving the trace and norm
    equations in the model (Hensel lifting from a residue solution).
    """

    torus: TorusData
    model: DivisionModel
    xi: DivElt

    def of_coords(self, alpha: int, beta: int) -> DivElt:
        md = self.model
        m = md.ctx.modulus
        u = ((alpha + beta * self.xi.u[0]) % m, beta * self.xi.u[1] % m)
        w = (beta * self.xi.w[0] % m, beta * self.xi.w[1] % m)
        return DivElt(md, u, w, 0)

    def of(self, x: RegularElement) -> DivElt:
        return self.of_coords(x.alpha, x.beta)


def _solve_unit_norm(model: DivisionModel, target: int) -> tuple[int, int]:
    """(a, b) with N(a + b s) = target (a unit), derivative 2a+b a unit."""
    ctx = model.ctx
    p, mod, c = ctx.p, ctx.modulus, model.c
    start = None
    for a0 in range(p):
        for b0 in range(p):
            if (a0 * a0 + a0 * b0 - c * b0 * b0 - target) % p == 0 and (2 * a0 + b0) % p:
                start = (a0, b0)
                break
        if start:
            break
    if start is None:
        raise RuntimeError("norm equation has no nondegenerate residue solution")
    a, b = start
    k = 1
    while k < ctx.M:
        k = min(2 * k, ctx.M)
        m = p ** k
        f = (a * a + a * b - c * b * b - target) % m
        a = (a - f * pow(2 * a + b, -1, m)) % m
    return a % mod, b % mod


def division_embedding(torus: TorusData, model: DivisionModel) -> DivisionEmbedding:
    """Embed a field torus into the division model.

    Unramified tori share the model's basis, so theta0 maps to s.  Ramified
    tori map theta0 = uniformizer to T s + w pi_D where N(w) solves the norm
    equation (N(Ts) - N)/p, a unit by the Eisenstein shape.
    """
    ctx = torus.ctx
    if ctx.p != model.ctx.p or ctx.M != model.ctx.M:
        raise ValueError("torus and model contexts must agree")
    T, N = torus.T % ctx.modulus, torus.N % ctx.modulus
    if torus.kind == UNRAMIFIED:
        if T != 1 % ctx.modulus or N != -model.c % ctx.modulus:
            raise ValueError("unramified torus basis differs from the model basis")
        xi = model.elt((0, 1), (0, 0))
    elif torus.kind == RAMIFIED:
        u = (0, T)  # T * s, trace T since Tr(s) = 1
        nu_u = model._norm2(u)
        diff = (nu_u - N) % ctx.modulus
        if diff % ctx.p != 0:
            raise AssertionError("norm defect not divisible by p")
        target = diff // ctx.p % ctx.modulus
        if not ctx.is_unit(target):
            raise AssertionError("norm defect is not a unit times p")
        w = _solve_unit_norm(model, target)
        xi = model.elt(u, w)
    else:
        raise ValueError("split tori do not embed in the division algebra")
    slack = ctx.p ** (ctx.M - GUARD)
    if xi.trace_int() % slack != T % slack or xi.norm_int() % slack != N % slack:
        raise AssertionError("division embedding failed the char-poly check")
    return DivisionEmbedding(torus, model, xi)
