"""Exact arithmetic in Z/p^M, quadratic etale algebras over Q_p, and quadratic orders.

Elements are plain integers stored modulo p^M.  A context carries the prime
and the working precision M; the top GUARD digits are a guard band: any
valuation that would depend on digits above M - GUARD raises
PrecisionExhausted.  Nothing here is symbolic; everything reduces to residue
arithmetic plus Hensel lifting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

GUARD = 2
ENUM_CAP = 2 ** 20  # the most items any exhaustive enumeration may produce

SPLIT = "split"
UNRAMIFIED = "unramified-field"
RAMIFIED = "ramified-field"


class PrecisionExhausted(ArithmeticError):
    """Raised when an answer depends on p-adic digits above M - GUARD."""


class EnumerationTooLarge(RuntimeError):
    """Raised when an exhaustive enumeration would exceed ENUM_CAP."""


class NonHyperbolicTrace(ValueError):
    """Raised for traces t with |t| <= 2."""


def is_prime(n: int) -> bool:
    """Trial division; every prime in use here is small."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """((p, e), ...) with p increasing and n = prod p^e, by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:  # p is prime: every smaller prime is divided out
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def integer_valuation(n: int, p: int) -> int:
    """Exact p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class PAdicContext:
    """Residue ring Z/p^M; valuations are exact only below M - GUARD."""

    p: int
    M: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.M < 1:
            raise ValueError("precision M must be >= 1")

    @cached_property
    def modulus(self) -> int:
        return self.p ** self.M

    @cached_property
    def power_exponents(self) -> dict[int, int]:
        """{p^k: k} for 0 <= k <= M, the table depth reads."""
        return {self.p ** k: k for k in range(self.M + 1)}

    def reduce(self, x: int) -> int:
        return x % self.modulus

    def depth(self, x: int) -> int:
        """v(x mod p^M), with M for a zero residue.

        One lookup, with no reduction: gcd(x, p^M) = p^min(v(x), M) for every
        integer x, negatives included.
        """
        return self.power_exponents[math.gcd(x, self.modulus)]

    def val(self, x: int) -> int:
        """Valuation of x, exact only below M - GUARD."""
        v = self.depth(x)
        if v == self.M:
            raise PrecisionExhausted(f"v(x) >= {self.M} at precision {self.M}")
        if v > self.M - GUARD:
            raise PrecisionExhausted(f"v(x) = {v} > {self.M} - {GUARD}")
        return v

    def val_at_least(self, x: int, n: int) -> bool:
        """Decide v(x) >= n; exact for thresholds n <= M - GUARD even when x = 0."""
        if n <= 0:
            return True
        if n > self.M - GUARD:
            raise PrecisionExhausted(f"threshold {n} above {self.M} - {GUARD}")
        return self.depth(x) >= n

    def is_unit(self, x: int) -> bool:
        return x % self.p != 0

    def inv(self, x: int) -> int:
        if not self.is_unit(x):
            raise ZeroDivisionError("inverse of a non-unit")
        return pow(x, -1, self.modulus)

    def half(self, x: int) -> int:
        """x/2 in Z/p^M; for p = 2 requires x even (costs one guarded digit)."""
        if self.p != 2:
            return x * self.inv(2) % self.modulus
        if x % 2:
            raise ValueError("x/2 needs x even when p = 2")
        return (x % self.modulus) // 2


# ---------------------------------------------------------------------------
# squares and square roots


def is_square(d: int, ctx: PAdicContext) -> bool:
    """Whether a nonzero d is a square in Q_p.

    Strips the valuation (must be exact at this precision), then tests the
    unit part: for p = 2 an odd u is a square exactly when u = 1 mod 8, which
    needs three digits of u; for odd p the Euler criterion on the residue.
    """
    v = ctx.val(d)
    if v % 2:
        return False
    if ctx.p == 2 and ctx.M - v < 3:
        raise PrecisionExhausted(f"2-adic square test needs M - v >= 3, not {ctx.M - v}")
    return _is_unit_square(ctx.reduce(d) // ctx.p ** v, ctx.p)


def _is_unit_square(u: int, p: int) -> bool:
    """Whether the unit u is a square in Z_p: u = 1 mod 8 for p = 2, Euler's criterion else."""
    if p == 2:
        return u % 8 == 1
    return pow(u, (p - 1) // 2, p) == 1


def hensel_lift(f, df, r: int, ctx: PAdicContext) -> int:
    """Newton-lift a root r of f mod p with df(r) a unit to Z/p^M, doubling the digits per step."""
    k = 1
    while k < ctx.M:
        k = min(2 * k, ctx.M)
        m = ctx.p ** k
        r = (r - f(r) * pow(df(r), -1, m)) % m
    return r % ctx.modulus


def sqrt_unit(u: int, ctx: PAdicContext) -> int:
    """Square root of a unit square in Z/p^M: by Newton for odd p, bit by bit for p = 2."""
    p, mod = ctx.p, ctx.modulus
    u %= mod
    if p != 2:
        if not _is_unit_square(u, p):
            raise ValueError(f"{u} is not a unit square mod {p}")
        r = next(y for y in range(p) if y * y % p == u % p)
        return hensel_lift(lambda y: y * y - u, lambda y: 2 * y, r, ctx)
    if u % 8 != 1:
        raise ValueError("2-adic unit square must be 1 mod 8")
    r = 1
    for k in range(3, ctx.M):
        if (r * r - u) % 2 ** (k + 1):
            r += 2 ** (k - 1)
    return r % mod


def sqrt(d: int, ctx: PAdicContext) -> int:
    """Square root of a square element (valuation stripped and restored)."""
    v = ctx.val(d)
    if v % 2:
        raise ValueError("odd valuation: not a square")
    u = ctx.reduce(d) // ctx.p ** v
    return sqrt_unit(u, ctx) * ctx.p ** (v // 2) % ctx.modulus


def unramified_generator_constant(p: int) -> int:
    """Smallest c >= 1 with X^2 - X - c irreducible mod p.

    The root s of X^2 - X - c generates the quadratic unramified extension,
    with trace 1 and norm -c; the same basis serves the torus and the cyclic
    division-algebra model.
    """
    if p == 2:
        return 1
    for c in range(1, p * p):
        if pow((1 + 4 * c) % p, (p - 1) // 2, p) == p - 1:
            return c
    raise RuntimeError("unreachable: nonresidues exist mod every odd prime")


# ---------------------------------------------------------------------------
# tori (quadratic etale algebras in a fixed integral basis)


@dataclass(frozen=True)
class TorusData:
    """A quadratic etale algebra E over Q_p in coordinates.

    Field cases store the minimal polynomial X^2 - T X + N of the chosen
    basis generator theta0 with O_E = o + o*theta0 (unramified: a lift of a
    residue-field generator; ramified: a uniformizer with Eisenstein minimal
    polynomial).  The split case needs no basis.
    """

    ctx: PAdicContext
    kind: str
    T: int = 0
    N: int = 0

    def __post_init__(self):
        if self.kind not in (SPLIT, UNRAMIFIED, RAMIFIED):
            raise ValueError(f"unknown torus kind {self.kind!r}")

    @property
    def e(self) -> int:
        return 2 if self.kind == RAMIFIED else 1

    def element(self, *coords: int) -> "RegularElement":
        return RegularElement(self, tuple(self.ctx.reduce(c) for c in coords))


@dataclass(frozen=True)
class RegularElement:
    """A regular element of E^x: split (a, b) with a != b, field alpha + beta*theta0."""

    torus: TorusData
    coords: tuple[int, int]

    def __post_init__(self):
        a, b = self.coords
        ctx = self.torus.ctx
        if self.torus.kind == SPLIT:
            if not (ctx.is_unit(a) and ctx.is_unit(b)):
                raise ValueError("split regular elements need unit coordinates")
            ctx.val(a - b)  # regularity: a != b within the guard band
        else:
            ctx.val(b)  # beta != 0 within the guard band

    @property
    def ctx(self) -> PAdicContext:
        return self.torus.ctx

    @property
    def q(self) -> int:
        return self.torus.ctx.p  # the residue field size: every base field is Q_p

    @property
    def e(self) -> int:
        return self.torus.e

    @property
    def kind(self) -> str:
        return self.torus.kind

    # split accessors
    @property
    def a(self) -> int:
        return self.coords[0]

    @property
    def b(self) -> int:
        return self.coords[1]

    # field accessors
    @property
    def alpha(self) -> int:
        return self.coords[0]

    @property
    def beta(self) -> int:
        return self.coords[1]

    def val_gap(self) -> int:
        """v(a - b) for split elements."""
        return self.ctx.val(self.a - self.b)

    def conductor(self) -> int:
        """v(beta): the largest r with x in L_r = o + p^r O_E."""
        return self.ctx.val(self.beta)

    def norm(self) -> int:
        """Reduced norm over Q_p."""
        if self.torus.kind == SPLIT:
            return self.ctx.reduce(self.a * self.b)
        al, be = self.alpha, self.beta
        return self.ctx.reduce(al * al + al * be * self.torus.T + be * be * self.torus.N)

    def trace(self) -> int:
        if self.torus.kind == SPLIT:
            return self.ctx.reduce(self.a + self.b)
        return self.ctx.reduce(2 * self.alpha + self.beta * self.torus.T)

    def is_unit(self) -> bool:
        """Whether x lies in O_E^x: N(x) is a unit (= alpha^2 mod p on Eisenstein bases)."""
        return self.ctx.is_unit(self.norm())

    def in_unit_filtration(self, n: int) -> bool:
        """Whether x lies in U_E^n = (1 + P_E^n) cap O_E^x.

        Split: v(a - 1), v(b - 1) >= n.  Field: theta0 is a unit (e = 1) or a
        uniformizer (e = 2), so v_E(x - 1) = min(e v(alpha - 1), e v(beta) + e - 1).
        """
        if n <= 0:
            return self.is_unit()
        one = 1 if self.torus.kind == SPLIT else 0  # second coordinate of the identity
        ctx, e, (c0, c1) = self.ctx, self.e, self.coords
        return ctx.val_at_least(c0 - 1, -(-n // e)) and ctx.val_at_least(c1 - one, n // e)


def split_torus(p: int, M: int) -> TorusData:
    return TorusData(PAdicContext(p, M), SPLIT)


def unramified_torus(p: int, M: int) -> TorusData:
    return _unramified_torus(PAdicContext(p, M))


def _unramified_torus(ctx: PAdicContext) -> TorusData:
    c = unramified_generator_constant(ctx.p)
    return TorusData(ctx, UNRAMIFIED, T=1, N=-c % ctx.modulus)


def ramified_torus(p: int, M: int) -> TorusData:
    """The ramified quadratic Q_p(sqrt(p)), theta0 = sqrt(p)."""
    return _ramified_torus(PAdicContext(p, M), 1)


def _ramified_torus(ctx: PAdicContext, unit: int) -> TorusData:
    return TorusData(ctx, RAMIFIED, T=0, N=-ctx.p * unit % ctx.modulus)


def ramified_torus_2nonsplit(M: int) -> TorusData:
    """The ramified Q_2(sqrt(3)), theta0 = 1 + sqrt(3)."""
    return _ramified_torus_2nonsplit(PAdicContext(2, M), 3)


def _ramified_torus_2nonsplit(ctx: PAdicContext, unit: int) -> TorusData:
    return TorusData(ctx, RAMIFIED, T=2, N=(1 - unit) % ctx.modulus)


def default_precision(t: int, p: int) -> int:
    """Working precision comfortably above every valuation t's torus can produce."""
    v = integer_valuation(t * t - 4, p)
    vm = max(integer_valuation(t - 2, p) if t != 2 else 0,
             integer_valuation(t + 2, p) if t != -2 else 0)
    return max(12, v + vm + 8)


def classify_torus(t: int, p: int, M: int | None = None) -> TorusData:
    """The algebra Q_p[X]/(X^2 - t X + 1) for a hyperbolic trace t, with basis.

    Returns a TorusData of the matching kind; use torus_generator to get the
    canonical root of X^2 - t X + 1 in coordinates.
    """
    if abs(t) <= 2:
        raise NonHyperbolicTrace(f"|t| = {abs(t)} <= 2")
    if M is None:
        M = default_precision(t, p)
    ctx = PAdicContext(p, M)
    disc = t * t - 4
    if is_square(disc, ctx):
        return TorusData(ctx, SPLIT)
    # a nonsquare of even valuation is unramified unless p = 2 and u = 3, 7 mod 8
    v = integer_valuation(disc, p)
    u = disc // p ** v
    if v % 2:
        return _ramified_torus(ctx, u % ctx.modulus)
    if p == 2 and u % 8 != 5:
        return _ramified_torus_2nonsplit(ctx, u % ctx.modulus)
    return _unramified_torus(ctx)


class LocalType(NamedTuple):
    """The local type of t at p (see local_type), read as the canonical root x.

    Each method answers what the closed forms ask of x, with v = v(t^2 - 4).
    """

    p: int
    torus: str
    v_minus: int  # v_p(t - 2)
    v_plus: int  # v_p(t + 2)

    @property
    def q(self) -> int:
        return self.p

    @property
    def e(self) -> int:
        return 2 if self.torus == RAMIFIED else 1

    @property
    def kind(self) -> str:
        return self.torus

    def is_unit(self) -> bool:
        return True  # N(x) = 1

    def val_gap(self) -> int:
        """Split: v(a - b) = v/2, as (a - b)^2 = t^2 - 4."""
        return (self.v_minus + self.v_plus) // 2

    def conductor(self) -> int:
        """Field: v(beta) = (v - d)/2, as beta^2 (T^2 - 4N) = t^2 - 4.

        d = v(T^2 - 4N) is 0 unramified, 1 ramified at odd p, and 3 or 2 at
        p = 2 as v is odd or even, which (v - 2)//2 rounds to.
        """
        d = 0 if self.torus == UNRAMIFIED else 1 if self.p != 2 else 2
        return (self.v_minus + self.v_plus - d) // 2

    def in_unit_filtration(self, n: int) -> bool:
        """Whether x is in U_E^n, read off (x - 1)(1/x - 1) = 2 - t.

        Split: min(v(a - 1), v(b - 1)) is v(a - b) = v/2 if they differ, and
        v(t - 2)/2 if they agree.  Field: v_E(x - 1) = e v(t - 2)/2.
        """
        if self.torus == SPLIT:
            return min(self.v_minus // 2, self.val_gap()) >= n
        return self.e * self.v_minus >= 2 * n


@lru_cache(maxsize=None)
def local_type(t: int, p: int) -> LocalType:
    """The local type of the hyperbolic trace t at p, by integer arithmetic only.

    t^2 - 4 = (t - 2)(t + 2) has valuation v = v(t - 2) + v(t + 2) and unit
    part u.  The torus is split when v is even and u a square, ramified when
    v is odd or p = 2 and u = 3 mod 4, and unramified otherwise, as in
    classify_torus.  Every normalized local factor at t (integrals.orbital
    at the canonical root of X^2 - t X + 1) is a function of the type: the
    closed forms read only what LocalType's methods give.
    """
    if abs(t) <= 2:
        raise NonHyperbolicTrace(f"|t| = {abs(t)} <= 2")
    v_minus, v_plus = integer_valuation(t - 2, p), integer_valuation(t + 2, p)
    v = v_minus + v_plus
    u = (t * t - 4) // p ** v
    if v % 2 or (p == 2 and u % 4 == 3):
        torus = RAMIFIED
    elif _is_unit_square(u, p):
        torus = SPLIT
    else:
        torus = UNRAMIFIED
    return LocalType(p, torus, v_minus, v_plus)


def torus_generator(torus: TorusData, t: int) -> RegularElement:
    """Coordinates of the canonical root x of X^2 - t X + 1 in the torus basis.

    Split tori: x = ((t + y)/2, (t - y)/2) with y = sqrt(t^2 - 4).  Field
    tori: x = alpha + beta theta0 with theta0 a root of X^2 - T X + N has
    trace 2 alpha + beta T and discriminant beta^2 (T^2 - 4N), so
    beta^2 = (t^2 - 4) / (T^2 - 4N) and alpha = (t - beta T)/2, whatever the
    basis.  The root found may be the Galois conjugate of another choice;
    orbital integrals do not see the difference.
    """
    ctx = torus.ctx
    p, mod = ctx.p, ctx.modulus
    disc = t * t - 4
    if torus.kind == SPLIT:
        y = sqrt(disc % mod, ctx)
        x = torus.element(ctx.half((t + y) % mod), ctx.half((t - y) % mod))
    else:
        delta = torus.T * torus.T - 4 * torus.N
        v = ctx.val(delta)
        beta = sqrt(disc // p ** v * ctx.inv(ctx.reduce(delta) // p ** v) % mod, ctx)
        x = torus.element(ctx.half((t - beta * torus.T) % mod), beta)
    slack = p ** (ctx.M - GUARD)
    if x.trace() % slack != t % slack or x.norm() % slack != 1 % slack:
        raise AssertionError("generator coordinates failed the char-poly check")
    return x


def quad_order_unit_index(k: int, r: int, e: int, q: int) -> int:
    """|L_k^x / L_{k+r}^x| for the quadratic orders L_r = o + p^r O_E.

    Equals q^r for k > 0 or e = 2, and q^r (1 + 1/q) for k = 0, e = 1.
    """
    if k < 0 or r < 1:
        raise ValueError("need k >= 0 and r >= 1")
    if e not in (1, 2):
        raise ValueError("ramification index must be 1 or 2")
    if k > 0 or e == 2:
        return q ** r
    return q ** r + q ** (r - 1)


def unit_filtration_index(q: int, m: int) -> int:
    """[o^x : U_o^m]; 1 for m = 0, (q-1) q^(m-1) for m >= 1."""
    if m < 0:
        raise ValueError("filtration level must be >= 0")
    return 1 if m == 0 else (q - 1) * q ** (m - 1)
