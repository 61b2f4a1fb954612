"""Exact arithmetic in Z/p^M, quadratic etale algebras over Q_p, and quadratic orders.

Elements are plain integers stored modulo p^M.  A context carries the prime
and the working precision M; the top GUARD digits are a guard band: any
valuation that would depend on digits above M - GUARD raises
PrecisionExhausted, and the caller retries at doubled precision.  Nothing here is symbolic; everything reduces to residue
arithmetic plus Hensel lifting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GUARD = 2

SPLIT = "split"
UNRAMIFIED = "unramified-field"
RAMIFIED = "ramified-field"


class PrecisionExhausted(ArithmeticError):
    """Raised when an answer depends on p-adic digits above M - GUARD."""


class EnumerationTooLarge(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the size cap."""


class NonHyperbolicTrace(ValueError):
    """Raised for traces t with |t| <= 2."""


def is_prime(n: int) -> bool:
    """Trial division; every prime in use here is small."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


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
    """Residue ring Z/p^M; valuations are exact only below M - GUARD.

    q is the residue field size, which equals p since only Q_p base fields
    are supported.
    """

    p: int
    M: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.M < 1:
            raise ValueError("precision M must be >= 1")

    @property
    def q(self) -> int:
        return self.p

    @property
    def modulus(self) -> int:
        return self.p ** self.M

    def reduce(self, x: int) -> int:
        return x % self.modulus

    def val(self, x: int) -> int:
        """Valuation of x, exact only below M - GUARD."""
        x = self.reduce(x)
        if x == 0:
            raise PrecisionExhausted(f"v(x) >= {self.M} at precision {self.M}")
        v = integer_valuation(x, self.p)
        if v > self.M - GUARD:
            raise PrecisionExhausted(f"v(x) = {v} > {self.M} - {GUARD}")
        return v

    def val_at_least(self, x: int, n: int) -> bool:
        """Decide v(x) >= n; exact for thresholds n <= M - GUARD even when x = 0."""
        if n <= 0:
            return True
        if n > self.M - GUARD:
            raise PrecisionExhausted(f"threshold {n} above {self.M} - {GUARD}")
        return self.reduce(x) % self.p ** n == 0

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
    u = ctx.reduce(d) // ctx.p ** v
    if ctx.p == 2:
        if ctx.M - v < 3:
            raise PrecisionExhausted(f"2-adic square test needs M - v >= 3, not {ctx.M - v}")
        return u % 8 == 1
    return pow(u, (ctx.p - 1) // 2, ctx.p) == 1


def sqrt_unit(u: int, ctx: PAdicContext) -> int:
    """Square root of a unit square in Z/p^M by Hensel lifting."""
    p, mod = ctx.p, ctx.modulus
    u %= mod
    if p != 2:
        r = next(y for y in range(p) if y * y % p == u % p)
        k = 1
        while k < ctx.M:
            # Newton step doubles the exponent
            k = min(2 * k, ctx.M)
            m = p ** k
            r = (r - (r * r - u) * pow(2 * r, -1, m)) % m
        return r % mod
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
        """Whether x lies in O_E^x (split: o^x + o^x, automatic here)."""
        if self.torus.kind == SPLIT:
            return True
        if self.torus.kind == RAMIFIED:
            return self.ctx.is_unit(self.alpha)
        return self.ctx.is_unit(self.alpha) or self.ctx.is_unit(self.beta)

    def in_unit_filtration(self, n: int) -> bool:
        """Whether x lies in U_E^n = (1 + P_E^n) cap O_E^x."""
        if self.torus.kind == SPLIT:
            raise ValueError("unit filtration of E is for field tori")
        if n <= 0:
            return self.is_unit()
        ctx = self.torus.ctx
        am1, be = self.alpha - 1, self.beta
        if self.torus.kind == UNRAMIFIED:
            return ctx.val_at_least(am1, n) and ctx.val_at_least(be, n)
        # ramified: v_E(x-1) = min(2 v(alpha-1), 2 v(beta) + 1)
        return ctx.val_at_least(am1, (n + 1) // 2) and ctx.val_at_least(be, n // 2)


def split_torus(p: int, M: int) -> TorusData:
    return TorusData(PAdicContext(p, M), SPLIT)


def unramified_torus(p: int, M: int) -> TorusData:
    c = unramified_generator_constant(p)
    return TorusData(PAdicContext(p, M), UNRAMIFIED, T=1, N=-c % p ** M)


def ramified_torus(p: int, M: int, unit: int = 1) -> TorusData:
    """The ramified quadratic Q_p(sqrt(p * unit)), theta0 = sqrt(p * unit)."""
    ctx = PAdicContext(p, M)
    if not ctx.is_unit(unit):
        raise ValueError("unit part must be a unit")
    return TorusData(ctx, RAMIFIED, T=0, N=-p * unit % ctx.modulus)


def ramified_torus_2nonsplit(M: int, unit: int = 3) -> TorusData:
    """The ramified Q_2(sqrt(u)) for u = 3 mod 4, theta0 = 1 + sqrt(u)."""
    if unit % 4 != 3:
        raise ValueError("needs unit = 3 mod 4")
    ctx = PAdicContext(2, M)
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
    v = integer_valuation(disc, p)
    u = disc // p ** v
    if v % 2 == 0 and ((p != 2 and pow(u % p, (p - 1) // 2, p) == p - 1)
                       or (p == 2 and u % 8 == 5)):
        return unramified_torus(p, M)
    if p != 2:
        return ramified_torus(p, M, unit=u % p ** M)
    if v % 2:
        return ramified_torus(2, M, unit=u % 2 ** M)
    return ramified_torus_2nonsplit(M, unit=u % 2 ** M)


def torus_generator(torus: TorusData, t: int) -> RegularElement:
    """Coordinates of the canonical root x of X^2 - t X + 1 in the torus basis.

    sqrt(t^2 - 4) is expressed through the basis generator: 2 theta0 - 1 in
    the unramified case, theta0 itself (Eisenstein) or theta0 - 1 (2-adic
    unit-discriminant) in the ramified ones, with a unit square root w fixing
    the square class.
    """
    ctx = torus.ctx
    p, mod = ctx.p, ctx.modulus
    disc = t * t - 4
    if torus.kind == SPLIT:
        y = sqrt(disc % mod, ctx)
        a, b = ctx.half((t + y) % mod), ctx.half((t - y) % mod)
        x = torus.element(a, b)
    elif torus.kind == UNRAMIFIED:
        v = integer_valuation(disc, p)
        s = v // 2
        u = disc // p ** v
        c = -torus.N % mod
        w = sqrt_unit(u * ctx.inv(1 + 4 * c) % mod, ctx)
        alpha = ctx.half((t - p ** s * w) % mod)
        beta = p ** s * w % mod
        x = torus.element(alpha, beta)
    else:
        v = integer_valuation(disc, p)
        if torus.T % mod == 0:
            # theta0 = sqrt(m) with m = -N, v(m) = 1, and v(disc) odd
            s = (v - 1) // 2
            m_unit = (-torus.N % mod) // p
            w = sqrt_unit((disc // p ** (2 * s + 1)) * ctx.inv(m_unit) % mod, ctx)
            alpha = ctx.half(t % mod)
            if p == 2:
                beta = 2 ** (s - 1) * w % mod  # s >= 1: even t forces v(disc) >= 3 here
            else:
                beta = p ** s * w * ctx.inv(2) % mod
        else:
            # p = 2, theta0 = 1 + sqrt(u0), u0 = 1 - N = 3 mod 4, v(disc) even
            s = v // 2
            u = disc // 2 ** v
            u0 = (1 - torus.N) % mod
            w = sqrt_unit(u * pow(u0, -1, mod) % mod, ctx)
            alpha = ctx.half((t - 2 ** s * w) % mod)
            beta = 2 ** (s - 1) * w % mod
        x = torus.element(alpha, beta)
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
