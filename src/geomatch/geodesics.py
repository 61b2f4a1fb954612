"""Hyperbolic conjugacy classes of SL2(Z) and prime-geodesic counting.

Classes of trace t correspond to integral binary quadratic forms of
discriminant t^2 - 4 (including imprimitive ones, one m-scaled copy for each
m^2 dividing the discriminant) up to proper equivalence; cycles of reduced
forms enumerate them.  Every class of content m lies in the quadratic order
of discriminant d0 = (t^2 - 4)/m^2 and shares its Pell unit, its power and
its level-N split with the other classes there, so the classes are kept as
one row per order: h = the number of primitive classes of d0, the power from
the Pell unit's powers (u_k + v_k sqrt d0)/2, and the split into Gamma(N),
at every level N, read off (u_k, v_k) mod 2N.
All surd arithmetic is exact; logarithms are taken only at output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .orders import OrderKind, contains_minus_one
from .padic import ENUM_CAP, EnumerationTooLarge, NonHyperbolicTrace, factorize

MAX_TRACE = 3162  # trace_bound(1e7): every count reaches x = 1e7


# ---------------------------------------------------------------------------
# Pell units


@dataclass(frozen=True)
class PellUnit:
    """(u + v sqrt(disc))/2 with u^2 - disc v^2 = 4, u, v > 0 minimal."""

    disc: int
    u: int
    v: int

    def __post_init__(self):
        if self.u * self.u - self.disc * self.v * self.v != 4:
            raise AssertionError("not a norm-one unit of the order")

    def log(self) -> float:
        return _log_alpha(self.u)


def _log_alpha(u: int) -> float:
    """log((u + sqrt(u^2 - 4))/2) without overflowing floats."""
    if u <= 2 ** 50:
        return math.log((u + math.sqrt(u * u - 4)) / 2)
    n = u * u - 4
    s = math.isqrt(n)
    frac = (n - s * s) / (2 * s)  # sqrt(n) = s + frac + O(1/s)
    base = math.log(u + s) - math.log(2)
    if u + s < 10 ** 300:
        base += math.log1p(frac / (u + s))
    return base


def _mat_mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


@lru_cache(maxsize=None)
def pell_fundamental(disc: int) -> PellUnit:
    """Minimal positive solution of u^2 - disc v^2 = 4.

    The product of the rho-step matrices [[0, -1], [1, delta]] over the
    reduction cycle of the principal form (1, B, C) is the automorph that
    comes from the fundamental norm-one unit: its trace is +-u and its
    lower-left entry +-v.
    """
    if disc <= 0:
        raise ValueError("discriminant must be positive")
    s = math.isqrt(disc)
    if s * s == disc:
        raise ValueError("square discriminant")
    if disc % 4 not in (0, 1):
        raise ValueError("not a discriminant")
    B = s - (s - disc) % 2  # the largest B < sqrt(disc) with B = disc mod 2
    cyc = _cycle((1, B, (B * B - disc) // 4), disc)
    auto = (1, 0, 0, 1)
    for (_, b, c), (_, b2, _) in zip(cyc, cyc[1:] + cyc[:1]):
        auto = _mat_mul(auto, (0, -1, 1, (b + b2) // (2 * c)))  # delta of one rho step
    return PellUnit(disc, abs(auto[0] + auto[3]), abs(auto[2]))


# ---------------------------------------------------------------------------
# reduced indefinite forms and their cycles


def _is_reduced(A: int, B: int, C: int, disc: int) -> bool:
    if B <= 0 or B * B >= disc:
        return False
    t = 2 * abs(A) - B
    return disc < (B + 2 * abs(A)) ** 2 and (t <= 0 or t * t < disc)


def _rho(A: int, B: int, C: int, disc: int) -> tuple[int, int, int]:
    """One reduction step; maps reduced forms to reduced forms."""
    s = math.isqrt(disc)
    ac = 2 * abs(C)
    B2 = s - (s + B) % ac
    C2 = (B2 * B2 - disc) // (4 * C)
    return C, B2, C2


def _cycle(form: tuple[int, int, int], disc: int) -> tuple[tuple[int, int, int], ...]:
    out = [form]
    cur = _rho(*form, disc)
    while cur != form:
        out.append(cur)
        cur = _rho(*cur, disc)
    return tuple(out)


@lru_cache(maxsize=None)
def primitive_classes(disc: int) -> tuple[tuple[int, int, int], ...]:
    """Canonical representatives of proper classes of primitive forms."""
    s = math.isqrt(disc)
    forms = set()
    for B in range(1, s + 1):
        if (B - disc) % 2:
            continue
        m4 = B * B - disc
        if m4 % 4:
            continue
        m = m4 // 4  # = A C < 0
        # reduced forms have sqrt(disc) - B < 2|A| < sqrt(disc) + B
        for A in range(max(1, (s - B) // 2), (s + 1 + B) // 2 + 1):
            if m % A:
                continue
            for Asig in (A, -A):
                C = m // Asig
                if math.gcd(math.gcd(Asig, B), C) != 1:
                    continue
                if _is_reduced(Asig, B, C, disc):
                    forms.add((Asig, B, C))
    reps = []
    seen = set()
    for f in sorted(forms):
        if f in seen:
            continue
        cyc = _cycle(f, disc)
        seen.update(cyc)
        reps.append(min(cyc))
    return tuple(sorted(reps))


# ---------------------------------------------------------------------------
# trace classes


def _unit_powers(pell: PellUnit):
    """Yield (k, u_k, v_k) with ((u + v sqrt d)/2)^k = (u_k + v_k sqrt d)/2, k = 1, 2, ..."""
    u, v, d = pell.u, pell.v, pell.disc
    uk, vk, k = u, v, 1
    while True:
        yield k, uk, vk
        uk, vk, k = (uk * u + d * vk * v) // 2, (uk * v + vk * u) // 2, k + 1


def _order_power(t: int, m: int, pell: PellUnit) -> int:
    """The k with (|t| + m sqrt d)/2 = ((u + v sqrt d)/2)^k, checked exactly.

    The unit's powers are walked until u_k reaches |t|; there (u_k, v_k) must
    be (|t|, m).  The unit maps to each form's primitive automorph gamma0 by
    a ring map, so every class of trace t and content m is sign(t) gamma0^(±k).
    """
    for k, uk, vk in _unit_powers(pell):
        if uk >= abs(t):
            if (uk, vk) != (abs(t), m):
                raise AssertionError("no power of the Pell unit has trace |t| and content m")
            return k


@dataclass(frozen=True)
class OrderRow:
    """The SL2(Z)-classes of trace t in one quadratic order.

    The order has discriminant d0 = (t^2 - 4)/content^2 = pell.disc; it holds
    h classes, one per primitive form of discriminant d0, scaled by content.
    They share the Pell unit, the power over their primitive automorph and
    every level-N split.
    """

    t: int
    content: int
    h: int
    pell: PellUnit
    power: int


@lru_cache(maxsize=None)
def sl2_classes(t: int) -> tuple[OrderRow, ...]:
    """The SL2(Z)-conjugacy classes of hyperbolic trace t, one row per order."""
    if abs(t) <= 2:
        raise NonHyperbolicTrace(f"|t| = {abs(t)} <= 2")
    disc = t * t - 4
    out = []
    m = 1
    while m * m <= disc:
        if disc % (m * m) == 0 and (disc // (m * m)) % 4 in (0, 1):
            pell = pell_fundamental(disc // (m * m))
            h = len(primitive_classes(pell.disc))
            out.append(OrderRow(t, m, h, pell, _order_power(t, m, pell)))
        m += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# congruence groups and splitting into principal congruence subgroups


@dataclass(frozen=True)
class GroupDescriptor:
    """A congruence group given by its local kind and level at each prime.

    Primes absent from entries carry (M, 0).  Eichler and principal groups
    are unit groups of orders in M2; a D entry marks the quaternion side,
    whose order is the maximal order of the division algebra there.
    """

    entries: tuple[tuple[int, OrderKind, int], ...]

    def local_entry(self, p: int) -> tuple[OrderKind, int]:
        for q, kind, level in self.entries:
            if q == p:
                return kind, level
        return OrderKind.M, 0

    @classmethod
    def principal(cls, N: int) -> "GroupDescriptor":
        if N < 1:
            raise ValueError("level must be >= 1")
        return cls(tuple((p, OrderKind.M, e) for p, e in factorize(N)))

    def principal_level(self) -> int | None:
        """N when the group is the principal congruence subgroup Gamma(N)."""
        N = 1
        for p, kind, level in self.entries:
            if kind is not OrderKind.M:
                return None
            N *= p ** level
        return N


@lru_cache(maxsize=None)
def c_factor(desc: GroupDescriptor) -> Fraction:
    """1/2 when -1 lies in the group, that is in U^n at every entry, else 1."""
    if all(contains_minus_one(kind, level, p) for p, kind, level in desc.entries):
        return Fraction(1, 2)
    return Fraction(1)


def _principal_c(N: int) -> Fraction:
    """c_factor of Gamma(N) without factoring N: -1 = 1 mod N exactly when N divides 2."""
    return Fraction(1, 2) if 2 % N == 0 else Fraction(1)


@lru_cache(maxsize=None)  # gamma_splitting asks once per order
def sl2_group_order(N: int) -> int:
    """|SL2(Z/N)| = N^3 prod_{p | N} (1 - p^-2) (Diamond-Shurman, section 1.2)."""
    order = N ** 3
    for p, _ in factorize(N):
        order = order // (p * p) * (p * p - 1)
    return order


def gamma_splitting(row: OrderRow, N: int) -> tuple[int, int]:
    """(count, primitive_index) of each class of the order under the level-N splitting.

    With B = d0 mod 2, the class element gamma is 1 mod N exactly when N | m
    and t - m B = 2 mod 2N; otherwise count is 0 and (0, 0) is returned
    without a walk.  Otherwise primitive_index is m*, the least k with the
    Pell unit's power (u_k + v_k sqrt d0)/2 in +-Gamma(N), that is N | v_k and
    u_k - B v_k = +-2 mod 2N: gamma is +-gamma0^(+-power), so m* divides power
    and the walk takes at most power steps.  The image of the centralizer
    <gamma0, -1> has m* elements when -1 = 1 mod N and 2 m* otherwise, and
    count is |SL2(Z/N)| over that size.
    """
    if N == 1:
        return 1, 1
    B = row.pell.disc % 2
    if row.content % N or (row.t - row.content * B - 2) % (2 * N):
        return 0, 0
    for mstar, uk, vk in _unit_powers(row.pell):
        hit = vk % N == 0 and (uk - B * vk) % (2 * N) in (2, 2 * N - 2)
        if hit or mstar == row.power:
            break
    if not hit or row.power % mstar:
        raise AssertionError("the Pell unit does not reach +-Gamma(N) at a divisor of the power")
    total = sl2_group_order(N)
    size = mstar if N == 2 else 2 * mstar  # |<gamma0, -1> mod N|
    assert total % size == 0
    return total // size, mstar


# ---------------------------------------------------------------------------
# the per-trace table and the counting functions


@dataclass(frozen=True)
class TraceRow:
    """Level-N class data of one hyperbolic trace t.

    class_count_sl2 is the number of SL2(Z)-classes, the sum of h over the
    trace's orders; log_weight the sum of count * m* * log x0 over those
    classes, primitive the number of level-N classes whose element is
    primitive, and contribution = c * 2 * log_weight the trace's share of psi.
    """

    t: int
    class_count_sl2: int
    classes_in_level: int
    log_weight: float
    primitive: int
    contribution: float

    @property
    def dpsi(self) -> float:
        return self.log_weight / math.sqrt(abs(self.t) - 2)


@lru_cache(maxsize=None)
def trace_row(N: int, t: int) -> TraceRow:
    """The level-N row of trace t; each order is split exactly once.

    Each order's float term is added h times, once per class, in the order
    the classes are listed, so log_weight is the per-class sum to the bit.
    """
    orders = sl2_classes(t)
    in_level = primitive = 0
    weight = 0.0
    for row in orders:
        count, mstar = gamma_splitting(row, N)
        in_level += row.h * count
        term = count * mstar * row.pell.log()
        for _ in range(row.h):
            weight += term
        if row.power == mstar:
            primitive += row.h * count
    c = _principal_c(N)
    return TraceRow(t, sum(row.h for row in orders), in_level, weight, primitive,
                    float(c) * 2.0 * weight)


def signed_traces(t_min: int, t_max: int):
    """Yield t_min, -t_min, t_min + 1, -(t_min + 1), ..., t_max, -t_max.

    Raises EnumerationTooLarge, before yielding anything, when t_max exceeds
    MAX_TRACE.
    """
    if t_max > MAX_TRACE:
        raise EnumerationTooLarge(f"trace {t_max} exceeds the cap {MAX_TRACE}")
    for at in range(t_min, t_max + 1):
        yield at
        yield -at


def trace_table(N: int, tmax: int) -> list[TraceRow]:
    """Rows for t = 3, -3, 4, -4, ..., tmax, -tmax."""
    return [trace_row(N, t) for t in signed_traces(3, tmax)]


def dpsi_enumerated(N: int, t: int) -> float:
    """Per-trace class-weighted sum log x0 / (sqrt x - 1/sqrt x).

    x(t) = (|t| + sqrt(t^2-4))/2, so the denominator is sqrt(|t| - 2); the
    weight of a class is (splitting count) * log of its level-N primitive
    norm x0^(m*).
    """
    return trace_row(N, t).dpsi


def trace_bound(x) -> int:
    """Largest integer trace with |t| <= sqrt(x) + 1/sqrt(x) (exact in x)."""
    fx = Fraction(x)
    if fx < 4:
        return 2
    tmax = math.isqrt(int(fx) + 2)
    while Fraction(tmax * tmax) * fx > (fx + 1) ** 2:
        tmax -= 1
    while Fraction((tmax + 1) * (tmax + 1)) * fx <= (fx + 1) ** 2:
        tmax += 1
    return tmax


def spectrum_rows(N: int, x) -> list[TraceRow]:
    """Per-trace rows for 2 < |t| <= sqrt(x) + 1/sqrt(x), both signs.

    The psi column of a report is exactly the sum of the contribution column.
    """
    return trace_table(N, trace_bound(x))


def _counts(N: int, xs) -> list[tuple[float, int]]:
    """(psi, pi) at each x, in the given order, from one prefix-sum pass.

    pi is c times the number of primitive level-N classes over both signs of
    t: gamma and -gamma give one class when -1 is in the group.
    """
    bounds = [trace_bound(x) for x in xs]
    psi, pi = [0.0], [0]
    for row in trace_table(N, max(bounds, default=2)):
        psi.append(psi[-1] + row.contribution)
        pi.append(pi[-1] + row.primitive)
    c = _principal_c(N)
    out = []
    for tmax in bounds:
        k = 2 * (tmax - 2)
        count = c * pi[k]
        assert count.denominator == 1
        out.append((psi[k], int(count)))
    return out


def psi_enumerated(N: int, x) -> float:
    """Chebyshev-style count: c * sum over traces of 2 sqrt(|t|-2) dpsi(t).

    Equivalently the sum of log(norm of the level-N primitive) over level-N
    classes of norm at most x; grows like x.
    """
    return _counts(N, [x])[0][0]


def pi_enumerated(N: int, x) -> int:
    """Number of level-N primitive classes of norm at most x (mod +-1)."""
    return _counts(N, [x])[0][1]


def li(x: float) -> float:
    """Principal-value logarithmic integral via the Ei series."""
    if x <= 1:
        raise ValueError("li needs x > 1")
    z = math.log(x)
    total = 0.5772156649015328606 + math.log(z)
    term = 1.0
    ksum = 0.0
    for k in range(1, 200):
        term *= z / k
        ksum += term / k
        if term / k < 1e-17 * max(1.0, ksum):
            break
    return total + ksum


@dataclass(frozen=True)
class PgtRow:
    x: float
    psi: float
    psi_minus_x: float
    x_pow_7_10: float
    pi: int
    li_x: float
    pi_minus_li: float


def pgt_report(N: int, xs) -> list[PgtRow]:
    """Counting-function table over a grid of x values, in the given order.

    Raises EnumerationTooLarge, reading at most one point past the cap, when
    the grid (any iterable) has more than ENUM_CAP points.
    """
    xs = list(islice(xs, ENUM_CAP + 1))
    if len(xs) > ENUM_CAP:
        raise EnumerationTooLarge(f"x grid of more than {ENUM_CAP} points")
    rows = []
    for x, (psi, piv) in zip(xs, _counts(N, xs)):
        lix = li(float(x))
        rows.append(PgtRow(float(x), psi, psi - float(x), float(x) ** 0.7,
                           piv, lix, piv - lix))
    return rows
