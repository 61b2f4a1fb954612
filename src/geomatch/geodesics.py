"""Hyperbolic conjugacy classes of SL2(Z) and prime-geodesic counting.

Classes of trace t correspond to integral binary quadratic forms of
discriminant t^2 - 4 (including imprimitive ones, one m-scaled copy for each
m^2 dividing the discriminant) up to proper equivalence; cycles of reduced
forms enumerate them, Pell units give the primitive hyperbolic generators,
and reduction mod N splits classes into the principal congruence subgroup.
All surd arithmetic is exact; logarithms are taken only at output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .padic import EnumerationTooLarge, NonHyperbolicTrace

MAX_SPLITTING_LEVEL = 6
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

    def power(self, k: int) -> tuple[int, int]:
        """(U, V) with ((u + v sqrt d)/2)^k = (U + V sqrt d)/2, k >= 0."""
        U, V = 2, 0
        A, B = self.u, self.v
        n = k
        while n:
            if n & 1:
                U, V = _half_mul(self.disc, (U, V), (A, B))
            A, B = _half_mul(self.disc, (A, B), (A, B))
            n >>= 1
        return U, V


def _half_mul(disc: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Product of (a + b sqrt d)/2 pairs, result in the same normalization."""
    a, b = x
    c, d = y
    num_u = a * c + disc * b * d
    num_v = a * d + b * c
    assert num_u % 2 == 0 and num_v % 2 == 0
    return num_u // 2, num_v // 2


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


def _mat_mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _mat_pow(x, k):
    out = (1, 0, 0, 1)
    while k:
        if k & 1:
            out = _mat_mul(out, x)
        x = _mat_mul(x, x)
        k >>= 1
    return out


def _mat_neg(x):
    return tuple(-e for e in x)


def _mat_inv_sl2(x):
    return (x[3], -x[1], -x[2], x[0])


@dataclass(frozen=True)
class QuadFormClass:
    """One SL2(Z)-conjugacy class of trace t.

    content scales a primitive canonical form; gamma is an integral trace-t
    representative, gamma0 the fundamental automorph generating its
    centralizer mod sign, with gamma = sign * gamma0^(±k).
    """

    t: int
    content: int
    form: tuple[int, int, int]
    gamma: tuple[int, int, int, int]
    pell: PellUnit
    power: int
    sign: int
    inverse: bool

    @property
    def gamma0(self) -> tuple[int, int, int, int]:
        A, B, C = self.form
        u, v = self.pell.u, self.pell.v
        return ((u - B * v) // 2, -C * v, A * v, (u + B * v) // 2)

    def log_x0(self) -> float:
        """log of the primitive norm in the eigenvalue normalization."""
        return self.pell.log()


@lru_cache(maxsize=None)
def sl2_classes(t: int) -> tuple[QuadFormClass, ...]:
    """All SL2(Z)-conjugacy classes of hyperbolic trace t, duplicate-free."""
    if abs(t) <= 2:
        raise NonHyperbolicTrace(f"|t| = {abs(t)} <= 2")
    disc = t * t - 4
    out = []
    m = 1
    while m * m <= disc:
        if disc % (m * m) == 0 and (disc // (m * m)) % 4 in (0, 1):
            d0 = disc // (m * m)
            pell = pell_fundamental(d0)
            for form in primitive_classes(d0):
                A, B, C = form
                gamma = ((t - m * B) // 2, -m * C, m * A, (t + m * B) // 2)
                cls = _with_power(t, m, form, gamma, pell)
                out.append(cls)
        m += 1
    return tuple(out)


def _with_power(t, m, form, gamma, pell) -> QuadFormClass:
    """Determine k with gamma = sign gamma0^(±k), verified exactly."""
    target = (abs(t), m)
    k = 1
    cur = (pell.u, pell.v)
    while cur[0] < target[0]:
        k += 1
        cur = pell.power(k)
    if cur != target:
        raise AssertionError("class element is not a power of the fundamental unit")
    cls = QuadFormClass(t, m, form, gamma, pell, k, 1 if t > 0 else -1, t < 0)
    g0 = cls.gamma0
    if t > 0:
        ok = _mat_pow(g0, k) == gamma
    else:
        ok = _mat_pow(_mat_inv_sl2(g0), k) == _mat_neg(gamma)
    if not ok:
        raise AssertionError("gamma0^k does not reproduce gamma")
    return cls


def class_count_bruteforce(t: int) -> int:
    """Independent class count: enumerate bounded matrices, merge conjugates.

    Seeds are all trace-t determinant-1 matrices with entries bounded by
    30; the conjugation graph under the two standard generators is explored
    inside the larger box of entries bounded by 400 and components are counted.
    """
    if abs(t) <= 2:
        raise NonHyperbolicTrace(str(t))
    bound, closure = 30, 400
    seeds = set()
    for a in range(-bound, bound + 1):
        d = t - a
        if abs(d) > bound:
            continue
        bc = a * d - 1
        if bc == 0:
            for b in range(-bound, bound + 1):
                seeds.add((a, b, 0, d))
                seeds.add((a, 0, b, d))
        else:
            for b in range(-bound, bound + 1):
                if b and bc % b == 0 and abs(bc // b) <= bound:
                    seeds.add((a, b, bc // b, d))
    S = (0, -1, 1, 0)
    Si = (0, 1, -1, 0)
    T = (1, 1, 0, 1)
    Ti = (1, -1, 0, 1)
    conj = [(S, Si), (Si, S), (T, Ti), (Ti, T)]
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    frontier = list(seeds)
    for s in seeds:
        parent[s] = s
    while frontier:
        nxt = []
        for g in frontier:
            for c, ci in conj:
                h = _mat_mul(ci, _mat_mul(g, c))
                if max(abs(e) for e in h) > closure:
                    continue
                if h not in parent:
                    parent[h] = h
                    nxt.append(h)
                union(g, h)
        frontier = nxt
    return len({find(s) for s in seeds})


# ---------------------------------------------------------------------------
# splitting into principal congruence subgroups


def sl2_group_order(N: int) -> int:
    """|SL2(Z/N)| = N^3 prod_{p | N} (1 - p^-2) (Diamond-Shurman, section 1.2)."""
    order, n, p = N ** 3, N, 2
    while n > 1:
        if n % p == 0:
            order = order // (p * p) * (p * p - 1)
            while n % p == 0:
                n //= p
        p += 1
    return order


def _mod(mat, N):
    return tuple(e % N for e in mat)


def gamma_splitting(cls: QuadFormClass, N: int) -> tuple[int, int]:
    """(count, primitive_index) of the class under the level-N splitting.

    primitive_index is m*, the least m with gamma0^m = +-1 mod N, found by
    walking the powers of gamma0 mod N.  The image of the centralizer
    <gamma0, -1> then has 2 c m* elements (c = c_factor(N), 1/2 exactly when
    -1 = 1 mod N), so count, the number of level-N classes inside the
    SL2(Z)-class, is |SL2(Z/N)| / (2 c m*) when gamma = 1 mod N and 0 otherwise.
    """
    if N > MAX_SPLITTING_LEVEL:
        raise ValueError(f"level {N} above the splitting limit {MAX_SPLITTING_LEVEL}")
    if N == 1:
        return 1, 1
    total = sl2_group_order(N)
    ident, neg = (1, 0, 0, 1), (N - 1, 0, 0, N - 1)
    g0 = _mod(cls.gamma0, N)
    cur, mstar = g0, 1
    while cur != ident and cur != neg:
        if mstar >= total:
            raise AssertionError("gamma0 mod N does not reach +-1 within |SL2(Z/N)| steps")
        cur = _mod(_mat_mul(cur, g0), N)
        mstar += 1
    if _mod(cls.gamma, N) != ident:
        return 0, mstar
    size = int(2 * c_factor(N)) * mstar  # |<gamma0, -1> mod N|
    assert total % size == 0
    return total // size, mstar


def c_factor(N: int) -> Fraction:
    """1/2 when -1 lies in the level-N group (N <= 2), else 1."""
    return Fraction(1, 2) if N <= 2 else Fraction(1)


# ---------------------------------------------------------------------------
# the per-trace table and the counting functions


@dataclass(frozen=True)
class TraceRow:
    """Level-N class data of one hyperbolic trace t.

    log_weight is the sum of count * m* * log x0 over the SL2(Z)-classes,
    primitive the number of level-N classes whose element is primitive, and
    contribution = c * 2 * log_weight the trace's share of psi.
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
    """The level-N row of trace t; each class is split exactly once."""
    classes = sl2_classes(t)
    in_level = primitive = 0
    weight = 0.0
    for cls in classes:
        count, mstar = gamma_splitting(cls, N)
        in_level += count
        weight += count * mstar * cls.log_x0()
        if cls.power == mstar:
            primitive += count
    return TraceRow(t, len(classes), in_level, weight, primitive,
                    float(c_factor(N)) * 2.0 * weight)


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
    psi, pi = [0], [0]
    for row in trace_table(N, max(bounds, default=2)):
        psi.append(psi[-1] + row.contribution)
        pi.append(pi[-1] + row.primitive)
    out = []
    for tmax in bounds:
        k = 2 * (tmax - 2)
        count = c_factor(N) * pi[k]
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
    """Counting-function table over a grid of x values, in the given order."""
    xs = list(xs)
    rows = []
    for x, (psi, piv) in zip(xs, _counts(N, xs)):
        lix = li(float(x))
        rows.append(PgtRow(float(x), psi, psi - float(x), float(x) ** 0.7,
                           piv, lix, piv - lix))
    return rows
