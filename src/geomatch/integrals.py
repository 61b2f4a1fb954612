"""Closed-form orbital integrals for the normalized chain-order test functions.

Everything is an exact Fraction in q.  Measure conventions: Vol(O_E^x) = 1 in
the field cases and Vol(o^x x o^x) = 1 in the split case.  The normalization
prefactor 1/[o^x : det-or-norm image of U^n] is off by default (bare values)
and switched on by the global assembly, where the three matched levels carry
identical factors.

For odd Iwahori levels the split constant is q^(n + ceil(n/2) - 2) (q-1)^2:
the unit-index chain [J^x : U_J^n] = (q-1)^2 q^(2(n-1)) together with the
geometric coset sum forces the ceiling, and exact split vanishing of the
matched combinations fails under the floor variant.  The brute-force oracle
confirms the ceiling on every supported grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .orders import OrderKind, norm_image_level
from .padic import (
    LocalType,
    RegularElement,
    SPLIT,
    unit_filtration_index,
)

# what the closed forms read: q, e, kind, is_unit, val_gap, conductor and
# in_unit_filtration, off an element's coordinates or off t's valuations
Point = RegularElement | LocalType


@dataclass(frozen=True)
class TestFunctionSpec:
    """One of the normalized indicator functions: kind M (f), J (g), D (phi)."""

    __test__ = False  # not a pytest class

    kind: OrderKind
    n: int
    include_norm_index: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("level must be >= 0")


def _geometric_power_sum(q: int, rmax: int) -> int:
    """q + q^2 + ... + q^rmax (0 for rmax <= 0)."""
    if rmax <= 0:
        return 0
    return (q ** (rmax + 1) - q) // (q - 1)


def _split_f(x: Point, n: int) -> Fraction:
    """Orbital integral of f_n at a split regular pair (a, b).

    1_{U^n}(a) 1_{U^n}(b) / |a-b| times 1 (n = 0) or q^(3n-3)(q-1)^2(q+1).
    """
    if not x.in_unit_filtration(n):
        return Fraction(0)
    q = x.q
    const = 1 if n == 0 else q ** (3 * n - 3) * (q - 1) ** 2 * (q + 1)
    return Fraction(const * q ** x.val_gap())


def _split_g(x: Point, n: int) -> Fraction:
    """Orbital integral of g_n at a split regular pair (a, b).

    2 * 1_{U^ceil(n/2)}(a) 1_{U^ceil(n/2)}(b) / |a-b| times
    1 (n = 0) or q^(n + ceil(n/2) - 2) (q-1)^2.
    """
    k = (n + 1) // 2
    if not x.in_unit_filtration(k):
        return Fraction(0)
    q = x.q
    const = 1 if n == 0 else q ** (n + k - 2) * (q - 1) ** 2
    return Fraction(2 * const * q ** x.val_gap())


def _division(x: Point, n: int) -> Fraction:
    """Orbital integral of phi_n at a regular element of a field torus.

    (2/e) * 1_{U_E^ceil(en/2)}(x) times 1 (n = 0) or q^(2n)(1 - q^-2).
    """
    q, e = x.q, x.e
    if not x.in_unit_filtration((e * n + 1) // 2):
        return Fraction(0)
    const = Fraction(1) if n == 0 else Fraction(q ** (2 * n)) * (1 - Fraction(1, q * q))
    return Fraction(2, e) * const


def _ce(q: int, e: int) -> Fraction:
    """(1 - q^-2) / (1 - q^-e)."""
    return (1 - Fraction(1, q * q)) / (1 - Fraction(1, q ** e))


def _nonsplit_f(x: Point, n: int) -> Fraction:
    """Orbital integral of f_n at a regular element of a field torus.

    The quadratic-order coset sum is finite: the r-th term survives iff
    v(alpha-1) >= n and v(beta) >= n + r, so every term needs x in U_E^(en)
    and r runs to v(beta) - n.
    """
    q, e = x.q, x.e
    ce = _ce(q, e)
    if n == 0:
        if not x.is_unit():
            return Fraction(0)
        return 1 + ce * _geometric_power_sum(q, x.conductor())
    if not x.in_unit_filtration(e * n):
        return Fraction(0)
    braces = 1 + ce * _geometric_power_sum(q, x.conductor() - n)
    return braces * Fraction(q ** (4 * n)) * (1 - Fraction(1, q)) * (1 - Fraction(1, q * q))


def _nonsplit_g(x: Point, n: int) -> Fraction:
    """Orbital integral of g_n at a regular element of a field torus.

    The ramified-only head is 1_{e=2} 1_{U_E^n}(x); the r-th coset term uses
    the order index shifted by one for odd n, so r runs to
    v(beta) - ceil(n/2) + (n odd), and the sum is empty unless x is in
    U_E^(e ceil(n/2)).
    """
    q, e = x.q, x.e
    ce = _ce(q, e)
    if n == 0:
        if not x.is_unit():
            return Fraction(0)
        head = 1 if e == 2 else 0
        return head + 2 * ce * _geometric_power_sum(q, x.conductor())
    k = (n + 1) // 2
    head = Fraction(1) if (e == 2 and x.in_unit_filtration(n)) else Fraction(0)
    tail = Fraction(0)
    if x.in_unit_filtration(e * k):
        rmax = x.conductor() - k + (n % 2)
        tail = 2 * ce * _geometric_power_sum(q, rmax)
    return (head + tail) * Fraction(q ** (2 * n)) * (1 - Fraction(1, q)) ** 2


# (kind, split torus?) -> closed form; phi_n on the split torus is 0
_CLOSED_FORMS = {
    (OrderKind.M, True): _split_f,
    (OrderKind.J, True): _split_g,
    (OrderKind.M, False): _nonsplit_f,
    (OrderKind.J, False): _nonsplit_g,
    (OrderKind.D, False): _division,
}


def orbital(spec: TestFunctionSpec, x: Point) -> Fraction:
    """The closed-form value of spec at x, an exact Fraction.

    With spec.include_norm_index the value is divided by [o^x : U_o^m], m the
    level of the det/nu image of U^n.
    """
    split = x.kind == SPLIT
    if spec.kind is OrderKind.D and split:
        return Fraction(0)
    val = _CLOSED_FORMS[spec.kind, split](x, spec.n)
    if spec.include_norm_index:
        val /= unit_filtration_index(x.q, norm_image_level(spec.kind, spec.n))
    return val


# ---------------------------------------------------------------------------
# matched combinations


@dataclass(frozen=True)
class MatchingCombination:
    """Coefficients a, b and levels with a f_{f_level} + b g_{g_level} matching phi_n."""

    q: int
    n: int
    coeff_f: Fraction
    f_level: int
    coeff_g: Fraction
    g_level: int


@lru_cache(maxsize=None)
def matching_combination(q: int, n: int) -> MatchingCombination:
    """The matched matrix-side combination at level n.

    n = 0: 2 f_0 - g_0; n = 2m: (2q/(q-1)) f_m - ((q+1)/(q-1)) g_2m;
    n = 2m-1: (-2/(q-1)) f_m + ((q+1)/(q-1)) g_(2m-1).  a + b = 1 always,
    and f, g and phi_n share one norm image level; both are checked here.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    if n == 0:
        combo = MatchingCombination(q, 0, Fraction(2), 0, Fraction(-1), 0)
    elif n % 2 == 0:
        m = n // 2
        combo = MatchingCombination(q, n, Fraction(2 * q, q - 1), m,
                                    Fraction(-(q + 1), q - 1), n)
    else:
        m = (n + 1) // 2
        combo = MatchingCombination(q, n, Fraction(-2, q - 1), m,
                                    Fraction(q + 1, q - 1), n)
    if combo.coeff_f + combo.coeff_g != 1:
        raise AssertionError("matching coefficients must sum to 1")
    if not (norm_image_level(OrderKind.M, combo.f_level)
            == norm_image_level(OrderKind.J, combo.g_level)
            == norm_image_level(OrderKind.D, n)):
        raise AssertionError("matched levels must share one norm image")
    return combo


@dataclass(frozen=True)
class MatchReport:
    """Both sides of the matching identity at one (level, torus, element)."""

    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def matched_value(n: int, x: Point,
                  include_norm_index: bool = False) -> Fraction:
    """a * O(f_{n1}) + b * O(g_{n2}) at x, the matrix side of the matching."""
    combo = matching_combination(x.q, n)
    vf = orbital(TestFunctionSpec(OrderKind.M, combo.f_level, include_norm_index), x)
    vg = orbital(TestFunctionSpec(OrderKind.J, combo.g_level, include_norm_index), x)
    return combo.coeff_f * vf + combo.coeff_g * vg


def verify_matching(n: int, x: Point,
                    include_norm_index: bool = False) -> MatchReport:
    """Compare the matrix-side combination against the division side at x.

    Split tori must give 0; field tori must equal the phi_n orbital.
    """
    lhs = matched_value(n, x, include_norm_index)
    rhs = orbital(TestFunctionSpec(OrderKind.D, n, include_norm_index), x)
    return MatchReport(lhs, rhs)
