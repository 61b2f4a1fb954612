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

from .orders import OrderKind, norm_image_level
from .padic import (
    RegularElement,
    SPLIT,
    unit_filtration_index,
)


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


@dataclass(frozen=True)
class OrbitalValue:
    """An exact orbital integral value with its normalization ledger."""

    value: Fraction
    convention: str
    include_norm_index: bool

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))

    def compatible(self, other: "OrbitalValue") -> bool:
        return self.include_norm_index == other.include_norm_index


SPLIT_CONVENTION = "Vol(o^x x o^x) = 1"
FIELD_CONVENTION = "Vol(O_E^x) = 1"


def _geometric_power_sum(q: int, rmax: int) -> int:
    """q + q^2 + ... + q^rmax (0 for rmax <= 0)."""
    if rmax <= 0:
        return 0
    return (q ** (rmax + 1) - q) // (q - 1)


def _norm_index_factor(kind: OrderKind, n: int, q: int) -> Fraction:
    return Fraction(1, unit_filtration_index(q, norm_image_level(kind, n)))


def _in_unit_level(x: RegularElement, value: int, n: int) -> bool:
    """value in U_o^n, for a unit value of o."""
    if n <= 0:
        return x.ctx.is_unit(value)
    return x.ctx.is_unit(value) and x.ctx.val_at_least(value - 1, n)


def orbital_split_f(x: RegularElement, n: int, include_norm_index: bool = False) -> OrbitalValue:
    """Orbital integral of f_n at a split regular pair (a, b).

    1_{U^n}(a) 1_{U^n}(b) / |a-b| times 1 (n = 0) or q^(3n-3)(q-1)^2(q+1).
    """
    if x.torus.kind != SPLIT:
        raise ValueError("split orbital asked for a field element")
    q = x.ctx.q
    val = Fraction(0)
    if _in_unit_level(x, x.a, n) and _in_unit_level(x, x.b, n):
        const = 1 if n == 0 else q ** (3 * n - 3) * (q - 1) ** 2 * (q + 1)
        val = Fraction(const) * q ** x.val_gap()
    if include_norm_index:
        val *= _norm_index_factor(OrderKind.M, n, q)
    return OrbitalValue(val, SPLIT_CONVENTION, include_norm_index)


def orbital_split_g(x: RegularElement, n: int, include_norm_index: bool = False) -> OrbitalValue:
    """Orbital integral of g_n at a split regular pair (a, b).

    2 * 1_{U^ceil(n/2)}(a) 1_{U^ceil(n/2)}(b) / |a-b| times
    1 (n = 0) or q^(n + ceil(n/2) - 2) (q-1)^2.
    """
    if x.torus.kind != SPLIT:
        raise ValueError("split orbital asked for a field element")
    q = x.ctx.q
    k = (n + 1) // 2
    val = Fraction(0)
    if _in_unit_level(x, x.a, k) and _in_unit_level(x, x.b, k):
        const = 1 if n == 0 else q ** (n + k - 2) * (q - 1) ** 2
        val = 2 * Fraction(const) * q ** x.val_gap()
    if include_norm_index:
        val *= _norm_index_factor(OrderKind.J, n, q)
    return OrbitalValue(val, SPLIT_CONVENTION, include_norm_index)


def orbital_division(x: RegularElement, n: int, include_norm_index: bool = False) -> OrbitalValue:
    """Orbital integral of phi_n at a regular element of a field torus.

    (2/e) * 1_{U_E^ceil(en/2)}(x) times 1 (n = 0) or q^(2n)(1 - q^-2).
    """
    if x.torus.kind == SPLIT:
        raise ValueError("division orbital needs a field torus")
    q, e = x.ctx.q, x.torus.e
    val = Fraction(0)
    if x.in_unit_filtration((e * n + 1) // 2):
        const = Fraction(1) if n == 0 else Fraction(q ** (2 * n)) * (1 - Fraction(1, q * q))
        val = Fraction(2, e) * const
    if include_norm_index:
        val *= _norm_index_factor(OrderKind.D, n, q)
    return OrbitalValue(val, FIELD_CONVENTION, include_norm_index)


def _ce(q: int, e: int) -> Fraction:
    """(1 - q^-2) / (1 - q^-e)."""
    return (1 - Fraction(1, q * q)) / (1 - Fraction(1, q ** e))


def orbital_nonsplit_f(x: RegularElement, n: int, include_norm_index: bool = False) -> OrbitalValue:
    """Orbital integral of f_n at a regular element of a field torus.

    The quadratic-order coset sum is finite: the r-th term survives iff
    v(alpha-1) >= n and v(beta) >= n + r, so r runs to v(beta) - n.
    """
    if x.torus.kind == SPLIT:
        raise ValueError("nonsplit orbital asked for a split pair")
    ctx, q, e = x.ctx, x.ctx.q, x.torus.e
    ce = _ce(q, e)
    if n == 0:
        if not x.is_unit():
            braces = Fraction(0)
        else:
            braces = 1 + ce * _geometric_power_sum(q, x.conductor())
        const = Fraction(1)
    else:
        if not ctx.val_at_least(x.alpha - 1, n):
            braces = Fraction(0)
        else:
            head = 1 if ctx.val_at_least(x.beta, n) else 0
            braces = head + ce * _geometric_power_sum(q, x.conductor() - n)
        const = (Fraction(q ** (4 * n)) * (1 - Fraction(1, q)) * (1 - Fraction(1, q * q)))
    val = braces * const
    if include_norm_index:
        val *= _norm_index_factor(OrderKind.M, n, q)
    return OrbitalValue(val, FIELD_CONVENTION, include_norm_index)


def orbital_nonsplit_g(x: RegularElement, n: int, include_norm_index: bool = False) -> OrbitalValue:
    """Orbital integral of g_n at a regular element of a field torus.

    The ramified-only head is 1_{e=2} 1_{U_E^n}(x); the r-th coset term uses
    the order index shifted by one for odd n, so r runs to
    v(beta) - ceil(n/2) + (n odd).
    """
    if x.torus.kind == SPLIT:
        raise ValueError("nonsplit orbital asked for a split pair")
    ctx, q, e = x.ctx, x.ctx.q, x.torus.e
    ce = _ce(q, e)
    if n == 0:
        if not x.is_unit():
            braces = Fraction(0)
        else:
            head = 1 if e == 2 else 0
            braces = head + 2 * ce * _geometric_power_sum(q, x.conductor())
        const = Fraction(1)
    else:
        k = (n + 1) // 2
        head = Fraction(1) if (e == 2 and x.in_unit_filtration(n)) else Fraction(0)
        tail = Fraction(0)
        if ctx.val_at_least(x.alpha - 1, k):
            rmax = x.conductor() - k + (n % 2)
            tail = 2 * ce * _geometric_power_sum(q, rmax)
        braces = head + tail
        const = Fraction(q ** (2 * n)) * (1 - Fraction(1, q)) ** 2
    val = braces * const
    if include_norm_index:
        val *= _norm_index_factor(OrderKind.J, n, q)
    return OrbitalValue(val, FIELD_CONVENTION, include_norm_index)


def orbital(spec: TestFunctionSpec, x: RegularElement) -> OrbitalValue:
    """Dispatch on kind and torus: the closed-form value of spec at x."""
    flag = spec.include_norm_index
    if spec.kind is OrderKind.D:
        if x.torus.kind == SPLIT:
            return OrbitalValue(Fraction(0), SPLIT_CONVENTION, flag)
        return orbital_division(x, spec.n, flag)
    if x.torus.kind == SPLIT:
        fn = orbital_split_f if spec.kind is OrderKind.M else orbital_split_g
    else:
        fn = orbital_nonsplit_f if spec.kind is OrderKind.M else orbital_nonsplit_g
    return fn(x, spec.n, flag)


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

    def levels_coherent(self) -> bool:
        return (norm_image_level(OrderKind.M, self.f_level)
                == norm_image_level(OrderKind.J, self.g_level)
                == norm_image_level(OrderKind.D, self.n))


def matching_combination(q: int, n: int) -> MatchingCombination:
    """The matched matrix-side combination at level n.

    n = 0: 2 f_0 - g_0; n = 2m: (2q/(q-1)) f_m - ((q+1)/(q-1)) g_2m;
    n = 2m-1: (-2/(q-1)) f_m + ((q+1)/(q-1)) g_(2m-1).  a + b = 1 always.
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
    return combo


@dataclass(frozen=True)
class MatchReport:
    """Both sides of the matching identity at one (level, torus, element)."""

    q: int
    n: int
    torus_kind: str
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def matched_value(q: int, n: int, x: RegularElement,
                  include_norm_index: bool = False) -> Fraction:
    """a * O(f_{n1}) + b * O(g_{n2}) at x, the matrix side of the matching."""
    combo = matching_combination(q, n)
    vf = orbital(TestFunctionSpec(OrderKind.M, combo.f_level, include_norm_index), x).value
    vg = orbital(TestFunctionSpec(OrderKind.J, combo.g_level, include_norm_index), x).value
    return combo.coeff_f * vf + combo.coeff_g * vg


def verify_matching(q: int, n: int, x: RegularElement,
                    include_norm_index: bool = False) -> MatchReport:
    """Compare the matrix-side combination against the division side at x.

    Split tori must give 0; field tori must equal the phi_n orbital.
    """
    if q != x.ctx.q:
        raise ValueError("q must match the element's residue size")
    lhs = matched_value(q, n, x, include_norm_index)
    if x.torus.kind == SPLIT:
        rhs = Fraction(0)
    else:
        rhs = orbital_division(x, n, include_norm_index).value
    return MatchReport(q, n, x.torus.kind, lhs, rhs)
