from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geomatch.integrals import (
    matched_value,
    matching_combination,
    orbital,
    verify_matching,
    TestFunctionSpec,
)
from geomatch.orders import OrderKind, norm_image_level
from geomatch.padic import (
    ramified_torus,
    ramified_torus_2nonsplit,
    split_torus,
    unramified_torus,
)

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def field_tori(p, M=14):
    tori = [unramified_torus(p, M), ramified_torus(p, M)]
    if p == 2:
        tori.append(ramified_torus_2nonsplit(M))
    return tori


def test_split_f_values():
    tor3, tor2 = split_torus(3, 10), split_torus(2, 10)
    assert orbital(TestFunctionSpec(OrderKind.M, 0), tor3.element(4, 1)) == 3
    assert orbital(TestFunctionSpec(OrderKind.M, 1), tor2.element(3, 1)) == 6
    assert orbital(TestFunctionSpec(OrderKind.M, 2), tor3.element(2, 1)) == 0


def test_split_g_values():
    tor3, tor2 = split_torus(3, 10), split_torus(2, 10)
    assert orbital(TestFunctionSpec(OrderKind.J, 0), tor3.element(4, 1)) == 6
    assert orbital(TestFunctionSpec(OrderKind.J, 2), tor2.element(5, 1)) == 16
    assert orbital(TestFunctionSpec(OrderKind.J, 1), tor3.element(2, 1)) == 0


def test_division_values():
    tr2 = ramified_torus(2, 10)
    assert orbital(TestFunctionSpec(OrderKind.D, 1), tr2.element(3, 1)) == 3
    tu3 = unramified_torus(3, 10)
    assert orbital(TestFunctionSpec(OrderKind.D, 0), tu3.element(2, 1)) == 2
    tu2 = unramified_torus(2, 10)
    # e = 1, n = 2: the indicator level is ceil(en/2) = 1, so membership in
    # U^1 already switches the value on
    assert orbital(TestFunctionSpec(OrderKind.D, 2), tu2.element(3, 2)) == 24
    assert orbital(TestFunctionSpec(OrderKind.D, 2), tu2.element(2, 1)) == 0


def test_nonsplit_f_values():
    tu2, tu3 = unramified_torus(2, 10), unramified_torus(3, 10)
    assert orbital(TestFunctionSpec(OrderKind.M, 1), tu2.element(3, 2)) == 6
    assert orbital(TestFunctionSpec(OrderKind.M, 1), tu3.element(10, 27)) == 816
    assert orbital(TestFunctionSpec(OrderKind.M, 1), tu3.element(2, 3)) == 0


def test_nonsplit_g_values():
    tr2, tu2, tu3 = ramified_torus(2, 10), unramified_torus(2, 10), unramified_torus(3, 10)
    assert orbital(TestFunctionSpec(OrderKind.J, 1), tr2.element(3, 1)) == 1
    assert orbital(TestFunctionSpec(OrderKind.J, 0), tu2.element(3, 2)) == 6
    assert orbital(TestFunctionSpec(OrderKind.J, 2), tu3.element(2, 9)) == 0


def test_matching_combination_cases():
    c = matching_combination(3, 4)
    assert (c.coeff_f, c.f_level, c.coeff_g, c.g_level) == (Fraction(3), 2, Fraction(-2), 4)
    c = matching_combination(2, 3)
    assert (c.coeff_f, c.f_level, c.coeff_g, c.g_level) == (Fraction(-2), 2, Fraction(3), 3)
    c = matching_combination(5, 0)
    assert (c.coeff_f, c.f_level, c.coeff_g, c.g_level) == (Fraction(2), 0, Fraction(-1), 0)


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from(PRIMES), n=st.integers(0, 8))
def test_coefficients_sum_to_one(q, n):
    c = matching_combination(q, n)
    assert c.coeff_f + c.coeff_g == 1
    assert norm_image_level(OrderKind.M, c.f_level) == \
        norm_image_level(OrderKind.J, c.g_level) == norm_image_level(OrderKind.D, n)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_split_vanishing_grid(q):
    tor = split_torus(q, 13)
    for n in range(7):
        for i in range(5):
            for u in {1, q - 1, 2 % q}:
                a = (1 + u * q ** i) % tor.ctx.modulus
                if a % q == 0 or u == 0:
                    continue
                x = tor.element(a, 1)
                for flag in (False, True):
                    rep = verify_matching(n, x, flag)
                    assert rep.lhs == 0 == rep.rhs


@pytest.mark.parametrize("p", [2, 3])
def test_field_matching_grid(p):
    for tor in field_tori(p):
        for n in range(7):
            for i in range(5):
                for j in range(5):
                    x = tor.element(1 + p ** i, p ** j)
                    rep = verify_matching(n, x)
                    assert rep.equal, (tor.kind, n, i, j)
                    assert verify_matching(n, x, True).equal


@pytest.mark.parametrize("p", [2, 3])
def test_even_level_proof_values(p):
    # the matched combination at even level 2n equals
    # (2/e) q^(4n) (1 - q^-2) 1_{U_E^{en}}
    for tor in field_tori(p):
        e = tor.e
        for n in (1, 2, 3):
            for i in range(4):
                for j in range(4):
                    x = tor.element(1 + p ** i, p ** j)
                    got = matched_value(2 * n, x)
                    ind = x.in_unit_filtration(e * n)
                    want = (Fraction(2, e) * p ** (4 * n)
                            * (1 - Fraction(1, p * p))) if ind else Fraction(0)
                    assert got == want


def test_orbital_dispatch_division_on_split_is_zero():
    tor = split_torus(3, 10)
    assert orbital(TestFunctionSpec(OrderKind.D, 2), tor.element(4, 1)) == 0


def test_norm_index_flag_recorded():
    tor = split_torus(3, 10)
    a = orbital(TestFunctionSpec(OrderKind.M, 1, True), tor.element(4, 1))
    b = orbital(TestFunctionSpec(OrderKind.M, 1), tor.element(4, 1))
    assert a * 2 == b  # [o^x : U_o^1] = 2 at q = 3
