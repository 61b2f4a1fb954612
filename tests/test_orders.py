import random

import pytest
from hypothesis import given, settings, strategies as st

from geomatch.orders import (
    DivisionModel,
    MatElt,
    MatrixEmbedding,
    OrderKind,
    congruence_subgroup_membership,
    division_embedding,
    embedding_order_level,
    exact_radical_level,
    in_normalizer,
    norm_image_level,
    order_membership,
    order_unit_index,
    pi_matrix,
    pi_matrix_inv,
    radical_power_membership,
)
from geomatch.padic import (
    PAdicContext,
    RAMIFIED,
    UNRAMIFIED,
    ramified_torus,
    ramified_torus_2nonsplit,
    unramified_torus,
)


def test_radical_membership_examples():
    ctx = PAdicContext(3, 8)
    Pi = pi_matrix(ctx)
    assert radical_power_membership(OrderKind.J, Pi, 1)
    Pi2 = Pi * Pi
    assert radical_power_membership(OrderKind.J, Pi2, 2)
    assert Pi2.entries == (3, 0, 0, 3)
    md = DivisionModel(PAdicContext(2, 6))
    assert not radical_power_membership(OrderKind.D, md.one(), 1)


def test_congruence_membership_examples():
    ctx = PAdicContext(3, 8)
    assert congruence_subgroup_membership(OrderKind.M, MatElt.identity(ctx), 5)
    assert congruence_subgroup_membership(OrderKind.M, MatElt(ctx, 1, 3, 0, 1), 1)
    md = DivisionModel(PAdicContext(2, 8))
    y = md.elt((1, 0), (1, 0))  # 1 + pi_D
    assert congruence_subgroup_membership(OrderKind.D, y, 1)
    assert not congruence_subgroup_membership(OrderKind.D, y, 2)


def test_unit_indices():
    assert order_unit_index(OrderKind.M, 1, 2) == 6
    assert order_unit_index(OrderKind.J, 2, 3) == 36
    assert order_unit_index(OrderKind.D, 1, 2) == 3
    # the division index in its product shape q^(2n)(1-q^-2)
    q, n = 3, 2
    assert order_unit_index(OrderKind.D, n, q) * q * q == q ** (2 * n) * (q * q - 1)


def test_norm_image_levels():
    assert norm_image_level(OrderKind.M, 2) == 2
    assert norm_image_level(OrderKind.J, 3) == 2
    assert norm_image_level(OrderKind.D, 4) == 2


def test_division_relations():
    md = DivisionModel(PAdicContext(3, 8))
    s = md.elt((0, 1), (0, 0))
    piD = md.pi_d()
    left = piD * s
    # pi_D * s = sigma(s) * pi_D with sigma(s) = 1 - s
    mod = 3 ** 8
    assert left.u == (0, 0) and left.w == (1 % mod, -1 % mod)
    sq = piD * piD
    assert sq.u == (3, 0) and sq.w == (0, 0)
    assert sq.norm_int() % mod == 9 % mod


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3 ** 4 - 1), st.integers(0, 3 ** 4 - 1),
       st.integers(0, 3 ** 4 - 1), st.integers(0, 3 ** 4 - 1),
       st.integers(0, 3 ** 4 - 1), st.integers(0, 3 ** 4 - 1))
def test_division_norm_multiplicative(a, b, c, d, e, f):
    md = DivisionModel(PAdicContext(3, 8))
    x = md.elt((a, b), (c, d))
    y = md.elt((e, f), (a + d, b + c))
    mod = 3 ** 8
    assert (x * y).norm_int() % mod == x.norm_int() * y.norm_int() % mod


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_division_associative(data):
    md = DivisionModel(PAdicContext(2, 7))
    mod = 2 ** 7
    pick = lambda: md.elt((data.draw(st.integers(0, mod - 1)),
                           data.draw(st.integers(0, mod - 1))),
                          (data.draw(st.integers(0, mod - 1)),
                           data.draw(st.integers(0, mod - 1))))
    x, y, z = pick(), pick(), pick()
    assert (x * y) * z == x * (y * z)


def test_radical_filtration_products():
    rng = random.Random(5)
    ctx = PAdicContext(2, 14)
    md = DivisionModel(ctx)
    for _ in range(40):
        a = rng.randrange(1, 4)
        b = rng.randrange(1, 4)
        x = MatElt(ctx, *(rng.randrange(ctx.modulus) * 2 ** a for _ in range(4)))
        y = MatElt(ctx, *(rng.randrange(ctx.modulus) * 2 ** b for _ in range(4)))
        if radical_power_membership(OrderKind.M, x, a) and \
                radical_power_membership(OrderKind.M, y, b):
            assert radical_power_membership(OrderKind.M, x * y, a + b)
    # Iwahori: products of radical elements land in the radical sum
    Pi = pi_matrix(ctx)
    for _ in range(40):
        a = rng.randrange(1, 4)
        b = rng.randrange(1, 4)
        u = MatElt(ctx, *(rng.randrange(ctx.modulus) for _ in range(4)))
        v = MatElt(ctx, *(rng.randrange(ctx.modulus) for _ in range(4)))
        if u.e21 % 2 or v.e21 % 2:
            continue
        x, y = u, v
        for _ in range(a):
            x = Pi * x
        for _ in range(b):
            y = Pi * y
        assert radical_power_membership(OrderKind.J, x * y, a + b)


def test_congruence_subgroups_normal_in_normalizer():
    # conjugation by the normalizer generators preserves U^n membership
    ctx = PAdicContext(3, 12)
    rng = random.Random(11)
    Pi = pi_matrix(ctx)
    Pi_inv = pi_matrix_inv(ctx)
    for n in (1, 2, 3):
        for _ in range(25):
            y = MatElt(ctx, *(rng.randrange(ctx.modulus) * 3 ** n for _ in range(4)))
            one = MatElt.identity(ctx)
            x = one + y
            if congruence_subgroup_membership(OrderKind.M, x, n):
                # scaling conjugation is trivial for M; check the swap too
                w = MatElt(ctx, 0, 1, 1, 0)
                assert congruence_subgroup_membership(OrderKind.M, x.conj_by(w), n)
            xj = MatElt(ctx, 1 + y.e11, y.e12, y.e21 * 3, 1 + y.e22)
            if congruence_subgroup_membership(OrderKind.J, xj, n):
                conj = Pi_inv * xj * Pi
                assert congruence_subgroup_membership(OrderKind.J, conj, n)
    md = DivisionModel(ctx)
    for n in (1, 2):
        for _ in range(25):
            x = md.elt((1 + 3 ** ((n + 1) // 2) * rng.randrange(27),
                        3 ** ((n + 1) // 2) * rng.randrange(27)),
                       (3 ** (n // 2) * rng.randrange(27),
                        3 ** (n // 2) * rng.randrange(27)))
            if congruence_subgroup_membership(OrderKind.D, x, n):
                # pi_D^-1 (u + w pi_D) pi_D = sigma(u) + sigma(w) pi_D
                tw = md.elt(md._sigma(x.u), md._sigma(x.w))
                assert congruence_subgroup_membership(OrderKind.D, tw, n)


def test_embedding_levels():
    for p in (2, 3):
        for mk in ("unram", "ram"):
            tor = unramified_torus(p, 10) if mk == "unram" else ramified_torus(p, 10)
            for kind in (OrderKind.M, OrderKind.J):
                for r in range(0, 4):
                    if kind is OrderKind.J and r == 0 and tor.kind == UNRAMIFIED:
                        with pytest.raises(ValueError):
                            MatrixEmbedding(tor, kind, 0)
                        continue
                    emb = MatrixEmbedding(tor, kind, r)
                    got = embedding_order_level(kind, emb.of_coords(0, 1))
                    assert got == r


def test_division_embedding_parity():
    for p in (2, 3):
        for tor in (unramified_torus(p, 8), ramified_torus(p, 8)):
            de = division_embedding(tor, DivisionModel(PAdicContext(p, 8)))
            assert exact_radical_level(OrderKind.D, de.xi) % 2 == \
                (1 if tor.kind == RAMIFIED else 0)
    t24 = ramified_torus_2nonsplit(8)
    de = division_embedding(t24, DivisionModel(PAdicContext(2, 8)))
    assert exact_radical_level(OrderKind.D, de.xi) == 1  # theta0 = 1 + sqrt(u) is a uniformizer


def test_normalizer_membership():
    ctx = PAdicContext(3, 8)
    Pi = pi_matrix(ctx)
    assert in_normalizer(OrderKind.J, Pi)
    assert in_normalizer(OrderKind.J, MatElt.identity(ctx))
    assert not in_normalizer(OrderKind.J, MatElt(ctx, 1, 0, 0, 3))
    assert in_normalizer(OrderKind.M, MatElt(ctx, 3, 0, 0, 3))
    assert not in_normalizer(OrderKind.M, Pi)
    assert exact_radical_level(OrderKind.J, Pi) == 1


def test_order_membership_denominators():
    ctx = PAdicContext(2, 10)
    x = MatElt(ctx, 4, 2, 8, 4, den=1)  # entries /2: integral
    assert order_membership(OrderKind.M, x)
    y = MatElt(ctx, 2, 1, 8, 4, den=1)  # upper right 1/2: not integral
    assert not order_membership(OrderKind.M, y)
