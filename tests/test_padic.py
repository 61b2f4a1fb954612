import pytest
from hypothesis import given, settings, strategies as st

from geomatch.padic import (
    GUARD,
    PAdicContext,
    PrecisionExhausted,
    NonHyperbolicTrace,
    RAMIFIED,
    SPLIT,
    UNRAMIFIED,
    classify_torus,
    integer_valuation,
    is_square,
    quad_order_unit_index,
    ramified_torus,
    sqrt,
    split_torus,
    torus_generator,
    unramified_torus,
)


def test_valuation_examples():
    assert PAdicContext(3, 6).val(3) == 1
    assert PAdicContext(5, 6).val(1) == 0
    assert PAdicContext(2, 8).val(12) == 2


def test_valuation_guard():
    ctx = PAdicContext(3, 4)
    with pytest.raises(PrecisionExhausted):
        ctx.val(3 ** 3)
    with pytest.raises(PrecisionExhausted):
        ctx.val(0)


def test_classify_examples():
    assert classify_torus(3, 11).kind == SPLIT
    t = classify_torus(3, 5)
    assert t.kind == RAMIFIED and t.e == 2
    t = classify_torus(3, 2)
    assert t.kind == UNRAMIFIED and t.e == 1


def test_classify_rejects_elliptic():
    with pytest.raises(NonHyperbolicTrace):
        classify_torus(2, 5)
    with pytest.raises(NonHyperbolicTrace):
        classify_torus(-1, 3)


@settings(max_examples=120, deadline=None)
@given(t=st.integers(min_value=-40, max_value=40).filter(lambda t: abs(t) > 2),
       p=st.sampled_from([2, 3, 5, 7]))
def test_classification_stable_under_precision(t, p):
    a = classify_torus(t, p)
    b = classify_torus(t, p, a.ctx.M + 2)
    assert a.kind == b.kind


@settings(max_examples=120, deadline=None)
@given(t=st.integers(min_value=-40, max_value=40).filter(lambda t: abs(t) > 2),
       p=st.sampled_from([2, 3, 5]))
def test_generator_satisfies_char_poly(t, p):
    torus = classify_torus(t, p)
    x = torus_generator(torus, t)
    mod = p ** (torus.ctx.M - GUARD)
    assert x.trace() % mod == t % mod
    assert x.norm() % mod == 1 % mod
    if torus.kind == SPLIT:
        assert x.a * x.b % mod == 1 % mod


def test_sqrt_roundtrip():
    ctx = PAdicContext(2, 12)
    for d in (1, 9, 17, 4 * 17, 16 * 73):
        r = sqrt(d % ctx.modulus, ctx)
        assert (r * r - d) % 2 ** 10 == 0
    ctx = PAdicContext(7, 8)
    for d in (2, 4, 7 * 7 * 2):
        if is_square(d, ctx):
            r = sqrt(d, ctx)
            assert (r * r - d) % 7 ** 6 == 0


def test_square_detection_against_bruteforce():
    for p in (2, 3, 5):
        ctx = PAdicContext(p, 7)
        mod = p ** 7
        squares = {y * y % mod for y in range(mod)}
        for d in range(1, 200):
            if d % p ** 5 == 0:
                continue
            got = is_square(d, ctx)
            # brute squares mod p^7 with headroom: exact for v(d) <= 3
            want = d % mod in squares
            if got != want:
                assert got == (d % mod in squares)


def _is_square_2adic_by_search(d, ctx):
    """The exhaustive residue search that the mod-8 test replaced."""
    v = ctx.val(d)
    if v % 2:
        return False
    u = ctx.reduce(d) // 2 ** v
    k = max(min(ctx.M - v, ctx.M), 5)
    mod = 2 ** k
    return any(y * y % mod == u % mod for y in range(mod))


def test_2adic_square_test_matches_exhaustive_search():
    for M in range(3, 11):
        ctx = PAdicContext(2, M)
        for d in range(1, 2 ** M):
            if M - integer_valuation(d, 2) >= 3:
                assert is_square(d, ctx) == _is_square_2adic_by_search(d, ctx), (M, d)


def test_2adic_square_test_needs_three_digits():
    for M in range(3, 11):
        ctx = PAdicContext(2, M)
        v = M - 2  # the largest valuation the guard allows
        for u in (1, 3, 5, 7):
            if v % 2 == 0:
                with pytest.raises(PrecisionExhausted):
                    is_square(u * 2 ** v, ctx)
            else:
                assert not is_square(u * 2 ** v, ctx)  # odd valuation is exact


def test_quad_order_unit_index_values():
    assert quad_order_unit_index(0, 1, 1, 3) == 4
    assert quad_order_unit_index(1, 1, 1, 3) == 3
    assert quad_order_unit_index(0, 2, 2, 2) == 4


def test_regular_element_invariants():
    tor = split_torus(3, 8)
    x = tor.element(4, 1)
    assert x.val_gap() == 1
    with pytest.raises(ValueError):
        tor.element(3, 1)  # non-unit coordinate
    with pytest.raises(PrecisionExhausted):
        tor.element(1, 1)  # a = b at precision
    toru = unramified_torus(3, 8)
    y = toru.element(2, 9)
    assert y.conductor() == 2
    with pytest.raises(PrecisionExhausted):
        toru.element(2, 0)  # beta = 0: not regular


def test_theta0_basis_norm_matches_embedding_determinant():
    # the basis is correct when the coordinate norm equals the determinant of
    # the matrix realization
    from geomatch.orders import MatrixEmbedding, OrderKind
    for p in (2, 3):
        for tor in (unramified_torus(p, 10), ramified_torus(p, 10)):
            emb = MatrixEmbedding(tor, OrderKind.M, 0)
            for alpha, beta in ((1, 1), (2, 3), (1 + p, p), (5, 7)):
                x = tor.element(alpha, beta)
                m = emb.of(x)
                assert m.det_int() % p ** 8 == x.norm() % p ** 8
