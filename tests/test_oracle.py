from fractions import Fraction

import pytest

from geomatch.integrals import TestFunctionSpec, orbital
from geomatch.oracle import (
    coset_coverage_nonsplit,
    coset_coverage_split,
    enum_gl2_unit_index_direct,
    enum_norm_image,
    enum_order_unit_index,
    enum_quad_index_pair,
    enum_unit_filtration_index,
    index_enumeration_test,
    iwahori_level_zero_missing,
    oracle_orbital,
    radical_intersection_test,
    verify_embedding_optimal,
)
from geomatch.orders import MatrixEmbedding, OrderKind, norm_image_level, order_unit_index
from geomatch.padic import (
    EnumerationTooLarge,
    RAMIFIED,
    SPLIT,
    UNRAMIFIED,
    quad_order_unit_index,
    ramified_torus,
    ramified_torus_2nonsplit,
    split_torus,
    unit_filtration_index,
    unramified_torus,
)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", list(OrderKind))
def test_index_enumeration_matches_closed_form(p, kind):
    for n in range(0, 5):
        rep = index_enumeration_test(kind, n, p)
        assert rep["ok"], rep


def test_index_examples():
    assert index_enumeration_test(OrderKind.M, 1, 2)["enumerated"] == 6
    assert index_enumeration_test(OrderKind.J, 3, 2)["enumerated"] == (2 - 1) ** 2 * 2 ** 4
    assert index_enumeration_test(OrderKind.D, 2, 2)["enumerated"] == 12


def test_stratified_matches_oneshot_gl2():
    for n in (1, 2, 3):
        assert enum_gl2_unit_index_direct(2, n, 4) == \
            enum_order_unit_index(OrderKind.M, 2, n)


def test_unit_filtration_enumeration():
    for p in (2, 3, 5):
        for m in range(0, 4):
            assert enum_unit_filtration_index(p, m) == unit_filtration_index(p, m)


def test_quad_index_enumeration_full_grid():
    for p in (2, 3):
        for kind, e in ((UNRAMIFIED, 1), (RAMIFIED, 2)):
            for k in range(0, 3):
                for r in range(1, 3):
                    got = enum_quad_index_pair(kind, p, k, r)
                    assert got == quad_order_unit_index(k, r, e, p)


def test_norm_images():
    for p in (2, 3):
        for kind in OrderKind:
            for n in range(0, 5):
                m, idx = enum_norm_image(kind, p, n)
                assert m == norm_image_level(kind, n)
                assert idx == unit_filtration_index(p, m)


def test_enumeration_cap():
    with pytest.raises(EnumerationTooLarge):
        enum_gl2_unit_index_direct(3, 2, 5)


def test_embeddings_verified_optimal():
    for p in (2, 3):
        for tor in (unramified_torus(p, 12), ramified_torus(p, 12)):
            for kind in (OrderKind.M, OrderKind.J):
                for r in range(0, 4):
                    if kind is OrderKind.J and r == 0 and tor.kind == UNRAMIFIED:
                        continue
                    assert verify_embedding_optimal(MatrixEmbedding(tor, kind, r))


def test_iwahori_level_zero_empty():
    for p in (2, 3):
        assert iwahori_level_zero_missing(unramified_torus(p, 12))


def test_oracle_examples():
    tor2 = split_torus(2, 12)
    assert oracle_orbital(TestFunctionSpec(OrderKind.M, 1), tor2.element(3, 1)) == 6
    tr2 = ramified_torus(2, 12)
    assert oracle_orbital(TestFunctionSpec(OrderKind.D, 1), tr2.element(3, 1)) == 3
    assert oracle_orbital(TestFunctionSpec(OrderKind.M, 0), tor2.element(3, 1)) == 2
    for spec in (TestFunctionSpec(OrderKind.M, 1), TestFunctionSpec(OrderKind.D, 1, True)):
        for x in (tor2.element(3, 1), tr2.element(3, 1)):
            assert type(orbital(spec, x)) is type(oracle_orbital(spec, x)) is Fraction


def _grid_elements(tor, p, span=3):
    if tor.kind == SPLIT:
        for i in range(span + 1):
            a = (1 + p ** i) % tor.ctx.modulus
            if a % p:
                yield tor.element(a, 1)
    else:
        for i in range(span + 1):
            for j in range(span + 1):
                yield tor.element(1 + p ** i, p ** j)


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_agreement_subgrid(p):
    tori = [split_torus(p, 12), unramified_torus(p, 12), ramified_torus(p, 12)]
    if p == 2:
        tori.append(ramified_torus_2nonsplit(12))
    for tor in tori:
        for kind in OrderKind:
            for n in range(0, 4):
                spec = TestFunctionSpec(kind, n)
                for x in _grid_elements(tor, p):
                    assert orbital(spec, x) == oracle_orbital(spec, x)


def test_radical_intersection_branches():
    # the four predicted right-hand sides
    tu = unramified_torus(2, 14)
    tr = ramified_torus(2, 14)
    assert radical_intersection_test(OrderKind.M, tu, 1, 2)["ok"]
    assert radical_intersection_test(OrderKind.J, tu, 1, 2)["ok"]  # even
    assert radical_intersection_test(OrderKind.J, tu, 1, 1)["ok"]  # odd, r >= 1
    assert radical_intersection_test(OrderKind.J, tr, 0, 1)["ok"]  # odd, r = 0
    for p in (2, 3):
        for tor in (unramified_torus(p, 14), ramified_torus(p, 14)):
            for kind in (OrderKind.M, OrderKind.J):
                for r in range(0, 3):
                    if kind is OrderKind.J and r == 0 and tor.kind == UNRAMIFIED:
                        continue
                    for n in range(0, 4):
                        assert radical_intersection_test(kind, tor, r, n)["ok"]


from hypothesis import given, settings, strategies as st


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_oracle_agreement_randomized(data):
    p = data.draw(st.sampled_from([2, 3]))
    kind = data.draw(st.sampled_from(list(OrderKind)))
    n = data.draw(st.integers(0, 3))
    torus_pick = data.draw(st.integers(0, 3 if p == 2 else 2))
    tori = [split_torus(p, 12), unramified_torus(p, 12), ramified_torus(p, 12)]
    if p == 2:
        tori.append(ramified_torus_2nonsplit(12))
    tor = tori[torus_pick]
    if tor.kind == SPLIT:
        a = data.draw(st.integers(1, p ** 9).filter(lambda v: v % p))
        b = data.draw(st.integers(1, p ** 9).filter(lambda v: v % p))
        if (a - b) % p ** 6 == 0:
            return  # keep the coset sum inside the precision bound
        x = tor.element(a, b)
    else:
        alpha = data.draw(st.integers(0, p ** 9))
        beta = data.draw(st.integers(1, p ** 9).filter(lambda v: v % p ** 6))
        x = tor.element(alpha, beta)
    spec = TestFunctionSpec(kind, n, data.draw(st.booleans()))
    assert orbital(spec, x) == oracle_orbital(spec, x)


def test_coverage_smoke():
    rep = coset_coverage_split(OrderKind.M, 2, 3, 800, seed=3)
    assert rep.ok and rep.r_histogram.get(1)
    rep = coset_coverage_split(OrderKind.J, 3, 2, 800, seed=3)
    assert rep.ok and rep.odd_component_hits > 0
    rep = coset_coverage_nonsplit(OrderKind.M, UNRAMIFIED, 2, 3, 300, seed=3,
                                  deep_witnesses=60)
    assert rep.ok and rep.deep_witness_checked == 60
    rep = coset_coverage_nonsplit(OrderKind.J, RAMIFIED, 3, 2, 300, seed=3,
                                  deep_witnesses=60)
    assert rep.ok and 0 in rep.r_histogram  # ramified tori do reach level 0


def test_coverage_rejects_precision_below_two():
    # no determinant has 1 <= v(det) <= M - 1 when M < 2, so sampling cannot
    # end; a run that draws no sample certifies nothing
    for M, samples in ((0, 10), (1, 10), (2, 0), (3, -5)):
        with pytest.raises(ValueError):
            coset_coverage_split(OrderKind.M, 2, M, samples)
        with pytest.raises(ValueError):
            coset_coverage_nonsplit(OrderKind.J, UNRAMIFIED, 3, M, samples)

