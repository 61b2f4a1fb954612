import random
from fractions import Fraction

import pytest

from geomatch.assembly import (
    GroupDescriptor,
    RamifiedLevelData,
    dpsi_relation,
    dpsi_value,
    extract_global_constant,
    factor_support,
    group_c_factor,
    local_factor,
    local_product,
    predict_dpsi,
    psi_relation,
    subset_coefficients,
)
from geomatch.geodesics import dpsi_enumerated, psi_enumerated
from geomatch.orders import OrderKind


def test_subset_coefficients_examples():
    co = subset_coefficients(RamifiedLevelData((2, 3)))
    assert co == {frozenset(): Fraction(1), frozenset({2}): Fraction(-2),
                  frozenset({3}): Fraction(-2), frozenset({2, 3}): Fraction(4)}
    co = subset_coefficients(RamifiedLevelData((2, 3), ((2, 2),)))
    assert co == {frozenset(): Fraction(3), frozenset({2}): Fraction(-4),
                  frozenset({3}): Fraction(-6), frozenset({2, 3}): Fraction(8)}


def test_subset_coefficients_sum_randomized():
    rng = random.Random(20)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(20):
        size = rng.choice([2, 4])
        ram = tuple(rng.sample(primes, size))
        exps = tuple((p, rng.randrange(0, 6)) for p in ram if rng.random() < 0.7)
        data = RamifiedLevelData(ram, exps)
        co = subset_coefficients(data)
        assert sum(co.values()) == 1
        assert len(co) == 2 ** size


def test_ramified_data_validation():
    with pytest.raises(ValueError):
        RamifiedLevelData((2,))
    with pytest.raises(ValueError):
        RamifiedLevelData((2, 3, 5))
    with pytest.raises(ValueError):
        RamifiedLevelData((2, 4))
    with pytest.raises(ValueError):
        RamifiedLevelData((2, 3), ((2, -1),))


def test_descriptor_constructions():
    data = RamifiedLevelData((2, 3), ((2, 2), (3, 1), (5, 1)))
    full = GroupDescriptor.eichler(data, frozenset({2, 3}))
    assert full.local_entry(2) == (OrderKind.M, 1)   # even level 2 -> f-level 1
    assert full.local_entry(3) == (OrderKind.M, 1)   # odd level 1 -> f-level 1
    assert full.local_entry(5) == (OrderKind.M, 1)
    mixed = GroupDescriptor.eichler(data, frozenset({2}))
    assert mixed.local_entry(3) == (OrderKind.J, 1)  # odd level 1 -> g-level 1
    q = GroupDescriptor.quaternion(data)
    assert q.local_entry(2) == (OrderKind.D, 2)
    assert q.local_entry(5) == (OrderKind.M, 1)
    assert GroupDescriptor.principal(12).local_entry(2) == (OrderKind.M, 2)
    assert GroupDescriptor.principal(12).principal_level() == 12
    assert mixed.principal_level() is None


def test_c_factors():
    assert group_c_factor(GroupDescriptor.principal(1)) == Fraction(1, 2)
    assert group_c_factor(GroupDescriptor.principal(2)) == Fraction(1, 2)
    assert group_c_factor(GroupDescriptor.principal(3)) == 1
    assert group_c_factor(GroupDescriptor.principal(4)) == 1
    data = RamifiedLevelData((2, 3))
    assert group_c_factor(GroupDescriptor.quaternion(data)) == Fraction(1, 2)
    data2 = RamifiedLevelData((2, 3), ((2, 2),))
    assert group_c_factor(GroupDescriptor.quaternion(data2)) == Fraction(1, 2)
    data3 = RamifiedLevelData((2, 3), ((2, 3),))
    assert group_c_factor(GroupDescriptor.quaternion(data3)) == 1


def test_local_factor_tail_is_one():
    # level 0 at primes away from the discriminant support contributes 1
    for t in (3, 5, 7, -9, 12):
        for p in (7, 11, 13, 17):
            if (t * t - 4) % p == 0:
                continue
            assert local_factor(OrderKind.M, 0, t, p) == 1


def test_predict_matches_enumeration():
    for N in (1, 2, 3):
        desc = GroupDescriptor.principal(N)
        for at in range(3, 21):
            for t in (at, -at):
                pred = predict_dpsi(desc, t)
                enum = dpsi_enumerated(N, t)
                if enum == 0.0:
                    assert pred == 0.0, (N, t)
                else:
                    assert abs(pred - enum) <= 1e-9 * enum, (N, t, pred, enum)


def test_predict_reproduces_base():
    desc = GroupDescriptor.principal(1)
    for t in (3, -3, 7, 12):
        assert abs(predict_dpsi(desc, t) - dpsi_enumerated(1, t)) < 1e-12


def test_global_constant_positive():
    for t in (3, 4, 5, -6):
        assert extract_global_constant(t) > 0


def test_dpsi_relation_identities():
    data = RamifiedLevelData((2, 3))
    for t in (3, -3, 5, 7, 11, 12, 13):
        rep = dpsi_relation(data, t)
        assert rep.exact_identity_ok
        assert rep.matching_identity_ok
        assert rep.dpsi_quaternion >= -1e-12
    data2 = RamifiedLevelData((2, 3), ((2, 2), (3, 1)))
    for t in (3, 5, 17, -15):
        rep = dpsi_relation(data2, t)
        assert rep.exact_identity_ok and rep.matching_identity_ok


def test_dpsi_relation_allmatrix_term_enumerated():
    data = RamifiedLevelData((2, 3))
    rep = dpsi_relation(data, 5)
    modes = {t.subset: t.mode for t in rep.terms}
    assert modes[(2, 3)] == "enumerated"
    assert modes[()] == "predicted"


def test_quaternion_vanishes_when_split_at_ramified_prime():
    # trace 11: Q(sqrt 117) = Q(sqrt 13) splits at 3, so no quaternion classes
    data = RamifiedLevelData((2, 3))
    rep = dpsi_relation(data, 11)
    assert rep.dpsi_quaternion == 0.0
    assert local_product(GroupDescriptor.quaternion(data), 11) == 0


def test_psi_relation_report():
    data = RamifiedLevelData((2, 3))
    rep = psi_relation(data, 800)
    assert rep.coefficient_sum == 1
    total = 0.0
    for term in rep.terms:
        total += float(term.coefficient) * term.psi
    assert total == rep.psi_quaternion
    assert rep.bound_7_10 == 800 ** 0.7
    assert "defined through" in rep.note
    # the all-matrix term is the level-1 principal group here
    modes = {t.subset: (t.mode, t.psi) for t in rep.terms}
    assert modes[(2, 3)][0] == "enumerated"
    assert abs(modes[(2, 3)][1] - psi_enumerated(1, 800)) < 1e-9


def test_dpsi_value_modes():
    assert dpsi_value(GroupDescriptor.principal(2), 6)[1] == "enumerated"
    assert dpsi_value(GroupDescriptor.principal(7), 9)[1] == "predicted"


def test_local_factor_examples():
    # conductor-0 full-level factor is 1; a level-1 factor vanishes exactly
    # when the generator misses U^1; split Iwahori level 0 is the g_0 value
    assert local_factor(OrderKind.M, 0, 3, 7) == 1
    assert local_factor(OrderKind.M, 1, 3, 5) == 0
    from geomatch.integrals import orbital_split_g
    from geomatch.padic import classify_torus, torus_generator
    tor = classify_torus(3, 11)
    x = torus_generator(tor, 3)
    assert local_factor(OrderKind.J, 0, 3, 11) == \
        orbital_split_g(x, 0, include_norm_index=True).value == 2


def test_relation_all_terms_vanish():
    # with a positive level at 2 every subset needs the generator in U^1
    # there, so an odd trace kills all four terms and the quaternion side
    data = RamifiedLevelData((2, 3), ((2, 2),))
    rep = dpsi_relation(data, 5)
    assert all(t.dpsi == 0.0 for t in rep.terms)
    assert rep.dpsi_quaternion == 0.0
    assert rep.exact_identity_ok and rep.matching_identity_ok


def test_psi_relation_desk_scale():
    data = RamifiedLevelData((2, 3))
    rep = psi_relation(data, 10 ** 4)
    assert 0.8 <= rep.psi_quaternion / 10 ** 4 <= 1.2


def test_relation_with_positive_exponents():
    # odd levels at both ramified primes: coefficients (6, -4, -3, 2), the
    # all-matrix term is the level-6 principal group, and the quaternion
    # side is sign-asymmetric (t = -34 fires, t = +34 does not)
    data = RamifiedLevelData((2, 3), ((2, 1), (3, 1)))
    co = subset_coefficients(data)
    assert co[frozenset()] == 6 and co[frozenset({2, 3})] == 2
    assert group_c_factor(GroupDescriptor.quaternion(data)) == 1
    for t in (34, -34, 5, 74, 14, -14):
        rep = dpsi_relation(data, t)
        assert rep.exact_identity_ok and rep.matching_identity_ok, t
        assert {tt.subset: tt.mode for tt in rep.terms}[(2, 3)] == "enumerated"
    assert dpsi_relation(data, 34).dpsi_quaternion == 0.0
    assert dpsi_relation(data, -34).dpsi_quaternion > 0


def test_relation_agrees_with_direct_quaternion_prediction():
    # dpsi_D from the subset decomposition equals the direct prediction
    # through the quaternion-side local product and the global constant
    for data in (RamifiedLevelData((2, 3)),
                 RamifiedLevelData((2, 3), ((2, 1), (3, 1))),
                 RamifiedLevelData((2, 5), ((5, 2),))):
        qdesc = GroupDescriptor.quaternion(data)
        for t in (3, -3, 5, 7, 12, 14, -14, 34, -34):
            rel = dpsi_relation(data, t).dpsi_quaternion
            direct = predict_dpsi(qdesc, t)
            if rel == 0.0 and direct == 0.0:
                continue
            err = abs(rel - direct) / max(abs(rel), abs(direct))
            assert err < 1e-9, (data.ram, t, rel, direct)


def test_pgt_leading_term_all_levels():
    # the Chebyshev count has main term x for every level's lattice
    from geomatch.geodesics import psi_enumerated
    for N in (2, 3):
        psi = psi_enumerated(N, 10 ** 4)
        assert 0.8 <= psi / 10 ** 4 <= 1.2, (N, psi)


def test_predict_matches_enumeration_higher_levels():
    # beyond the required N <= 3 grid: levels 4, 5, 6 exercise depth-2 local
    # factors at p = 2 and the p = 5 factors; the congruence conditions are
    # sign-asymmetric (e.g. N = 4 fires at t = -14 but t = +18), which the
    # per-sign computation must reproduce
    expected_nonzero = {4: [-14, 18, -30, 34], 5: [-23, 27, -48, 52],
                        6: [-34, 38, -70, 74]}
    for N, traces in expected_nonzero.items():
        desc = GroupDescriptor.principal(N)
        seen = []
        for at in range(3, 80):
            for t in (at, -at):
                pred = predict_dpsi(desc, t)
                enum = dpsi_enumerated(N, t)
                assert (pred == 0.0) == (enum == 0.0), (N, t)
                if enum:
                    seen.append(t)
                    assert abs(pred - enum) <= 1e-9 * enum, (N, t)
        assert seen[:4] == traces, (N, seen[:6])


def test_geodesic_c_factor_matches_group_membership():
    from geomatch.geodesics import c_factor
    for N in range(1, 7):
        assert c_factor(N) == group_c_factor(GroupDescriptor.principal(N)), N


def test_factor_support_is_primes_of_discriminant_plus_descriptor():
    data = RamifiedLevelData((2, 3), ())
    descs = [GroupDescriptor.eichler(data, I) for I in subset_coefficients(data)]
    assert len(descs) == 4
    for at in range(3, 601):
        n, primes, d = at * at - 4, set(), 2
        while n > 1:
            while n % d == 0:
                primes.add(d)
                n //= d
            d += 1
        for t in (at, -at):
            for desc in descs:
                want = primes | {p for p, _, _ in desc.entries}
                assert factor_support(desc, t) == tuple(sorted(want)), (t, desc)
