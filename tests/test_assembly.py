import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geomatch.assembly import (
    MAX_EXPONENT,
    RamifiedLevelData,
    dpsi_relation,
    dpsi_value,
    extract_global_constant,
    factor_support,
    local_factor,
    local_product,
    matched_local_factor,
    predict_dpsi,
    psi_relation,
    relation_terms,
)
from geomatch.geodesics import (
    GroupDescriptor, c_factor, dpsi_enumerated, psi_enumerated, trace_bound,
)
from geomatch.integrals import matching_combination
from geomatch.orders import OrderKind
from geomatch.padic import SPLIT, local_type


def _coefficients(data):
    """{I: coeff_I} from the relation table."""
    return {subset: coeff for subset, coeff, _ in relation_terms(data)[0]}


def test_subset_coefficients_examples():
    co = _coefficients(RamifiedLevelData((2, 3)))
    assert co == {(): Fraction(1), (2,): Fraction(-2), (3,): Fraction(-2), (2, 3): Fraction(4)}
    co = _coefficients(RamifiedLevelData((2, 3), ((2, 2),)))
    assert co == {(): Fraction(3), (2,): Fraction(-4), (3,): Fraction(-6), (2, 3): Fraction(8)}


def test_subset_coefficients_sum_randomized():
    rng = random.Random(20)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(20):
        size = rng.choice([2, 4])
        ram = tuple(rng.sample(primes, size))
        exps = tuple((p, rng.randrange(0, 6)) for p in ram if rng.random() < 0.7)
        data = RamifiedLevelData(ram, exps)
        co = _coefficients(data)
        assert sum(co.values()) == 1
        assert len(co) == 2 ** size


def _reference_terms(data):
    """The relation table by a mask loop for the coefficients, then one walk per subset.

    An independent construction of what relation_terms builds in one walk:
    [(I, coeff_I, Gamma_I's entries)] in sorted-subset order, and D's entries.
    """
    exps = dict(data.exponents)
    support = sorted(set(data.ram) | set(exps))
    coeffs = {}
    for mask in range(2 ** len(data.ram)):
        subset = frozenset(p for k, p in enumerate(data.ram) if mask >> k & 1)
        val = Fraction(1)
        for p in data.ram:
            combo = matching_combination(p, exps.get(p, 0))
            val *= combo.coeff_f if p in subset else combo.coeff_g
        coeffs[subset] = val
    terms = []
    for subset in sorted(coeffs, key=lambda s: tuple(sorted(s))):
        entries = []
        for p in support:
            n = exps.get(p, 0)
            if p not in data.ram:
                if n:
                    entries.append((p, OrderKind.M, n))
            elif p in subset:
                entries.append((p, OrderKind.M, matching_combination(p, n).f_level))
            else:
                entries.append((p, OrderKind.J, matching_combination(p, n).g_level))
        terms.append((tuple(sorted(subset)), coeffs[subset], tuple(entries)))
    quaternion = []
    for p in support:
        n = exps.get(p, 0)
        if p in data.ram:
            quaternion.append((p, OrderKind.D, n))
        elif n:
            quaternion.append((p, OrderKind.M, n))
    return terms, tuple(quaternion)


FIRST_EIGHT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


@settings(max_examples=100)
@given(ram=st.integers(1, 3).flatmap(lambda k: st.lists(
           st.sampled_from(FIRST_EIGHT_PRIMES), min_size=2 * k, max_size=2 * k, unique=True)),
       levels=st.dictionaries(st.sampled_from(FIRST_EIGHT_PRIMES), st.integers(0, 5)))
def test_relation_terms_match_reference(ram, levels):
    # levels fall on ramified and unramified primes alike, level 0 included
    data = RamifiedLevelData(tuple(ram), tuple(levels.items()))
    terms, qdesc = relation_terms(data)
    want_terms, want_quaternion = _reference_terms(data)
    assert [(subset, coeff, desc.entries) for subset, coeff, desc in terms] == want_terms
    assert qdesc.entries == want_quaternion


def test_ramified_data_validation():
    with pytest.raises(ValueError):
        RamifiedLevelData((2,))
    with pytest.raises(ValueError):
        RamifiedLevelData((2, 3, 5))
    with pytest.raises(ValueError):
        RamifiedLevelData((2, 4))
    with pytest.raises(ValueError):
        RamifiedLevelData((2, 3), ((2, -1),))
    with pytest.raises(ValueError):
        RamifiedLevelData((2, 3, 3))
    with pytest.raises(ValueError):
        RamifiedLevelData((2, 3), ((2, 1), (2, 0)))
    # primes are capped at 2^40, so trial division takes at most 2^20 steps;
    # the largest prime below the cap is accepted, the next one refused
    assert RamifiedLevelData((2, 1099511627689)).ram == (2, 1099511627689)
    for ram, exps in (((2, 1099511627791), ()), ((2, 3), ((1099511627791, 1),))):
        with pytest.raises(ValueError, match=r"2\^40"):
            RamifiedLevelData(ram, exps)
    # levels are capped, at ramified and unramified primes alike
    assert RamifiedLevelData((2, 3), ((2, MAX_EXPONENT), (5, MAX_EXPONENT))).exponents == \
        ((2, MAX_EXPONENT), (5, MAX_EXPONENT))
    for p in (2, 5):
        with pytest.raises(ValueError, match=f"levels 0 to {MAX_EXPONENT}"):
            RamifiedLevelData((2, 3), ((p, MAX_EXPONENT + 1),))


def test_descriptor_constructions():
    data = RamifiedLevelData((2, 3), ((2, 2), (3, 1), (5, 1)))
    terms, q = relation_terms(data)
    descs = {subset: desc for subset, _, desc in terms}
    full = descs[(2, 3)]
    assert full.local_entry(2) == (OrderKind.M, 1)   # even level 2 -> f-level 1
    assert full.local_entry(3) == (OrderKind.M, 1)   # odd level 1 -> f-level 1
    assert full.local_entry(5) == (OrderKind.M, 1)
    mixed = descs[(2,)]
    assert mixed.local_entry(3) == (OrderKind.J, 1)  # odd level 1 -> g-level 1
    assert q.local_entry(2) == (OrderKind.D, 2)
    assert q.local_entry(5) == (OrderKind.M, 1)
    assert GroupDescriptor.principal(12).local_entry(2) == (OrderKind.M, 2)
    assert GroupDescriptor.principal(12).principal_level() == 12
    assert mixed.principal_level() is None


def test_c_factors():
    assert c_factor(GroupDescriptor.principal(1)) == Fraction(1, 2)
    assert c_factor(GroupDescriptor.principal(2)) == Fraction(1, 2)
    assert c_factor(GroupDescriptor.principal(3)) == 1
    assert c_factor(GroupDescriptor.principal(4)) == 1
    data = RamifiedLevelData((2, 3))
    assert c_factor(relation_terms(data)[1]) == Fraction(1, 2)
    data2 = RamifiedLevelData((2, 3), ((2, 2),))
    assert c_factor(relation_terms(data2)[1]) == Fraction(1, 2)
    data3 = RamifiedLevelData((2, 3), ((2, 3),))
    assert c_factor(relation_terms(data3)[1]) == 1


def test_local_factor_tail_is_one():
    # level 0 at primes away from the discriminant support contributes 1
    for t in (3, 5, 7, -9, 12):
        for p in (7, 11, 13, 17):
            if (t * t - 4) % p == 0:
                continue
            assert local_factor(OrderKind.M, 0, local_type(t, p)) == 1


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
        assert rep.identity_ok
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
    assert local_product(relation_terms(data)[1], 11) == 0


def test_psi_relation_report():
    data = RamifiedLevelData((2, 3))
    rep = psi_relation(data, 800)
    assert rep.coefficient_sum == 1
    total = 0.0
    for term in rep.terms:
        total += float(term.coefficient) * term.value
    assert total == rep.psi_quaternion
    assert rep.bound_7_10 == 800 ** 0.7
    assert "defined through" in rep.note
    # the all-matrix term is the level-1 principal group here
    modes = {t.subset: (t.mode, t.value) for t in rep.terms}
    assert modes[(2, 3)][0] == "enumerated"
    assert abs(modes[(2, 3)][1] - psi_enumerated(1, 800)) < 1e-9


def test_dpsi_value_modes():
    assert dpsi_value(GroupDescriptor.principal(2), 6)[1] == "enumerated"
    assert dpsi_value(GroupDescriptor.principal(7), 9)[1] == "enumerated"
    # every principal group is enumerated: at N = 102, gamma = 1 mod N fails at once
    assert dpsi_value(GroupDescriptor.principal(102), 9) == (0.0, "enumerated")


def test_local_factor_examples():
    # conductor-0 full-level factor is 1; a level-1 factor vanishes exactly
    # when the generator misses U^1; split Iwahori level 0 is the g_0 value
    assert local_factor(OrderKind.M, 0, local_type(3, 7)) == 1
    assert local_factor(OrderKind.M, 1, local_type(3, 5)) == 0
    from geomatch.integrals import TestFunctionSpec, orbital
    from geomatch.padic import classify_torus, torus_generator
    tor = classify_torus(3, 11)
    x = torus_generator(tor, 3)
    assert local_factor(OrderKind.J, 0, local_type(3, 11)) == \
        orbital(TestFunctionSpec(OrderKind.J, 0, True), x) == 2


def test_relation_all_terms_vanish():
    # with a positive level at 2 every subset needs the generator in U^1
    # there, so an odd trace kills all four terms and the quaternion side
    data = RamifiedLevelData((2, 3), ((2, 2),))
    rep = dpsi_relation(data, 5)
    assert all(t.value == 0.0 for t in rep.terms)
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
    co = _coefficients(data)
    assert co[()] == 6 and co[(2, 3)] == 2
    assert c_factor(relation_terms(data)[1]) == 1
    for t in (34, -34, 5, 74, 14, -14):
        rep = dpsi_relation(data, t)
        assert rep.exact_identity_ok and rep.matching_identity_ok, t
        assert {tt.subset: tt.mode for tt in rep.terms}[(2, 3)] == "enumerated"
    assert dpsi_relation(data, 34).dpsi_quaternion == 0.0
    assert dpsi_relation(data, -34).dpsi_quaternion > 0


def test_relation_agrees_with_direct_quaternion_prediction():
    # the identity side, sum_I coeff_I c_I dpsi_I / c_D over the subset
    # decomposition, equals dpsi_D, the direct prediction through the
    # quaternion-side local product and the global constant
    for data in (RamifiedLevelData((2, 3)),
                 RamifiedLevelData((2, 3), ((2, 1), (3, 1))),
                 RamifiedLevelData((2, 5), ((5, 2),))):
        terms, qdesc = relation_terms(data)
        for t in (3, -3, 5, 7, 12, 14, -14, 34, -34):
            rep = dpsi_relation(data, t)
            rel = 0.0
            for (_, coeff, desc), term in zip(terms, rep.terms):
                rel += float(coeff) * float(c_factor(desc)) * term.value
            rel /= float(c_factor(qdesc))
            direct = predict_dpsi(qdesc, t)
            assert rep.dpsi_quaternion == direct, (data.ram, t)
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


def test_predict_matches_enumeration_at_principal_levels():
    # Gamma(N) for 7 <= N <= 120 and N = 1000, 10^6: exact zeros agree at
    # |t| <= 12, and the nonzero values, at t = 2 mod N^2 (gamma = 1 mod N
    # forces it), agree to 1e-9 for |t| <= 800; above N = 28 no such trace is
    # in range, and above N = 56 none is below MAX_TRACE, so both sides are 0
    nonzero = 0
    for N in (*range(7, 121), 1000, 10 ** 6):
        desc = GroupDescriptor.principal(N)
        traces = {s * a for a in range(3, 13) for s in (1, -1)}
        traces.update(t for t in range(2 - 800 // (N * N) * N * N, 801, N * N) if abs(t) > 2)
        for t in sorted(traces, key=abs):
            pred = predict_dpsi(desc, t)
            enum = dpsi_enumerated(N, t)
            assert (pred == 0.0) == (enum == 0.0), (N, t)
            if N > 56:
                assert pred == enum == 0.0, (N, t)
            if enum:
                nonzero += 1
                assert abs(pred - enum) <= 1e-9 * enum, (N, t, pred, enum)
    assert nonzero == 170


def _contains_minus_one_explicitly(kind, n, p):
    """Whether -1 lies in U^n, by congruence membership of an explicit -1."""
    from geomatch.orders import DivElt, MatElt, congruence_subgroup_membership
    from geomatch.padic import PAdicContext
    ctx = PAdicContext(p, n + 4)
    if kind is OrderKind.D:
        neg = DivElt(ctx, -1 % ctx.modulus, 0, 0, 0)
    else:
        neg = MatElt.from_rows(ctx, ((-1, 0), (0, -1)))
    return congruence_subgroup_membership(kind, neg, n)


def test_minus_one_rule_matches_explicit_membership():
    from geomatch.orders import contains_minus_one
    for p in (2, 3, 5, 7, 11, 13):
        for kind in OrderKind:
            for n in range(40):
                assert contains_minus_one(kind, n, p) == \
                    _contains_minus_one_explicitly(kind, n, p), (p, kind, n)


def test_geodesic_c_factor_matches_group_membership():
    # the staircase against the definition: -1 lies in Gamma(N) exactly when
    # -1 = 1 mod N, that is when N divides 2
    for N in range(1, 200):
        assert (c_factor(GroupDescriptor.principal(N)) == Fraction(1, 2)) == (2 % N == 0), N


def test_factor_support_is_primes_of_discriminant_plus_descriptor():
    data = RamifiedLevelData((2, 3), ())
    descs = [desc for _, _, desc in relation_terms(data)[0]]
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


@pytest.mark.parametrize("data", [RamifiedLevelData((2, 3)),
                                  RamifiedLevelData((2, 3), ((2, 1), (3, 1))),
                                  RamifiedLevelData((2, 5), ((5, 2),))])
def test_psi_relation_per_trace_matches_dpsi_relation(data):
    rep = psi_relation(data, 2000)
    assert len(rep.per_trace) == 2 * (trace_bound(2000) - 2)
    for t, vals, dq in rep.per_trace:
        one = dpsi_relation(data, t)
        assert vals == tuple(term.value for term in one.terms), t
        assert dq == one.dpsi_quaternion, t
        assert [term.subset for term in one.terms] == [term.subset for term in rep.terms]


def _at_canonical_element(value, level, t, p):
    """value(x) at a fresh canonical trace-t element, retried as local factors are."""
    from geomatch.padic import (PrecisionExhausted, classify_torus, default_precision,
                                torus_generator)
    M = default_precision(t, p) + level
    for _ in range(6):
        try:
            return value(torus_generator(classify_torus(t, p, M), t))
        except PrecisionExhausted:
            M *= 2
    raise PrecisionExhausted(f"factor at p={p}, t={t} needs more than M={M}")


def _matched_at_canonical_element(level, t, p):
    """matched_value at the canonical trace-t element."""
    from geomatch.integrals import matched_value
    return _at_canonical_element(
        lambda x: matched_value(level, x, include_norm_index=True), level, t, p)


def test_matched_local_factor_equals_matched_value_and_division_factor():
    # the matched factor is read off the local type; it must equal the
    # matched combination evaluated at its own canonical element,
    # and the division-side factor (the matching identity at that element)
    for p in (2, 3, 5, 7):
        for n in range(5):
            for at in range(3, 61):
                for t in (at, -at):
                    got = matched_local_factor(n, local_type(t, p))
                    assert got == _matched_at_canonical_element(n, t, p), (p, n, t)
                    assert got == local_factor(OrderKind.D, n, local_type(t, p)), (p, n, t)


def _ratio_descriptors():
    descs = [GroupDescriptor.principal(N) for N in range(1, 13)]
    for data in (RamifiedLevelData((2, 3)), RamifiedLevelData((2, 3), ((2, 1),)),
                 RamifiedLevelData((2, 3), ((2, 1), (3, 1))),
                 RamifiedLevelData((2, 11), ((2, 3),)),
                 RamifiedLevelData((3, 5, 7, 11))):
        terms, qdesc = relation_terms(data)
        descs.extend(desc for _, _, desc in terms)
        descs.append(qdesc)
    return descs


def test_predict_is_gamma1_times_ratio_over_own_primes():
    # local_product(Gamma(1)) times the ratio over the descriptor's primes is
    # the full local product exactly, and the prediction stays within 1e-14
    # of dividing the full products: 0.5 dpsi_1 / P_1 * P_desc / c
    gamma1 = GroupDescriptor.principal(1)
    for desc in _ratio_descriptors():
        c = c_factor(desc)
        for at in range(3, 141):
            for t in (at, -at):
                ratio = Fraction(1)
                for p, kind, level in desc.entries:
                    lt = local_type(t, p)
                    ratio *= local_factor(kind, level, lt) / local_factor(OrderKind.M, 0, lt)
                prod = local_product(desc, t)
                assert local_product(gamma1, t) * ratio == prod, (desc, t)
                full = 0.0 if prod == 0 else (
                    0.5 * dpsi_enumerated(1, t) / float(local_product(gamma1, t))
                    * float(prod) / float(c))
                pred = predict_dpsi(desc, t)
                assert abs(pred - full) <= 1e-14 * full, (desc, t, pred, full)


@settings(max_examples=200)
@given(p=st.sampled_from([2, 3, 5, 7]), k=st.integers(0, 20),
       u=st.integers(1, 10 ** 4), sign=st.sampled_from([1, -1]),
       level=st.integers(0, 3))
def test_local_factors_at_adversarial_traces(p, k, u, sign, level):
    # t = +-(2 + u p^k) pushes v_p(t^2 - 4) up to k and beyond; every step
    # must finish inside hypothesis' default deadline
    t = sign * (2 + u * p ** k)
    from geomatch.integrals import TestFunctionSpec, orbital
    from geomatch.padic import SPLIT, classify_torus, default_precision, torus_generator
    torus_generator(classify_torus(t, p), t)
    for kind in (OrderKind.M, OrderKind.J, OrderKind.D):
        local_factor(kind, level, local_type(t, p))
    assert matched_local_factor(level, local_type(t, p)) == \
        local_factor(OrderKind.D, level, local_type(t, p))
    # the canonical root may be either root of X^2 - t X + 1: orbital integrals
    # agree at x and at its Galois conjugate
    tor = classify_torus(t, p, default_precision(t, p) + level)
    x = torus_generator(tor, t)
    if tor.kind == SPLIT:
        xbar = tor.element(x.b, x.a)
    else:
        xbar = tor.element(x.alpha + x.beta * tor.T, -x.beta)
    for kind in (OrderKind.M, OrderKind.J, OrderKind.D):
        for norm_index in (False, True):
            spec = TestFunctionSpec(kind, level, norm_index)
            assert orbital(spec, x) == orbital(spec, xbar), (kind, norm_index)


KINDS = (OrderKind.M, OrderKind.J, OrderKind.D)


def _factors_at_own_element(level, t, p):
    """The norm-indexed M, J and D orbitals at a fresh canonical trace-t element."""
    from geomatch.integrals import TestFunctionSpec, orbital
    return _at_canonical_element(
        lambda x: [orbital(TestFunctionSpec(kind, level, True), x) for kind in KINDS],
        level, t, p)


def _assert_type_reads_as_element(lt, x):
    """lt and the element x agree on every question a closed form asks of them.

    val_gap is asked on split tori only and conductor on field tori only;
    in_unit_filtration is asked up to level e n for closed forms of level n <= 6.
    """
    assert (lt.q, lt.e, lt.kind, lt.is_unit()) == (x.q, x.e, x.kind, x.is_unit())
    if lt.kind == SPLIT:
        assert lt.val_gap() == x.val_gap()
    else:
        assert lt.conductor() == x.conductor()
    for n in range(13):
        assert lt.in_unit_filtration(n) == x.in_unit_filtration(n), n


@settings(max_examples=200)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 13]), k=st.integers(0, 20),
       u=st.integers(1, 10 ** 4), sign=st.sampled_from([1, -1]),
       w=st.integers(1, 10 ** 3))
def test_keyed_local_factor_is_the_orbital_at_every_trace_of_its_type(p, k, u, sign, w):
    # t2 agrees with t modulo p^(v(t^2 - 4) + 3), so it has the same valuations
    # and the same square class of the unit part of t^2 - 4: one local type.
    # The type answers each question the closed forms ask as the canonical
    # element of either trace does, and the factor cached for the type must be
    # the orbital at each trace's own element.
    from geomatch.assembly import local_ratio
    from geomatch.padic import classify_torus
    t = sign * (2 + u * p ** k)
    lt = local_type(t, p)
    t2 = t + sign * w * p ** (lt.v_minus + lt.v_plus + 3)
    assert local_type(t2, p) == lt and hash(local_type(t2, p)) == hash(lt)
    assert lt.torus == classify_torus(t, p).kind
    for trace in (t, t2):
        _at_canonical_element(lambda x: _assert_type_reads_as_element(lt, x), 6, trace, p)
    own = [_factors_at_own_element(level, t, p) for level in range(5)]
    assert own == [_factors_at_own_element(level, t2, p) for level in range(5)]
    for first, second in ((t, t2), (t2, t)):
        local_factor.cache_clear()
        local_ratio.cache_clear()
        for trace in (first, second):
            keyed = [[local_factor(kind, level, local_type(trace, p)) for kind in KINDS]
                     for level in range(5)]
            assert keyed == own, (first, trace)


# the relation shapes of the CI workflow at x = 400, or at their CI x where that
# is smaller: the 14-prime table at x = 400 takes about 11 s
CI_RELATIONS = (
    ((2, 3), (), 400),
    ((2, 3, 5, 7), ((2, 1), (3, 1)), 400),
    ((2, 3, 5, 7, 11, 13), ((2, 2), (3, 1), (5, 1)), 400),
    ((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43), (), 100),
    ((2, 3), ((2, MAX_EXPONENT),), 100),
    ((2, 11), ((2, 3),), 400),
)


# 2-adic traces for factors at level MAX_EXPONENT = 1000: v(t - 2) or v(t + 2)
# = 60, and one trace of each torus kind with v(t - 2) near 2 * 1000, where
# in_unit_filtration is asked up to n = 2000
EDGE_TRACES = (2 + 2 ** 60, -2 - 2 ** 60, 2 + 2 ** 2000, 2 + 5 * 2 ** 2000, 2 + 2 ** 1999)


def test_global_path_builds_no_p_adic_element(monkeypatch):
    # local factors are read off the local type and c-factors off the
    # staircase: with every binding of classify_torus and torus_generator
    # refusing, and no PAdicContext constructible, relations and the level-1000
    # factors at EDGE_TRACES still finish, nothing can run out of precision,
    # and those factors are the orbitals at each trace's own element, taken
    # before the bindings refuse
    import sys
    from geomatch import padic
    from geomatch.assembly import local_ratio

    own = {t: _factors_at_own_element(MAX_EXPONENT, t, 2) for t in EDGE_TRACES}
    assert {local_type(t, 2).torus for t in EDGE_TRACES} == \
        {SPLIT, padic.UNRAMIFIED, padic.RAMIFIED}
    def refuse(*args, **kwargs):
        raise AssertionError("a p-adic element was built on the global path")

    originals = {padic.classify_torus, padic.torus_generator}
    for name, mod in list(sys.modules.items()):
        if name == "geomatch" or name.startswith("geomatch."):
            for attr, val in list(vars(mod).items()):
                if any(val is orig for orig in originals):
                    monkeypatch.setattr(mod, attr, refuse)
    monkeypatch.setattr(padic.PAdicContext, "__post_init__", refuse)
    for cache in (local_factor, local_ratio, local_type, c_factor):
        cache.cache_clear()
    for ram, exps, x in CI_RELATIONS:
        psi_relation(RamifiedLevelData(ram, exps), x)
    for t in EDGE_TRACES:
        assert [local_factor(kind, MAX_EXPONENT, local_type(t, 2)) for kind in KINDS] \
            == own[t], t


def test_keyed_local_factors_agree_with_own_elements_over_a_trace_grid():
    # with the cache warm across the whole grid, every trace reads the factor
    # cached for its type, mostly built at another trace of that type
    for p in (2, 3, 5, 7, 11, 13):
        traces = {s * a for a in range(3, 121) for s in (1, -1)}
        traces.update(s * (2 + u * p ** k) for s in (1, -1)
                      for u in range(1, 5) for k in range(1, 13))
        for t in sorted(traces, key=abs):
            lt = local_type(t, p)
            for level in range(5):
                keyed = [local_factor(kind, level, lt) for kind in KINDS]
                assert keyed == _factors_at_own_element(level, t, p), (p, t, level)


# the relation benchmark's pool: (ramified primes, exponents), all at x = 2e4
RELATION_POOL = (
    ((2, 3), ()), ((2, 3), ((2, 1),)), ((2, 3), ((3, 1),)), ((2, 3), ((2, 1), (3, 1))),
    ((2, 3), ((2, 2),)), ((2, 11), ((2, 3),)), ((2, 5), ((5, 1),)), ((3, 7), ((3, 1),)),
    ((3, 13), ((3, 2),)), ((5, 7), ()), ((2, 3, 5, 7), ((2, 1), (3, 1))),
    ((3, 5, 7, 11), ()),
)


def test_relation_pool_builds_one_local_factor_per_local_type():
    # a cold sweep computes each (kind, level, local type) factor once, and
    # only the ones predict_dpsi reads for the predicted Eichler terms and
    # the quaternion descriptor: at each trace, the descriptor's own primes
    # in order, up to the first vanishing factor
    from geomatch.assembly import local_ratio
    from geomatch.geodesics import signed_traces
    local_factor.cache_clear()
    local_ratio.cache_clear()
    datas = [RamifiedLevelData(ram, exps) for ram, exps in RELATION_POOL]
    for data in datas:
        psi_relation(data, 2e4)
    misses = local_factor.cache_info().misses
    needed = set()
    for data in datas:
        terms, qdesc = relation_terms(data)
        for desc in (*(desc for _, _, desc in terms), qdesc):
            if desc.principal_level() is not None:
                continue
            for t in signed_traces(3, trace_bound(2e4)):
                for p, kind, level in desc.entries:
                    lt = local_type(t, p)
                    needed.update({(kind, level, lt), (OrderKind.M, 0, lt)})
                    if local_factor(kind, level, lt) == 0:
                        break
    assert local_factor.cache_info().misses == misses  # the walk needed nothing new
    assert misses == len(needed)


@pytest.mark.parametrize("ram, exps, x", [(ram, exps, 2e4) for ram, exps in RELATION_POOL]
                         + list(CI_RELATIONS))
def test_quaternion_side_is_its_own_prediction(ram, exps, x):
    # dpsi_D is the quaternion descriptor's predicted value: never negative,
    # exactly 0.0 where its local product vanishes, never a rounding residue
    # of the signed Eichler sum, and the identity holds at every trace
    data = RamifiedLevelData(ram, exps)
    qdesc = relation_terms(data)[1]
    rep = psi_relation(data, x)
    assert rep.identity_violation is None
    for t, _, dq in rep.per_trace:
        assert dq >= 0.0, t
        assert (dq == 0.0) == (local_product(qdesc, t) == 0), t
