import json
import random
from array import array
from fractions import Fraction
from unittest import mock

import pytest

from geomatch import oracle, orders
from geomatch.cli import main
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
from geomatch.orders import (
    MatElt,
    MatrixEmbedding,
    OrderKind,
    division_embedding,
    exact_radical_level,
    in_normalizer,
    norm_image_level,
    order_unit_index,
    scaled_order_level,
)
from geomatch.padic import (
    EnumerationTooLarge,
    PAdicContext,
    PrecisionExhausted,
    RAMIFIED,
    SPLIT,
    UNRAMIFIED,
    integer_valuation,
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
                levels, idx = enum_norm_image(kind, p, n)
                assert norm_image_level(kind, n) in levels
                assert idx == unit_filtration_index(p, norm_image_level(kind, n))


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
    for p in (2, 3, 5, 7):
        for M in (3, 4, 5, 6, 8, 12, 16):
            assert iwahori_level_zero_missing(unramified_torus(p, M)), (p, M)


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
    rep = coset_coverage_nonsplit(OrderKind.M, UNRAMIFIED, 2, 3, 300, seed=3)
    assert rep.ok and rep.deep_witness_checked == 300
    rep = coset_coverage_nonsplit(OrderKind.J, RAMIFIED, 3, 2, 300, seed=3)
    assert rep.ok and 0 in rep.r_histogram  # ramified tori do reach level 0


def test_coverage_rejects_samples_above_cap():
    # checked before the sample stream is drawn, so it fails at once
    with pytest.raises(EnumerationTooLarge):
        coset_coverage_split(OrderKind.M, 2, 3, oracle.ENUM_CAP + 1)
    with pytest.raises(EnumerationTooLarge):
        coset_coverage_nonsplit(OrderKind.J, UNRAMIFIED, 3, 2, oracle.ENUM_CAP + 1)
    # the split disjointness pass scans 1 006 943 axis points at M = 56, over 2^20 at 57
    oracle.check_coverage_size(56, 1)
    with pytest.raises(EnumerationTooLarge):
        coset_coverage_split(OrderKind.J, 3, 57, 1)


def test_coverage_rejects_precision_below_two():
    # no determinant has 1 <= v(det) <= M - 1 when M < 2, so sampling cannot
    # end; a run that draws no sample certifies nothing
    for M, samples in ((0, 10), (1, 10), (2, 0), (3, -5)):
        with pytest.raises(ValueError):
            coset_coverage_split(OrderKind.M, 2, M, samples)
        with pytest.raises(ValueError):
            coset_coverage_nonsplit(OrderKind.J, UNRAMIFIED, 3, M, samples)


def _fresh_sample(rng, p, M, work, unit_det):
    """One draw of the coverage stream, as the per-sample loop drew it."""
    mod = p ** M
    while True:
        a, b, c, d = (rng.randrange(mod) for _ in range(4))
        det = (a * d - b * c) % p ** max(M, 4)
        if unit_det:
            if det % p:
                return MatElt.from_rows(work, ((a, b), (c, d)))
        elif det and det % p == 0 and integer_valuation(det, p) < M:
            return MatElt.from_rows(work, ((a, b), (c, d)))


def _reference_conj_by(x, g):
    """g^-1 x g, with g^-1 a MatElt built from the adjugate, as first written."""
    ctx, a, b, c, d, den = g
    m = ctx.modulus
    det = (a * d - b * c) % m
    if det == 0:
        raise PrecisionExhausted("determinant vanished at precision")
    vdet = ctx.val(det)
    ui = ctx.inv(det // ctx.p ** vdet)
    shift = vdet - den
    if shift < 0:  # clear the denominator into the scalar
        ui = ui * ctx.p ** -shift % m
        shift = 0
    return MatElt(ctx, d * ui % m, -b * ui % m, -c * ui % m, a * ui % m, shift) * x * g


def _reference_guarded_val(ctx, x, big):
    if x % ctx.modulus == 0:
        return big
    return integer_valuation(x % ctx.modulus, ctx.p)


def _reference_split_route(g, kind):
    """Peel a Pi factor (J) or column swap (M) so the clearing op is integral."""
    ctx = g.ctx
    big = 10 * ctx.M
    vc = _reference_guarded_val(ctx, g.e21, big)
    vd = _reference_guarded_val(ctx, g.e22, big)
    if kind is OrderKind.J:
        if vc > vd:
            return g, 0
        return g * MatElt(ctx, 0, 1, ctx.p, 0, den=1), 1  # Pi^-1 = (0 1; p 0) / p
    if vc >= vd:
        return g, 0
    return g * MatElt.from_rows(ctx, ((0, 1), (1, 0))), 1


def _reference_split_classify_witness(g0, kind):
    """The split classifier and witness built from MatElt products, as first written."""
    ctx = g0.ctx
    p, mod = ctx.p, ctx.modulus
    g, side = _reference_split_route(g0, kind)
    den = g.den
    b_int, d_int = g.e12, g.e22
    det_int = g.det_int()
    big = 10 * ctx.M
    vb_i = _reference_guarded_val(ctx, b_int, big)
    vd_i = _reference_guarded_val(ctx, d_int, big)
    vdet_i = _reference_guarded_val(ctx, det_int, big)
    if vd_i >= big or vdet_i >= big:
        return oracle._NO_INVERSE
    vb, vd, vdet = vb_i - den, vd_i - den, vdet_i - 2 * den
    vu = vb + vd - vdet if vb_i < big else big
    r = max(0, -vu)
    det_unit = det_int // p ** vdet_i % mod
    d_unit = d_int // p ** vd_i % mod
    u_unit = 1
    if r >= 1:
        u_unit = (b_int // p ** vb_i) * d_unit % mod * pow(det_unit, -1, mod) % mod
    ia_unit = pow(u_unit * det_unit % mod, -1, mod) * d_unit % mod
    id_unit = pow(d_unit, -1, mod)
    E = max(vdet - vd, vd, 0)
    tau_inv = MatElt.from_rows(ctx, ((p ** (E - (vdet - vd)) * ia_unit, 0),
                                     (0, p ** (E - vd) * id_unit)), den=E)
    n_neg = MatElt.from_rows(ctx, ((p ** r, -1), (0, p ** r)), den=r)
    h = n_neg * tau_inv * g
    try:
        ok = in_normalizer(kind, h)
    except PrecisionExhausted:
        ok = False
    return r, side, ok


def _reference_strip_power(ctx, entries):
    vals = [integer_valuation(e, ctx.p) for e in entries if e]
    if not vals:
        return entries
    k = min(vals)
    return tuple(e // ctx.p ** k for e in entries)


def _reference_intertwiner(work, X, Y):
    """Some nonzero P with X P = P Y: the search over all 25 candidate pairs (v, w)."""
    candidates = ((1, 0), (0, 1), (1, 1), (1, work.p), (work.p, 1))
    best = None
    best_loss = None
    for v in candidates:
        sX = work.p ** X.den
        Tv = MatElt.from_rows(work, ((v[0] * sX, X.e11 * v[0] + X.e12 * v[1]),
                                     (v[1] * sX, X.e21 * v[0] + X.e22 * v[1])))
        dv = Tv.det_int()
        if dv == 0:
            continue
        lv = integer_valuation(dv, work.p)
        for w in candidates:
            sY = work.p ** Y.den
            Tw = MatElt.from_rows(work, ((w[0] * sY, Y.e11 * w[0] + Y.e12 * w[1]),
                                         (w[1] * sY, Y.e21 * w[0] + Y.e22 * w[1])))
            dw = Tw.det_int()
            if dw == 0:
                continue
            loss = lv + integer_valuation(dw, work.p)
            if best_loss is not None and loss >= best_loss:
                continue
            adj = MatElt.from_rows(work, ((Tw.e22, -Tw.e12), (-Tw.e21, Tw.e11)))
            P = Tv * adj  # X P = P Y up to the scalar det(Tw), which commutes
            if all(e == 0 for e in P.entries):
                continue
            se = _reference_strip_power(work, P.entries)
            best = MatElt.from_rows(work, (se[:2], se[2:]))
            best_loss = loss
    return best


def _reference_nonsplit_deep_witness(work, torus, kind, g, r):
    """The conjugating-witness grid scan built from MatElt products, as first written."""
    Y = _reference_conj_by(MatrixEmbedding(torus, OrderKind.M, 0).of_coords(0, 1), g)
    emb = oracle.checked_embedding(torus, kind, r)
    P = _reference_intertwiner(work, emb.of_coords(0, 1), Y)
    if P is None:
        return False
    p = work.p
    for alpha in range(p * p):
        for beta in range(p * p):
            if alpha % p == 0 and beta % p == 0:
                continue
            try:
                if in_normalizer(kind, emb.of_coords(alpha, beta) * P):
                    return True
            except PrecisionExhausted:
                continue
    return False


def _fresh_split(kind, p, M, samples, seed):
    """coset_coverage_split as a loop that draws and classifies every sample afresh."""
    rep = oracle.CoverageReport("split-M" if kind is OrderKind.M else "split-J",
                                p, M, samples, seed)
    work = PAdicContext(p, 6 * (M + 3))
    rng = random.Random(seed)
    r_bound = 2 * M + 2
    for r1 in range(r_bound):
        for r2 in range(r1 + 1, r_bound):
            rep.disjointness_pairs += 1
            if not oracle._coset_disjoint_split(work, kind, r1, r2):
                rep.violations.append({"type": "cosets-intersect", "r1": r1, "r2": r2})
    for idx in range(samples):
        g = _fresh_sample(rng, p, M, work, unit_det=(idx % 2 == 0))
        r, side, ok = _reference_split_classify_witness(g, kind)
        if not ok:
            rep.violations.append({"type": "no-witness", "sample": idx,
                                   "entries": g.entries, "r": r})
            continue
        rep.r_histogram[r] = rep.r_histogram.get(r, 0) + 1
        rep.odd_component_hits += side
        rep.deep_witness_checked += 1
    return rep


def _fresh_nonsplit(kind, torus_kind, p, M, samples, seed):
    """coset_coverage_nonsplit as a loop that draws and classifies every sample afresh."""
    rep = oracle.CoverageReport(f"nonsplit-{kind.value}", p, M, samples, seed)
    work = PAdicContext(p, 6 * (M + 3))
    torus = oracle._canonical_torus(torus_kind, p, work.M)
    rng = random.Random(seed)
    theta = MatrixEmbedding(torus, OrderKind.M, 0).of_coords(0, 1)
    bound = 2 * M + 4
    for idx in range(samples):
        g = _fresh_sample(rng, p, M, work, unit_det=(idx % 2 == 0))
        try:
            Y = _reference_conj_by(theta, g)
        except PrecisionExhausted:
            rep.violations.append({"type": "no-inverse", "sample": idx})
            continue
        r = next((j for j in range(bound) if oracle.order_membership(
            kind, MatElt(work, *(e * p ** j % work.modulus for e in Y.entries), Y.den))),
            None)
        if r is None:
            rep.violations.append({"type": "no-level", "sample": idx,
                                   "entries": g.entries})
            continue
        if kind is OrderKind.J and torus.kind == UNRAMIFIED and r == 0:
            rep.violations.append({"type": "level-0-iwahori", "sample": idx,
                                   "entries": g.entries})
            continue
        rep.r_histogram[r] = rep.r_histogram.get(r, 0) + 1
        if idx < oracle.DEEP_WITNESSES:
            if _reference_nonsplit_deep_witness(work, torus, kind, g, r):
                rep.deep_witness_checked += 1
            else:
                rep.violations.append({"type": "no-witness", "sample": idx,
                                       "entries": g.entries, "r": r})
    return rep


def _four_decompositions(coverage_split, coverage_nonsplit, torus_kind, p, M,
                         samples, seed):
    return [coverage_split(kind, p, M, samples, seed).to_dict()
            for kind in (OrderKind.M, OrderKind.J)] + \
        [coverage_nonsplit(kind, torus_kind, p, M, samples, seed).to_dict()
         for kind in (OrderKind.M, OrderKind.J)]


@pytest.mark.parametrize("memo", [True, False])
@pytest.mark.parametrize("p, M, samples", [(2, 2, 300), (2, 3, 300), (3, 2, 300),
                                           (3, 3, 200), (3, 11, 60)])
def test_coverage_matches_fresh_per_sample_loop(monkeypatch, p, M, samples, memo):
    """The shared stream and the per-matrix memo change no report.

    The reference loop classifies with the MatElt-built references above.
    Checked once with the real classifiers, and once with the same faults
    injected into the kernels and the references: split samples whose e11 is
    divisible by p get no witness, and nonsplit samples whose e12 is
    divisible by p fail the deep witness.  Violations on repeated matrices
    must each be reported with their own sample index.
    """
    monkeypatch.setattr(oracle, "_draws_repeat", lambda p, M, samples: memo)
    seed = 11
    for faulty in (False, True):
        if faulty:
            classify = oracle._split_classify_witness
            deep_witness = oracle._nonsplit_deep_witness
            reference_classify = _reference_split_classify_witness
            reference_deep_witness = _reference_nonsplit_deep_witness

            def reject_split(work, kind, entries):
                r, side, ok = classify(work, kind, entries)
                return r, side, ok and entries[0] % p != 0

            def reject_deep(work, torus, kind, entries, r):
                return entries[1] % p != 0 and deep_witness(work, torus, kind, entries, r)

            def reject_reference_split(g, kind):
                r, side, ok = reference_classify(g, kind)
                return r, side, ok and g.e11 % p != 0

            def reject_reference_deep(work, torus, kind, g, r):
                return g.e12 % p != 0 and reference_deep_witness(work, torus, kind, g, r)

            monkeypatch.setattr(oracle, "_split_classify_witness", reject_split)
            monkeypatch.setattr(oracle, "_nonsplit_deep_witness", reject_deep)
            monkeypatch.setitem(globals(), "_reference_split_classify_witness",
                                reject_reference_split)
            monkeypatch.setitem(globals(), "_reference_nonsplit_deep_witness",
                                reject_reference_deep)
        for torus_kind in (UNRAMIFIED, RAMIFIED):
            got = _four_decompositions(coset_coverage_split, coset_coverage_nonsplit,
                                       torus_kind, p, M, samples, seed)
            want = _four_decompositions(_fresh_split, _fresh_nonsplit,
                                        torus_kind, p, M, samples, seed)
            assert got == want
            if faulty:
                assert all(not rep["ok"] for rep in got)
                if p ** (4 * M) <= samples:  # some violating matrix is drawn twice
                    entries = [tuple(v["entries"]) for v in got[0]["violations"]]
                    assert len(set(entries)) < len(entries)
            else:
                assert all(rep["ok"] for rep in got)


def _membership_tested(fn, *args):
    """(fn(*args), every element fn hands to in_normalizer, in order).

    The kernels read in_normalizer from oracle, the references from this file.
    """
    real, seen = orders.in_normalizer, []

    def record(kind, x):
        seen.append(x)
        return real(kind, x)

    with mock.patch.object(oracle, "in_normalizer", record), \
            mock.patch.dict(globals(), in_normalizer=record):
        return fn(*args), seen


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_coverage_kernels_match_matelt_references(data):
    """The integer kernels agree with the MatElt-built references on any residues.

    Entries are residues mod p^M, each zero, divisible by p or arbitrary; a
    drawn flag makes the rows proportional, so det = 0.  The split outcome,
    g^-1 theta g (or PrecisionExhausted on both sides) and the deep witness
    at the level read off it must agree, and so must every element handed
    to in_normalizer, field by field.
    """
    p = data.draw(st.sampled_from([2, 3]))
    M = data.draw(st.integers(2, 8))
    kind = data.draw(st.sampled_from([OrderKind.M, OrderKind.J]))
    torus_kind = data.draw(st.sampled_from([UNRAMIFIED, RAMIFIED]))
    mod = p ** M
    if data.draw(st.booleans()):
        half = st.integers(0, p ** (M // 2) - 1)
        x, y, u, v = (data.draw(half) for _ in range(4))
        entries = (x * u, x * v, y * u, y * v)
    else:
        entry = st.one_of(st.just(0), st.integers(0, mod // p - 1).map(lambda e: e * p),
                          st.integers(0, mod - 1))
        entries = tuple(data.draw(entry) for _ in range(4))
    work = PAdicContext(p, 6 * (M + 3))
    g = MatElt(work, *entries)
    assert _membership_tested(oracle._split_classify_witness, work, kind, entries) == \
        _membership_tested(_reference_split_classify_witness, g, kind)
    torus = oracle._canonical_torus(torus_kind, p, work.M)
    theta = MatrixEmbedding(torus, OrderKind.M, 0).of_coords(0, 1)
    try:
        Y = _reference_conj_by(theta, g)
    except PrecisionExhausted:
        with pytest.raises(PrecisionExhausted):
            oracle._conjugated(theta, entries)
        return
    assert oracle._conjugated(theta, entries) == Y
    r = scaled_order_level(kind, Y, 2 * M + 4)
    if r is None or (kind is OrderKind.J and torus_kind == UNRAMIFIED and r == 0):
        return
    assert _membership_tested(oracle._nonsplit_deep_witness, work, torus, kind, entries, r) \
        == _membership_tested(_reference_nonsplit_deep_witness, work, torus, kind, g, r)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_intertwiner_matches_pairwise_search(data):
    """_intertwiner picks v and w apart; the 25-pair search gives the same P.

    X is the embedded generator at the level of Y = g^-1 theta g, as in the
    deep witness.  A scalar Y has no cyclic vector, so both give None.
    """
    p = data.draw(st.sampled_from([2, 3]))
    M = data.draw(st.integers(2, 8))
    kind = data.draw(st.sampled_from([OrderKind.M, OrderKind.J]))
    torus_kind = data.draw(st.sampled_from([UNRAMIFIED, RAMIFIED]))
    mod = p ** M
    entries = tuple(data.draw(st.integers(0, mod - 1)) for _ in range(4))
    work = PAdicContext(p, 6 * (M + 3))
    torus = oracle._canonical_torus(torus_kind, p, work.M)
    theta = MatrixEmbedding(torus, OrderKind.M, 0).of_coords(0, 1)
    try:
        Y = _reference_conj_by(theta, MatElt(work, *entries))
    except PrecisionExhausted:
        return
    r = scaled_order_level(kind, Y, 2 * M + 4)
    if r is None or (kind is OrderKind.J and torus_kind == UNRAMIFIED and r == 0):
        return
    X = oracle.checked_embedding(torus, kind, r).of_coords(0, 1)
    if data.draw(st.booleans()):
        s = data.draw(st.integers(0, mod - 1))
        Y = MatElt(work, s, 0, 0, s, data.draw(st.integers(0, 2)))
        assert oracle._intertwiner(work, X, Y) is None
    assert oracle._intertwiner(work, X, Y) == _reference_intertwiner(work, X, Y)


@pytest.mark.parametrize("memo", [True, False])
def test_coverage_reports_singular_sample_as_no_inverse(monkeypatch, memo):
    """A sample singular at the working precision is a no-inverse violation.

    The sampler keeps v(det) < M, so the singular matrix (1, 1, 1, 1) is fed
    in through the sample stream, twice, to all four decompositions; every
    other sample is still classified and witnessed.
    """
    p, M, samples, seed = 3, 2, 40, 5
    monkeypatch.setattr(oracle, "_draws_repeat", lambda p, M, samples: memo)

    def four_decompositions():
        kinds = (OrderKind.M, OrderKind.J)
        return ([coset_coverage_split(kind, p, M, samples, seed) for kind in kinds]
                + [coset_coverage_nonsplit(kind, RAMIFIED, p, M, samples, seed)
                   for kind in kinds])

    clean = four_decompositions()
    fed = list(oracle._coverage_samples(p, M, samples, seed))
    mod = p ** M
    fed[7] = fed[20] = ((mod + 1) * mod + 1) * mod + 1
    monkeypatch.setattr(oracle, "_coverage_samples", lambda *args: fed)
    for ref, got in zip(clean, four_decompositions()):
        assert ref.ok and ref.deep_witness_checked == samples
        assert got.violations == [{"type": "no-inverse", "sample": 7},
                                  {"type": "no-inverse", "sample": 20}], got.decomposition
        assert not got.ok
        assert sum(got.r_histogram.values()) == got.deep_witness_checked == samples - 2
        assert all(got.r_histogram[r] <= ref.r_histogram[r] for r in got.r_histogram)


def test_coverage_stream_packing_at_64_bits():
    # p^(4M) = 2^64 still packs into array('Q'); one digit more needs Python ints
    for p, M, packed in ((2, 16, array), (2, 17, list)):
        oracle._coverage_samples.cache_clear()
        stream = oracle._coverage_samples(p, M, 40, 5)
        assert type(stream) is packed
        rng = random.Random(5)
        mod = p ** M
        ctx = PAdicContext(p, M)
        for idx, key in enumerate(stream):
            a, b, c, d = _fresh_sample(rng, p, M, ctx, unit_det=(idx % 2 == 0)).entries
            assert key == ((a * mod + b) * mod + c) * mod + d


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("M", [2, 3, 4, 16, 17])
def test_coverage_stream_matches_randrange_draws(p, M):
    # the stream is drawn with getrandbits; the reference draws with randrange
    mod = p ** M
    ctx = PAdicContext(p, M)
    for seed in (0, 1, 9):
        oracle._coverage_samples.cache_clear()
        stream = oracle._coverage_samples(p, M, 200, seed)
        rng = random.Random(seed)
        expected = []
        for idx in range(200):
            a, b, c, d = _fresh_sample(rng, p, M, ctx, unit_det=(idx % 2 == 0)).entries
            expected.append(((a * mod + b) * mod + c) * mod + d)
        assert list(stream) == expected


def test_coverage_draws_stream_once(capsys):
    oracle._coverage_samples.cache_clear()
    assert main(["coverage", "--decomposition", "all", "--p", "2", "--M", "2",
                 "--samples", "200", "--seed", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]) == 4
    assert oracle._coverage_samples.cache_info().misses == 1


def _full_scan_disjoint_split(work, kind, r1, r2):
    """The disjointness certificate as a scan of every (i, j) in [0, B]^2."""
    from geomatch.orders import in_normalizer
    p = work.p
    B = max(r1, r2) + 2
    for i in range(0, B + 1):
        for j in range(0, B + 1):
            if min(i, j) != 0:
                continue
            den = max(r2 - i, r1 - j, 0)
            h = MatElt.from_rows(work, ((p ** (i + den), p ** (i + den - r2) - p ** (j + den - r1)),
                                        (0, p ** (j + den))), den=den)
            try:
                if in_normalizer(kind, h):
                    return False
            except PrecisionExhausted:
                continue
    return True


@pytest.mark.parametrize("kind", [OrderKind.M, OrderKind.J])
@pytest.mark.parametrize("p", [2, 3])
def test_coset_disjoint_split_axis_walk_matches_full_scan(kind, p):
    work = PAdicContext(p, 6 * (3 + 3))
    for r1 in range(8):
        for r2 in range(r1 + 1, 8):
            assert oracle._coset_disjoint_split(work, kind, r1, r2) == \
                _full_scan_disjoint_split(work, kind, r1, r2), (r1, r2)


def test_checked_embedding_verifies_each_embedding_once(monkeypatch):
    calls = []
    real = oracle.verify_embedding_optimal
    monkeypatch.setattr(oracle, "verify_embedding_optimal",
                        lambda emb: calls.append(emb) or real(emb))
    oracle.checked_embedding.cache_clear()
    torus = unramified_torus(3, 12)
    first = oracle.checked_embedding(torus, OrderKind.M, 2)
    assert oracle.checked_embedding(torus, OrderKind.M, 2) is first
    assert first == MatrixEmbedding(torus, OrderKind.M, 2)
    assert len(calls) == 1
    oracle.checked_embedding.cache_clear()


def test_oracle_does_its_per_torus_work_once(monkeypatch):
    # the level-0 Iwahori search and the division embedding depend only on the
    # torus, so repeated oracle_orbital calls at one torus build each once
    calls = []
    real = oracle.division_embedding
    monkeypatch.setattr(oracle, "division_embedding",
                        lambda *args: calls.append(args[0]) or real(*args))
    oracle._division_coset.cache_clear()
    oracle.iwahori_level_zero_missing.cache_clear()
    torus = unramified_torus(3, 12)
    for n in range(3):
        for alpha in (1, 4, 10):
            x = torus.element(alpha, 3)
            for kind in (OrderKind.J, OrderKind.D):
                oracle_orbital(TestFunctionSpec(kind, n), x)
    assert calls == [torus]
    assert oracle.iwahori_level_zero_missing.cache_info().misses == 1
    oracle._division_coset.cache_clear()


# ---------------------------------------------------------------------------
# the coset sum's guards and its side factors


def test_oracle_precision_guard_on_split_and_field_tori():
    # r_max + n + GUARD >= M raises: r_max = v(a - b) + 1 (split), v(beta) + 1 (field)
    spec = TestFunctionSpec(OrderKind.M, 1)
    split = split_torus(2, 12)
    oracle_orbital(spec, split.element(1 + 2 ** 7, 1))  # 8 + 1 + 2 < 12
    with pytest.raises(PrecisionExhausted, match="split truncation bound"):
        oracle_orbital(spec, split.element(1 + 2 ** 8, 1))
    field = unramified_torus(3, 12)
    oracle_orbital(spec, field.element(1, 3 ** 7))
    with pytest.raises(PrecisionExhausted, match="field truncation bound"):
        oracle_orbital(spec, field.element(1, 3 ** 8))


@pytest.mark.parametrize("torus, message", [
    (split_torus(2, 12), "split coset sum failed to truncate"),
    (unramified_torus(3, 12), "field coset sum failed to truncate"),
    (ramified_torus(2, 12), "field coset sum failed to truncate"),
])
def test_oracle_truncation_assertion(monkeypatch, torus, message):
    # a U^n hit one past the truncation bound is a fault, not a term
    monkeypatch.setattr(oracle, "congruence_subgroup_membership", lambda *args: True)
    for kind in (OrderKind.M, OrderKind.J):
        with pytest.raises(AssertionError, match=message):
            oracle_orbital(TestFunctionSpec(kind, 1), torus.element(3, 1))


@pytest.mark.parametrize("torus", [unramified_torus(3, 12), ramified_torus(2, 12)])
def test_oracle_division_coset_has_nothing_to_truncate(monkeypatch, torus):
    monkeypatch.setattr(oracle, "congruence_subgroup_membership", lambda *args: True)
    p = torus.ctx.p
    xi = division_embedding(torus).xi
    side = 1 if exact_radical_level(OrderKind.D, xi) % 2 else 2
    for n in (1, 2):
        got = oracle_orbital(TestFunctionSpec(OrderKind.D, n), torus.element(3, 1))
        assert got == side * enum_order_unit_index(OrderKind.D, p, n)


def _reference_iwahori_side_factor(emb):
    """The coordinate-grid scan for the odd component of K_J, as first written."""
    p = emb.torus.ctx.p
    for alpha in range(p * p):
        for beta in range(p * p):
            if alpha % p == 0 and beta % p == 0:
                continue
            try:
                x = emb.of_coords(alpha, beta)
                if in_normalizer(OrderKind.J, x) and \
                        exact_radical_level(OrderKind.J, x) % 2 == 1:
                    return 1
            except PrecisionExhausted:
                continue
    return 2


def _reference_split_side_factor(torus, kind):
    """The diag(p^i, p^j) scan for the odd component of K_J, as first written."""
    if kind is OrderKind.M:
        return 1
    ctx = torus.ctx
    p = ctx.p
    for i in range(4):
        for j in range(4):
            x = MatElt.from_rows(ctx, ((p ** i, 0), (0, p ** j)))
            try:
                if in_normalizer(OrderKind.J, x) and \
                        exact_radical_level(OrderKind.J, x) % 2 == 1:
                    return 1
            except PrecisionExhausted:
                continue
    return 2


@pytest.mark.parametrize("p", [2, 3])
def test_side_factors_share_one_scan(p):
    tori = [unramified_torus(p, 12), ramified_torus(p, 12)]
    if p == 2:
        tori.append(ramified_torus_2nonsplit(12))
    seen = set()
    for torus in tori:
        for level in range(0, 5):
            if level == 0 and torus.kind == UNRAMIFIED:
                continue
            emb = MatrixEmbedding(torus, OrderKind.J, level)
            got = oracle.iwahori_side_factor(emb)
            assert got == _reference_iwahori_side_factor(emb), (torus.kind, level)
            seen.add(got)
    split = split_torus(p, 12)
    for kind in (OrderKind.M, OrderKind.J):
        assert oracle.split_side_factor(split, kind) == \
            _reference_split_side_factor(split, kind)
    assert seen == {1, 2}  # both outcomes of the field scan are reached


def test_oracle_imports_nothing_it_checks():
    # the independence rule: no import in oracle.py, at module or function
    # level, reads the geodesic walk or the global assembly
    import ast
    from pathlib import Path
    tree = ast.parse(Path(oracle.__file__).read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert "orders.congruence_subgroup_membership" in modules
    assert [m for m in modules if {"geodesics", "assembly"} & set(m.split("."))] == []
