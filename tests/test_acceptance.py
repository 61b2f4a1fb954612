"""Acceptance criteria, one test per criterion, each printing a pass line.

Tolerances are pinned here: exact rational equality wherever the contract is
exact, relative 1e-9 for the cross-pipeline comparison, and the stated
envelopes for the counting-function checks.
"""


import random
import time
from fractions import Fraction



from geomatch.assembly import (
    GroupDescriptor,
    RamifiedLevelData,
    predict_dpsi,
    psi_relation,
    relation_terms,
)
from geomatch.cli import main
from geomatch.geodesics import (
    dpsi_enumerated,
    pi_enumerated,
    psi_enumerated,
    spectrum_rows,
)
from geomatch.integrals import (
    TestFunctionSpec,
    matched_value,
    matching_combination,
    orbital,
    verify_matching,
)
from geomatch.oracle import (
    coset_coverage_nonsplit,
    coset_coverage_split,
    enum_norm_image,
    enum_order_unit_index,
    enum_quad_index_pair,
    radical_intersection_test,
)
from geomatch.orders import OrderKind, norm_image_level, order_unit_index
from geomatch.padic import (
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

from test_geodesics import _reference_gamma_splitting, _reference_sl2_classes

FIRST_TEN_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def _field_tori(p, M):
    tori = [unramified_torus(p, M), ramified_torus(p, M)]
    if p == 2:
        tori.append(ramified_torus_2nonsplit(M))
    return tori


def test_criterion_1_coefficient_identity():
    t0 = time.time()
    for q in FIRST_TEN_PRIMES:
        for n in range(0, 9):
            combo = matching_combination(q, n)
            assert combo.coeff_f + combo.coeff_g == 1
    rng = random.Random(1)
    primes = [2, 3, 5, 7, 11, 13, 17]
    for _ in range(20):
        size = rng.choice([2, 4])
        ram = tuple(rng.sample(primes, size))
        exps = tuple((p, rng.randrange(0, 6)) for p in ram)
        terms, _ = relation_terms(RamifiedLevelData(ram, exps))
        assert sum(coeff for _, coeff, _ in terms) == 1
    dt = time.time() - t0
    assert dt < 1.0
    _report(1, f"a+b=1 for n<=8 over the first 10 primes and 20 random "
               f"subset-coefficient sums are exactly 1 ({dt:.2f}s)")


def test_criterion_2_split_vanishing():
    t0 = time.time()
    checked = 0
    for q in (2, 3, 5):
        tor = split_torus(q, 13)
        units = {1, q - 1, max(2 % q, 1)}
        for n in range(0, 7):
            for i in range(0, 5):
                for u in units:
                    a = (1 + u * q ** i) % tor.ctx.modulus
                    if a % q == 0:
                        continue
                    x = tor.element(a, 1)
                    rep = verify_matching(n, x)
                    assert rep.lhs == 0 == rep.rhs, (q, n, i, u)
                    checked += 1
    dt = time.time() - t0
    assert dt < 5.0
    _report(2, f"exact split vanishing at {checked} grid points ({dt:.2f}s)")


def test_criterion_3_field_matching():
    t0 = time.time()
    checked = 0
    for p in (2, 3):
        for tor in _field_tori(p, 14):
            e = tor.e
            for n in range(0, 7):
                for i in range(0, 5):
                    for j in range(0, 5):
                        x = tor.element(1 + p ** i, p ** j)
                        rep = verify_matching(n, x)
                        assert rep.equal, (p, tor.kind, n, i, j)
                        checked += 1
            # proof values at even levels: (2/e) q^(4n) (1 - q^-2) 1_{U^{en}}
            for n in (1, 2, 3):
                for i in range(0, 4):
                    for j in range(0, 4):
                        x = tor.element(1 + p ** i, p ** j)
                        got = matched_value(2 * n, x)
                        want = (Fraction(2, e) * p ** (4 * n)
                                * (1 - Fraction(1, p * p))
                                if x.in_unit_filtration(e * n) else Fraction(0))
                        assert got == want, (p, tor.kind, n, i, j)
                        checked += 1
    dt = time.time() - t0
    assert dt < 10.0
    _report(3, f"exact field matching incl. even-level proof values at "
               f"{checked} points ({dt:.2f}s)")


def test_criterion_4_oracle_agreement():
    t0 = time.time()
    from geomatch.oracle import oracle_orbital
    checked = 0
    for p in (2, 3):
        tori = [split_torus(p, 12)] + _field_tori(p, 12)
        for tor in tori:
            for kind in OrderKind:
                for n in range(0, 4):
                    for flag in (False, True):
                        spec = TestFunctionSpec(kind, n, flag)
                        for i in range(0, 4):
                            for j in range(0, 4):
                                if tor.kind == SPLIT:
                                    if j:
                                        continue
                                    a = (1 + p ** i) % tor.ctx.modulus
                                    if a % p == 0:
                                        continue
                                    x = tor.element(a, 1)
                                else:
                                    x = tor.element(1 + p ** i, p ** j)
                                assert orbital(spec, x) == \
                                    oracle_orbital(spec, x), \
                                    (p, tor.kind, kind, n, flag, i, j)
                                checked += 1
    # coverage at 1e5 samples, both configurations, all four decompositions
    cov_summary = []
    for (p, M) in ((2, 3), (3, 2)):
        for kind in (OrderKind.M, OrderKind.J):
            rep = coset_coverage_split(kind, p, M, 100000, seed=2024)
            assert rep.ok, rep.violations[:3]
            assert len(rep.r_histogram) >= 2
            cov_summary.append(f"split-{kind.value}@{p}:{sum(rep.r_histogram.values())}")
        for kind in (OrderKind.M, OrderKind.J):
            for torus_kind in (UNRAMIFIED, RAMIFIED):
                rep = coset_coverage_nonsplit(kind, torus_kind, p, M, 100000, seed=2024)
                assert rep.ok, rep.violations[:3]
                assert rep.deep_witness_checked == 300
                cov_summary.append(
                    f"nonsplit-{kind.value}/{torus_kind[:3]}@{p}:"
                    f"{sum(rep.r_histogram.values())}")
    # radical intersection: all four branches
    branches = 0
    for p in (2, 3):
        for tor in (unramified_torus(p, 14), ramified_torus(p, 14)):
            for kind in (OrderKind.M, OrderKind.J):
                for r in range(0, 3):
                    if kind is OrderKind.J and r == 0 and tor.kind == UNRAMIFIED:
                        continue
                    for n in range(0, 4):
                        assert radical_intersection_test(kind, tor, r, n)["ok"]
                        branches += 1
    dt = time.time() - t0
    assert dt < 300.0
    _report(4, f"oracle = closed form at {checked} points; coverage clean at "
               f"10^5 samples x {len(cov_summary)} runs; {branches} "
               f"intersection branches ({dt:.1f}s)")


def test_criterion_5_index_formulas():
    t0 = time.time()
    for p in (2, 3):
        for kind in OrderKind:
            for n in range(1, 5):
                assert enum_order_unit_index(kind, p, n) == \
                    order_unit_index(kind, n, p), (kind, p, n)
                levels, idx = enum_norm_image(kind, p, n)
                assert norm_image_level(kind, n) in levels
                assert idx == unit_filtration_index(p, norm_image_level(kind, n))
        for kind_name, e in ((UNRAMIFIED, 1), (RAMIFIED, 2)):
            for k in range(0, 3):
                for r in range(1, 3):
                    assert enum_quad_index_pair(kind_name, p, k, r) == \
                        quad_order_unit_index(k, r, e, p)
    dt = time.time() - t0
    assert dt < 60.0
    _report(5, f"unit indices, norm images and quadratic-order indices "
               f"reproduced by exhaustive enumeration ({dt:.1f}s)")


def test_criterion_6_adelic_cross_check():
    t0 = time.time()
    worst = 0.0
    zeros = 0
    for N in (1, 2, 3):
        desc = GroupDescriptor.principal(N)
        for at in range(3, 21):
            for t in (at, -at):
                pred = predict_dpsi(desc, t)
                enum = dpsi_enumerated(N, t)
                if enum == 0.0 or pred == 0.0:
                    assert enum == 0.0 and pred == 0.0, (N, t, pred, enum)
                    zeros += 1
                    continue
                rel = abs(pred - enum) / abs(enum)
                worst = max(worst, rel)
                assert rel <= 1e-9, (N, t, pred, enum)
    dt = time.time() - t0
    assert dt < 120.0
    _report(6, f"dpsi predicted = enumerated for N in {{1,2,3}}, |t| <= 20 "
               f"(worst rel err {worst:.2e}, {zeros} coherent vanishings, "
               f"{dt:.1f}s)")


def test_criterion_7_pgt_envelope():
    t0 = time.time()
    for x in (10 ** 3, 10 ** 4):
        psi = psi_enumerated(1, x)
        assert 0.8 <= psi / x <= 1.2, (x, psi)
        assert abs(psi - x) <= 5 * x ** 0.75, (x, psi)
        rows = spectrum_rows(1, x)
        assert sum(r.contribution for r in rows) == psi
    # pi jumps exactly at the class norms
    norms = {}
    for at in range(3, 10):
        for t in (at, -at):
            for cls in _reference_sl2_classes(t):
                cnt, mstar = _reference_gamma_splitting(cls, 1)
                if cls.power == mstar:
                    nf = float(2 * mstar * cls.log_x0())
                    key = round(nf, 9)
                    norms[key] = norms.get(key, 0) + cnt
    import math
    for key in sorted(norms)[:8]:
        xval = math.exp(key)
        below = pi_enumerated(1, xval * (1 - 1e-9))
        above = pi_enumerated(1, xval * (1 + 1e-9))
        assert above - below == norms[key] // 2, (key, below, above, norms[key])
    pis = [pi_enumerated(1, x) for x in (10, 100, 1000)]
    assert pis == sorted(pis)
    dt = time.time() - t0
    assert dt < 120.0
    _report(7, f"psi(10^3)/10^3 = {psi_enumerated(1, 1000)/1000:.3f}, "
               f"psi(10^4)/10^4 = {psi_enumerated(1, 10000)/10000:.3f}, "
               f"pi jumps at norms, psi = row sum ({dt:.1f}s)")


def test_criterion_8_global_relation_report():
    t0 = time.time()
    data = RamifiedLevelData((2, 3))
    rep = psi_relation(data, 5000)
    total = 0.0
    for term in rep.terms:
        total += float(term.coefficient) * term.value
    assert total == rep.psi_quaternion
    assert rep.coefficient_sum == 1
    modes = {t.subset: (t.mode, t.value) for t in rep.terms}
    assert modes[(2, 3)][0] == "enumerated"
    direct = psi_enumerated(1, 5000)
    assert abs(modes[(2, 3)][1] - direct) <= 1e-9 * direct
    assert "defined through" in rep.note
    dt = time.time() - t0
    assert dt < 120.0
    _report(8, f"relation report at x=5000: psi_D={rep.psi_quaternion:.2f}, "
               f"terms sum exactly, coefficients sum to 1, all-matrix term "
               f"matches enumeration, scope disclosed ({dt:.1f}s)")


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    outputs = []
    for run in (0, 1):
        files = []
        for name, argv in (
            ("cov", ["coverage", "--decomposition", "nonsplit-J", "--p", "2",
                     "--M", "3", "--samples", "2000", "--seed", "42",
                     "--torus", "ramified-field"]),
            ("rel", ["relation", "--ramified", "2,3", "--x-max", "400"]),
            ("spec", ["spectrum", "--level", "2", "--x-max", "800",
                      "--x-count", "5", "--format", "csv"]),
            ("loc", ["verify-local", "--p", "3", "--n-max", "1", "--M", "9"]),
        ):
            path = tmp_path / f"{name}_{run}.out"
            assert main(argv + ["--out", str(path)]) == 0
            files.append(path.read_bytes())
        outputs.append(files)
    for a, b in zip(*outputs):
        assert a == b
    dt = time.time() - t0
    _report(9, f"two seeded runs of coverage, relation, spectrum and "
               f"verify-local are byte-identical ({dt:.1f}s)")
