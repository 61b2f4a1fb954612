import math

import pytest
from hypothesis import given, settings, strategies as st

from geomatch.geodesics import (
    MAX_TRACE,
    class_count_bruteforce,
    dpsi_enumerated,
    gamma_splitting,
    li,
    pell_fundamental,
    pgt_report,
    pi_enumerated,
    primitive_classes,
    psi_enumerated,
    sl2_classes,
    signed_traces,
    sl2_group_order,
    spectrum_rows,
    trace_bound,
    _cycle,
    _is_reduced,
    _mat_mul,
    _mat_pow,
)
from geomatch.padic import EnumerationTooLarge, NonHyperbolicTrace


def test_pell_examples():
    assert (pell_fundamental(5).u, pell_fundamental(5).v) == (3, 1)
    assert (pell_fundamental(8).u, pell_fundamental(8).v) == (6, 2)
    assert (pell_fundamental(12).u, pell_fundamental(12).v) == (4, 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(5, 2500))
def test_pell_minimality_against_bruteforce(disc):
    if disc % 4 not in (0, 1) or math.isqrt(disc) ** 2 == disc:
        return
    got = pell_fundamental(disc)
    assert got.u * got.u - disc * got.v * got.v == 4
    for v in range(1, min(got.v, 3000)):
        n = 4 + disc * v * v
        u = math.isqrt(n)
        assert u * u != n, (disc, u, v)


def test_pell_large_fundamental_unit():
    # brute force cannot reach these; the continued-fraction route must
    unit = pell_fundamental(1621)  # fundamental solution has ~25 digits
    assert unit.u * unit.u - 1621 * unit.v * unit.v == 4
    assert unit.v > 10 ** 20
    unit = pell_fundamental(9949)  # ~70 digits
    assert unit.u * unit.u - 9949 * unit.v * unit.v == 4
    assert unit.v > 10 ** 60


def test_pell_rejects_squares():
    with pytest.raises(ValueError):
        pell_fundamental(16)


def test_class_counts_match_bruteforce():
    for t in list(range(3, 13)) + [-t for t in range(3, 13)]:
        assert len(sl2_classes(t)) == class_count_bruteforce(t), t


def test_class_count_examples():
    assert len(sl2_classes(3)) == 1
    assert len(sl2_classes(-3)) == 1
    assert sorted((c.content, c.power) for c in sl2_classes(7)) == \
        [(1, 1), (1, 1), (3, 2)]


def test_x0_exactness_and_surd_identity():
    for t in range(3, 21):
        for cls in sl2_classes(t):
            g0 = cls.gamma0
            k = cls.power
            assert _mat_pow(g0, k) == cls.gamma
            # x + 1/x = |t| for the norm surd: verified through the unit pair
            U, V = cls.pell.power(k)
            assert U == abs(t) and V == cls.content
        for cls in sl2_classes(-t):
            g0 = cls.gamma0
            inv = (g0[3], -g0[1], -g0[2], g0[0])
            assert _mat_pow(inv, cls.power) == tuple(-e for e in cls.gamma)


def test_gamma_commutes_with_gamma0():
    for t in (5, 7, 12, -9):
        for cls in sl2_classes(t):
            assert _mat_mul(cls.gamma, cls.gamma0) == _mat_mul(cls.gamma0, cls.gamma)


def test_sl2_group_orders():
    assert sl2_group_order(2) == 6
    assert sl2_group_order(3) == 24
    assert sl2_group_order(4) == 48
    assert sl2_group_order(6) == 144
    for N in range(1, 7):
        enumerated = sum(1 for a in range(N) for b in range(N) for c in range(N)
                         for d in range(N) if (a * d - b * c) % N == 1 % N)
        assert sl2_group_order(N) == enumerated, N


def test_splitting_examples():
    c3 = sl2_classes(3)[0]
    assert gamma_splitting(c3, 1) == (1, 1)
    assert gamma_splitting(c3, 2)[0] == 0  # gamma != 1 mod 2
    # trace 11, content 3: gamma = 1 mod 3, splits into 12 classes
    counts = {}
    for c in sl2_classes(11):
        counts[c.content] = gamma_splitting(c, 3)
    assert counts[3] == (12, 1)
    assert counts[1][0] == 0


def _splitting_by_subgroup(cls, N):
    """The split from the whole subgroup <gamma0, -1> mod N, as a set."""
    if N == 1:
        return 1, 1
    ident = (1 % N, 0, 0, 1 % N)
    neg = tuple(e % N for e in (-1, 0, 0, -1))
    g0 = tuple(e % N for e in cls.gamma0)
    powers = []
    cur = ident
    mstar = None
    order = None
    for j in range(1, 4 * sl2_group_order(N) + 2):
        cur = tuple(e % N for e in _mat_mul(cur, g0))
        powers.append(cur)
        if mstar is None and (cur == ident or cur == neg):
            mstar = j
        if cur == ident:
            order = j
            break
    assert order is not None
    subgroup = set(powers)
    if neg not in subgroup:
        subgroup |= {tuple(-e % N for e in x) for x in powers}
    if tuple(e % N for e in cls.gamma) != ident:
        return 0, mstar
    total = sl2_group_order(N)
    assert total % len(subgroup) == 0
    return total // len(subgroup), mstar


def test_gamma_splitting_matches_subgroup_enumeration():
    for at in range(3, 61):
        for t in (at, -at):
            for cls in sl2_classes(t):
                for N in range(1, 7):
                    expected = _splitting_by_subgroup(cls, N)
                    assert gamma_splitting(cls, N) == expected, (t, cls.form, N)


def test_splitting_rejects_large_level():
    with pytest.raises(ValueError):
        gamma_splitting(sl2_classes(3)[0], 7)


def test_dpsi_values():
    v = dpsi_enumerated(1, 3)
    assert abs(v - math.log((3 + math.sqrt(5)) / 2)) < 1e-12
    assert dpsi_enumerated(2, 5) == 0.0
    with pytest.raises(NonHyperbolicTrace):
        dpsi_enumerated(1, 2)


def test_trace_bound_exact():
    assert trace_bound(10) == 3   # alpha(3)^2 = 6.85 <= 10 < alpha(4)^2 = 13.9
    assert trace_bound(14) == 4
    assert trace_bound(10000) == 100
    assert trace_bound(10 ** 7) == MAX_TRACE


def test_signed_traces_order_and_cap():
    assert list(signed_traces(3, 5)) == [3, -3, 4, -4, 5, -5]
    assert list(signed_traces(3, 2)) == []
    assert len(list(signed_traces(3, MAX_TRACE))) == 2 * (MAX_TRACE - 2)
    with pytest.raises(EnumerationTooLarge):
        next(signed_traces(3, MAX_TRACE + 1))


def test_psi_row_consistency():
    rows = spectrum_rows(1, 2000)
    total = sum(r.contribution for r in rows)
    assert total == psi_enumerated(1, 2000)
    # the contribution column is the documented multiple of the dpsi column
    for r in rows:
        want = 2.0 * math.sqrt(abs(r.t) - 2) * r.dpsi * 0.5
        assert abs(r.contribution - want) <= 1e-9 * max(1.0, abs(want))


def test_psi_below_first_norm_is_zero():
    assert psi_enumerated(1, 6.5) == 0.0  # alpha(3)^2 = 6.854 > 6.5
    assert pi_enumerated(1, 6.5) == 0


def test_psi_monotone_and_pi_jumps():
    xs = [10, 20, 50, 100, 300, 700, 1000]
    psis = [psi_enumerated(1, x) for x in xs]
    assert all(b >= a for a, b in zip(psis, psis[1:]))
    pis = [pi_enumerated(1, x) for x in xs]
    assert all(b >= a for a, b in zip(pis, pis[1:]))
    # pi jumps exactly at the first norm 6.854...
    assert pi_enumerated(1, 6.8) == 0
    assert pi_enumerated(1, 6.9) == 1


def test_li_values():
    # li(2) = 1.045163..., li(10) = 6.16560...
    assert abs(li(2.0) - 1.045163780117) < 1e-9
    assert abs(li(10.0) - 6.165599504787) < 1e-9


def test_pgt_report_columns():
    rows = pgt_report(1, [100.0, 1000.0])
    assert rows[0].x == 100.0
    assert rows[0].psi_minus_x == rows[0].psi - 100.0
    assert rows[1].pi > rows[0].pi


def test_pgt_error_envelope():
    # |psi - x| / x^(7/10) stays below 5 across the desk-scale grid
    for x in (100.0, 1000.0, 3000.0):
        psi = psi_enumerated(1, x)
        assert abs(psi - x) <= 5 * x ** 0.7, (x, psi)


def test_cli_verify_local_supports_p5():
    from geomatch.cli import run_verify_local
    res = run_verify_local(5, 2, 8)
    assert res["ok"] and res["points_checked"] > 0


def test_pgt_report_on_unsorted_grid_with_duplicate():
    xs = [3000.0, 40.0, 800.0, 40.0, 150.0]
    for N in (1, 2, 3, 4):
        rows = pgt_report(N, xs)
        assert [r.x for r in rows] == xs
        assert rows == [pgt_report(N, [x])[0] for x in xs], N
        for x, row in zip(xs, rows):
            # psi and pi summed class by class, trace by trace
            c = 0.5 if N <= 2 else 1.0
            psi, pi = 0, 0
            for at in range(3, trace_bound(x) + 1):
                for t in (at, -at):
                    splits = [(cls, *gamma_splitting(cls, N)) for cls in sl2_classes(t)]
                    raw = sum(cnt * ms * cls.log_x0() for cls, cnt, ms in splits)
                    psi += c * 2.0 * raw
                    pi += sum(cnt for cls, cnt, ms in splits if cnt and cls.power == ms)
            if N <= 2:
                assert pi % 2 == 0
                pi //= 2
            assert row.psi == psi, (N, x)
            assert row.pi == pi, (N, x)


def _classes_by_full_divisor_walk(disc):
    """Every divisor A of |m| = (disc - B^2)/4 for every B, no window on A."""
    s = math.isqrt(disc)
    forms = set()
    for B in range(1, s + 1):
        if (B * B - disc) % 4:
            continue
        m = (B * B - disc) // 4
        divisors = set()
        for d in range(1, math.isqrt(-m) + 1):
            if m % d == 0:
                divisors |= {d, -m // d}
        for A in divisors:
            for Asig in (A, -A):
                C = m // Asig
                if math.gcd(math.gcd(Asig, B), C) == 1 and _is_reduced(Asig, B, C, disc):
                    forms.add((Asig, B, C))
    reps = {min(_cycle(f, disc)) for f in forms}
    return tuple(sorted(reps))


def test_primitive_classes_window_matches_full_divisor_walk():
    discs = {d for d in range(5, 2000)
             if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d}
    for t in range(3, 61):
        disc = t * t - 4
        discs |= {disc // (m * m) for m in range(1, math.isqrt(disc) + 1)
                  if disc % (m * m) == 0 and disc // (m * m) % 4 in (0, 1)}
    for disc in sorted(discs):
        assert primitive_classes(disc) == _classes_by_full_divisor_walk(disc), disc
