import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geomatch.geodesics import (
    MAX_TRACE,
    PellUnit,
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
    _order_power,
)
from geomatch.oracle import class_count_bruteforce
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
        assert sum(row.h for row in sl2_classes(t)) == class_count_bruteforce(t), t
        assert len(_reference_sl2_classes(t)) == class_count_bruteforce(t), t


def test_class_count_examples():
    assert sum(row.h for row in sl2_classes(3)) == 1
    assert sum(row.h for row in sl2_classes(-3)) == 1
    assert sorted((row.content, row.power) for row in sl2_classes(7) for _ in range(row.h)) == \
        [(1, 1), (1, 1), (3, 2)]


def _reference_half_mul(disc, x, y):
    """Product of (a + b sqrt d)/2 pairs, result in the same normalization."""
    a, b = x
    c, d = y
    num_u = a * c + disc * b * d
    num_v = a * d + b * c
    assert num_u % 2 == 0 and num_v % 2 == 0
    return num_u // 2, num_v // 2


@lru_cache(maxsize=None)  # the reference walk asks for every k up to the class's power
def _reference_pell_power(pell, k):
    """(U, V) with ((u + v sqrt d)/2)^k = (U + V sqrt d)/2, k >= 0."""
    U, V = 2, 0
    A, B = pell.u, pell.v
    while k:
        if k & 1:
            U, V = _reference_half_mul(pell.disc, (U, V), (A, B))
        A, B = _reference_half_mul(pell.disc, (A, B), (A, B))
        k >>= 1
    return U, V


def _reference_mat_pow(x, k):
    out = (1, 0, 0, 1)
    while k:
        if k & 1:
            out = _mat_mul(out, x)
        x = _mat_mul(x, x)
        k >>= 1
    return out


def _reference_with_power(t, m, form, pell):
    """k from the Pell unit's powers, then gamma0^(±k) checked, as first written."""
    A, B, C = form
    u, v = pell.u, pell.v
    g0 = ((u - B * v) // 2, -C * v, A * v, (u + B * v) // 2)
    gamma = ((t - m * B) // 2, -m * C, m * A, (t + m * B) // 2)
    k = 1
    while _reference_pell_power(pell, k)[0] < abs(t):
        k += 1
    assert _reference_pell_power(pell, k) == (abs(t), m)
    if t > 0:
        assert _reference_mat_pow(g0, k) == gamma
    else:
        inv = (g0[3], -g0[1], -g0[2], g0[0])
        assert _reference_mat_pow(inv, k) == tuple(-e for e in gamma)
    return k, gamma, g0


@dataclass(frozen=True)
class _ReferenceClass:
    """One SL2(Z)-class of trace t as the per-class layer kept it.

    content scales the primitive canonical form; gamma is the class's
    trace-t element, gamma0 the automorph the Pell unit gives on the form,
    with gamma = sign(t) * gamma0^(±power).
    """

    t: int
    content: int
    form: tuple[int, int, int]
    gamma: tuple[int, int, int, int]
    pell: PellUnit
    power: int

    @property
    def gamma0(self):
        A, B, C = self.form
        u, v = self.pell.u, self.pell.v
        return ((u - B * v) // 2, -C * v, A * v, (u + B * v) // 2)

    def log_x0(self):
        return self.pell.log()


def _reference_matrix_walk(t, m, form, gamma, pell):
    """The power from gamma0's integer powers, walked until the trace reaches |t|.

    gamma0^k must then be the m-scaled automorph of trace |t|.
    """
    A, B, C = form
    cls = _ReferenceClass(t, m, form, gamma, pell, 0)
    g0 = cur = cls.gamma0
    k = 1
    while cur[0] + cur[3] < abs(t):
        cur = _mat_mul(cur, g0)
        k += 1
    if cur != ((abs(t) - m * B) // 2, -m * C, m * A, (abs(t) + m * B) // 2):
        raise AssertionError("gamma0^k does not reproduce gamma")
    return replace(cls, power=k)


@lru_cache(maxsize=None)
def _reference_sl2_classes(t):
    """Every class of trace t, one per (content, primitive form), in the rows' order."""
    disc = t * t - 4
    out = []
    m = 1
    while m * m <= disc:
        if disc % (m * m) == 0 and (disc // (m * m)) % 4 in (0, 1):
            d0 = disc // (m * m)
            for form in primitive_classes(d0):
                A, B, C = form
                gamma = ((t - m * B) // 2, -m * C, m * A, (t + m * B) // 2)
                out.append(_reference_matrix_walk(t, m, form, gamma, pell_fundamental(d0)))
        m += 1
    return tuple(out)


def _reference_gamma_splitting(cls, N):
    """The class's split from gamma and the powers of gamma0 mod N, walked up to its power."""
    if N == 1:
        return 1, 1
    ident, neg = (1, 0, 0, 1), (N - 1, 0, 0, N - 1)
    if tuple(e % N for e in cls.gamma) != ident:
        return 0, 0
    g0 = tuple(e % N for e in cls.gamma0)
    cur, mstar = g0, 1
    while cur != ident and cur != neg and mstar < cls.power:
        cur = tuple(e % N for e in _mat_mul(cur, g0))
        mstar += 1
    assert (cur == ident or cur == neg) and cls.power % mstar == 0
    total = sl2_group_order(N)
    size = mstar if neg == ident else 2 * mstar
    return total // size, mstar


def _row_of(cls):
    """The order row of sl2_classes that holds the reference class."""
    return next(row for row in sl2_classes(cls.t) if row.content == cls.content)


def test_x0_exactness_and_surd_identity():
    for t in range(3, 21):
        for cls in _reference_sl2_classes(t):
            g0 = cls.gamma0
            k = cls.power
            assert _reference_mat_pow(g0, k) == cls.gamma
            # x + 1/x = |t| for the norm surd: verified through the unit pair
            U, V = _reference_pell_power(cls.pell, k)
            assert U == abs(t) and V == cls.content
        for cls in _reference_sl2_classes(-t):
            g0 = cls.gamma0
            inv = (g0[3], -g0[1], -g0[2], g0[0])
            assert _reference_mat_pow(inv, cls.power) == tuple(-e for e in cls.gamma)


def test_with_power_matches_reference():
    """Every power k <= 40 of every primitive form of discriminant < 400, both signs."""
    for d0 in range(5, 400):
        if d0 % 4 not in (0, 1) or math.isqrt(d0) ** 2 == d0:
            continue
        pell = pell_fundamental(d0)
        for form in primitive_classes(d0):
            for k in range(1, 41):
                U, V = _reference_pell_power(pell, k)
                for t in (U, -U):
                    ref = _reference_with_power(t, V, form, pell)
                    cls = _reference_matrix_walk(t, V, form, ref[1], pell)
                    assert (cls.power, cls.gamma, cls.gamma0) == ref, (d0, form, k, t)
        for k in range(1, 41):
            U, V = _reference_pell_power(pell, k)
            assert _order_power(U, V, pell) == _order_power(-U, V, pell) == k, (d0, k)
    form = primitive_classes(5)[0]
    for t, m in ((7, 1), (18, 9)):
        with pytest.raises(AssertionError):
            _reference_matrix_walk(t, m, form, None, pell_fundamental(5))
        with pytest.raises(AssertionError):
            _order_power(t, m, pell_fundamental(5))


def test_gamma_commutes_with_gamma0():
    for t in (5, 7, 12, -9):
        for cls in _reference_sl2_classes(t):
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
        return 0, 0  # m* is reported only with a nonzero count
    total = sl2_group_order(N)
    assert total % len(subgroup) == 0
    return total // len(subgroup), mstar


def test_gamma_splitting_matches_subgroup_enumeration():
    for at in range(3, 61):
        for t in (at, -at):
            for cls in _reference_sl2_classes(t):
                for N in range(1, 7):
                    expected = _splitting_by_subgroup(cls, N)
                    assert gamma_splitting(_row_of(cls), N) == expected, (t, cls.form, N)


def test_gamma_splitting_per_order_matches_each_class():
    """Every order with |t| <= 200 and every N <= 56 splits as each of its h classes."""
    pairs = 0
    for at in range(3, 201):
        for t in (at, -at):
            rows = sl2_classes(t)
            classes = _reference_sl2_classes(t)
            assert [(cls.content, cls.pell, cls.power) for cls in classes] == \
                [(row.content, row.pell, row.power) for row in rows for _ in range(row.h)], t
            for row in rows:
                for N in range(1, 57):
                    split = gamma_splitting(row, N)
                    for cls in classes:
                        if cls.content == row.content:
                            assert split == _reference_gamma_splitting(cls, N), (t, cls.form, N)
                    pairs += 1
    assert pairs == 43904


def test_splitting_at_large_levels():
    # trace 51 = 2 + 7^2: its content-7 class lies in Gamma(7) and splits
    splits = {cls.content: gamma_splitting(cls, 7) for cls in sl2_classes(51)}
    assert splits[7][0] > 0 and splits[1] == (0, 0)
    for t, N in ((51, 7), (3, 7), (-47, 7), (3, 101)):
        for cls in _reference_sl2_classes(t):
            assert gamma_splitting(_row_of(cls), N) == _splitting_by_subgroup(cls, N), (t, N)
    # gamma = 1 mod N is tested before any walk, so no level is too large
    for N in (102, 10 ** 6, 2 ** 61 - 1):
        for cls in sl2_classes(3):
            assert gamma_splitting(cls, N) == (0, 0), N


@st.composite
def _level_and_trace_in_gamma_n(draw):
    """N in 2..56 and t = 2 mod N^2 with 2 < |t| <= MAX_TRACE, either sign."""
    N = draw(st.integers(2, 56))
    sign = draw(st.sampled_from((1, -1)))
    j = draw(st.integers(1, (MAX_TRACE - 2 * sign) // (N * N)))
    t = 2 + sign * j * N * N
    assume(abs(t) > 2)
    return N, t


@settings(max_examples=30, deadline=None)
@given(_level_and_trace_in_gamma_n())
@example((2, -34)).via("m* = 1 < power 2")
@example((3, -322)).via("m* = 2 < power 6")
@example((5, 527)).via("m* = 2 < power 4")
@example((7, 2207)).via("m* = 2 < power 4")
@example((4, 194)).via("h = 2 classes of content 56, m* = 2 < power 4")
def test_gamma_splitting_walk_stops_at_mstar(level_and_trace):
    # gamma = 1 mod N is possible only at t = 2 mod N^2; there the walk is
    # bounded by the order's power, and m* can be a proper divisor of it
    N, t = level_and_trace
    for cls in _reference_sl2_classes(t):
        assert gamma_splitting(_row_of(cls), N) == _splitting_by_subgroup(cls, N), (N, t, cls.form)


def test_counts_at_large_levels_and_below_the_first_trace():
    # no trace and no class is read for x below 4, and no level is too large
    t0 = time.perf_counter()
    for N, xs in ((2 ** 61 - 1, [3.0, 100.0]), (102, [3.0])):
        rows = pgt_report(N, xs)
        assert [(r.psi, r.pi) for r in rows] == [(0.0, 0)] * len(xs), N
    assert time.perf_counter() - t0 < 1.0
    # psi is a float even where no trace contributes
    assert type(psi_enumerated(1, 6.5)) is float


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
                    splits = [(cls, *_reference_gamma_splitting(cls, N))
                              for cls in _reference_sl2_classes(t)]
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
