import random
from dataclasses import dataclass

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from geomatch.orders import (
    DivElt,
    MatElt,
    MatrixEmbedding,
    OrderKind,
    congruence_subgroup_membership,
    division_embedding,
    exact_radical_level,
    in_normalizer,
    norm_image_level,
    order_membership,
    order_unit_index,
    radical_power_membership,
    scaled_order_level,
)
from geomatch.padic import (
    GUARD,
    PAdicContext,
    PrecisionExhausted,
    RAMIFIED,
    SPLIT,
    UNRAMIFIED,
    classify_torus,
    hensel_lift,
    ramified_torus,
    ramified_torus_2nonsplit,
    split_torus,
    unramified_generator_constant,
    unramified_torus,
)


def test_radical_membership_examples():
    ctx = PAdicContext(3, 8)
    Pi = MatElt(ctx, 0, 1, 3, 0)
    assert radical_power_membership(OrderKind.J, Pi, 1)
    Pi2 = Pi * Pi
    assert radical_power_membership(OrderKind.J, Pi2, 2)
    assert Pi2.entries == (3, 0, 0, 3)
    assert not radical_power_membership(OrderKind.D, DivElt(PAdicContext(2, 6), 1, 0, 0, 0), 1)


def test_congruence_membership_examples():
    ctx = PAdicContext(3, 8)
    assert congruence_subgroup_membership(OrderKind.M, MatElt(ctx, 1, 0, 0, 1), 5)
    assert congruence_subgroup_membership(OrderKind.M, MatElt(ctx, 1, 3, 0, 1), 1)
    y = DivElt(PAdicContext(2, 8), 1, 0, 1, 0)  # 1 + pi_D
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
    ctx = PAdicContext(3, 8)
    s = DivElt(ctx, 0, 1, 0, 0)
    piD = DivElt(ctx, 0, 0, 1, 0)
    left = piD * s
    # pi_D * s = sigma(s) * pi_D with sigma(s) = 1 - s
    mod = 3 ** 8
    assert left.entries == (0, 0, 1 % mod, -1 % mod)
    sq = piD * piD
    assert sq.entries == (3, 0, 0, 0)
    assert sq.norm_int() % mod == 9 % mod


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3 ** 4 - 1), st.integers(0, 3 ** 4 - 1),
       st.integers(0, 3 ** 4 - 1), st.integers(0, 3 ** 4 - 1),
       st.integers(0, 3 ** 4 - 1), st.integers(0, 3 ** 4 - 1))
def test_division_norm_multiplicative(a, b, c, d, e, f):
    ctx = PAdicContext(3, 8)
    x = DivElt(ctx, a, b, c, d)
    y = DivElt(ctx, e, f, a + d, b + c)  # entries below 2 * 3^4 < 3^8: reduced
    mod = 3 ** 8
    assert (x * y).norm_int() % mod == x.norm_int() * y.norm_int() % mod


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_division_associative(data):
    ctx = PAdicContext(2, 7)
    mod = 2 ** 7
    pick = lambda: DivElt(ctx, *(data.draw(st.integers(0, mod - 1)) for _ in range(4)))
    x, y, z = pick(), pick(), pick()
    assert (x * y) * z == x * (y * z)



# The cyclic model as first written: a model object over the unramified ring
# o[s], s^2 = s + c, whose elements u + w pi_D held u and w as pairs.  Its
# ring helpers and element methods, kept as the reference for DivElt's
# arithmetic on four integer entries.

def _reference_mul2(ctx, x, y):
    a, b = x
    e, f = y
    m, c = ctx.modulus, unramified_generator_constant(ctx.p)
    return ((a * e + c * b * f) % m, (a * f + b * e + b * f) % m)


def _reference_sigma(ctx, x):
    a, b = x
    m = ctx.modulus
    return ((a + b) % m, -b % m)


def _reference_norm2(ctx, x):
    a, b = x
    return (a * a + a * b - unramified_generator_constant(ctx.p) * b * b) % ctx.modulus


def _reference_add2(ctx, x, y):
    m = ctx.modulus
    return ((x[0] + y[0]) % m, (x[1] + y[1]) % m)


@dataclass(frozen=True)
class _ReferenceDivElt:
    ctx: PAdicContext
    u: tuple[int, int]
    w: tuple[int, int]
    den: int = 0

    def fields(self):
        return (self.ctx, *self.u, *self.w, self.den)

    def __mul__(self, other):
        ctx, p = self.ctx, self.ctx.p
        u1, w1, u2, w2 = self.u, self.w, other.u, other.w
        u = _reference_add2(ctx, _reference_mul2(ctx, u1, u2),
                            tuple(x * p % ctx.modulus
                                  for x in _reference_mul2(ctx, w1, _reference_sigma(ctx, w2))))
        w = _reference_add2(ctx, _reference_mul2(ctx, u1, w2),
                            _reference_mul2(ctx, w1, _reference_sigma(ctx, u2)))
        return _ReferenceDivElt(ctx, u, w, self.den + other.den)

    def minus_identity(self):
        s = self.ctx.p ** self.den
        m = self.ctx.modulus
        return _ReferenceDivElt(self.ctx, ((self.u[0] - s) % m, self.u[1]), self.w, self.den)

    def norm_int(self):
        return (_reference_norm2(self.ctx, self.u)
                - self.ctx.p * _reference_norm2(self.ctx, self.w)) % self.ctx.modulus

    def trace_int(self):
        return (2 * self.u[0] + self.u[1]) % self.ctx.modulus


def _reference_solve_unit_norm(ctx, target):
    p, c = ctx.p, unramified_generator_constant(ctx.p)
    a0, b = next((a, b) for a in range(p) for b in range(p)
                 if (a * a + a * b - c * b * b - target) % p == 0 and (2 * a + b) % p)
    a = hensel_lift(lambda y: y * y + y * b - c * b * b - target, lambda y: 2 * y + b, a0, ctx)
    return a, b % ctx.modulus


def _reference_division_xi(torus):
    """xi = T s + w pi_D as the model-based division_embedding built it."""
    ctx = torus.ctx
    m = ctx.modulus
    T, N = torus.T % m, torus.N % m
    u = (0, T)
    target = (_reference_norm2(ctx, u) - N) % m // ctx.p
    w = _reference_solve_unit_norm(ctx, target) if target else (0, 0)
    return _ReferenceDivElt(ctx, u, (w[0] % m, w[1] % m))


@settings(max_examples=400, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), M=st.integers(1, 10), data=st.data())
def test_division_arithmetic_matches_reference(p, M, data):
    ctx = PAdicContext(p, M)
    entry = st.one_of(st.just(0), st.integers(0, ctx.modulus - 1),
                      st.builds(lambda u, k: u * p ** k, st.integers(1, p * p),
                                st.integers(0, M + 1)),
                      st.integers(-ctx.modulus * p, -1))

    def pick():
        e = [data.draw(entry, label="entry") for _ in range(4)]
        den = data.draw(st.integers(0, 3), label="den")
        return DivElt(ctx, *e, den), _ReferenceDivElt(ctx, (e[0], e[1]), (e[2], e[3]), den)

    (x, rx), (y, ry) = pick(), pick()
    assert tuple(x) == rx.fields()
    assert tuple(x * y) == (rx * ry).fields()
    assert tuple(x.minus_identity()) == rx.minus_identity().fields()
    assert x.norm_int() == rx.norm_int()
    assert x.trace_int() == rx.trace_int()


def _field_tori():
    """Every field torus the constructors give, and those of traces 3..60, at p = 2, 3, 5."""
    for p in (2, 3, 5):
        for M in (4, 8, 13):
            yield unramified_torus(p, M)
            yield ramified_torus(p, M)
            if p == 2:
                yield ramified_torus_2nonsplit(M)
        for t in range(3, 61):
            torus = classify_torus(t, p)
            if torus.kind != SPLIT:
                yield torus


def test_division_embedding_matches_reference():
    shapes = set()
    for torus in _field_tori():
        xi = division_embedding(torus).xi
        assert tuple(xi) == _reference_division_xi(torus).fields(), torus
        shapes.add((torus.ctx.p, torus.kind, torus.T % torus.ctx.modulus))
    # T = 1 unramified, T = 0 ramified, and at p = 2 also T = 2 (theta0 = 1 + sqrt(u))
    assert shapes == {(p, kind, T) for p in (2, 3, 5)
                      for kind, T in ((UNRAMIFIED, 1), (RAMIFIED, 0))} | {(2, RAMIFIED, 2)}


def test_radical_filtration_products():
    rng = random.Random(5)
    ctx = PAdicContext(2, 14)
    for _ in range(40):
        a = rng.randrange(1, 4)
        b = rng.randrange(1, 4)
        x = MatElt(ctx, *(rng.randrange(ctx.modulus) * 2 ** a for _ in range(4)))
        y = MatElt(ctx, *(rng.randrange(ctx.modulus) * 2 ** b for _ in range(4)))
        if radical_power_membership(OrderKind.M, x, a) and \
                radical_power_membership(OrderKind.M, y, b):
            assert radical_power_membership(OrderKind.M, x * y, a + b)
    # Iwahori: products of radical elements land in the radical sum
    Pi = MatElt(ctx, 0, 1, 2, 0)
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
    Pi = MatElt(ctx, 0, 1, 3, 0)
    Pi_inv = MatElt(ctx, 0, 1, 3, 0, den=1)  # (0 1; 3 0)^-1 = (0 1; 3 0) / 3
    for n in (1, 2, 3):
        for _ in range(25):
            y = MatElt(ctx, *(rng.randrange(ctx.modulus) * 3 ** n for _ in range(4)))
            x = MatElt(ctx, *((e + d) % ctx.modulus  # 1 + y
                              for e, d in zip((1, 0, 0, 1), y.entries)))
            if congruence_subgroup_membership(OrderKind.M, x, n):
                # scaling conjugation is trivial for M; check the swap too
                w = MatElt(ctx, 0, 1, 1, 0)
                assert congruence_subgroup_membership(OrderKind.M, w * x * w, n)  # w^-1 = w
            xj = MatElt(ctx, 1 + y.e11, y.e12, y.e21 * 3, 1 + y.e22)
            if congruence_subgroup_membership(OrderKind.J, xj, n):
                conj = Pi_inv * xj * Pi
                assert congruence_subgroup_membership(OrderKind.J, conj, n)
    piD, piD_inv = DivElt(ctx, 0, 0, 1, 0), DivElt(ctx, 0, 0, 1, 0, den=1)
    for n in (1, 2):
        for _ in range(25):
            x = DivElt(ctx, 1 + 3 ** ((n + 1) // 2) * rng.randrange(27),
                       3 ** ((n + 1) // 2) * rng.randrange(27),
                       3 ** (n // 2) * rng.randrange(27),
                       3 ** (n // 2) * rng.randrange(27))
            if congruence_subgroup_membership(OrderKind.D, x, n):
                # pi_D^-1 (u + w pi_D) pi_D = sigma(u) + sigma(w) pi_D
                tw = DivElt(ctx, *_reference_sigma(ctx, x[1:3]), *_reference_sigma(ctx, x[3:5]))
                assert congruence_subgroup_membership(OrderKind.D, tw, n)
                conj = piD_inv * x * piD
                assert conj.den == 1 and conj.entries == tuple(3 * e % ctx.modulus
                                                               for e in tw.entries)


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
                    got = scaled_order_level(kind, emb.of_coords(0, 1), 12)
                    assert got == r


def test_division_embedding_parity():
    for p in (2, 3):
        for tor in (unramified_torus(p, 8), ramified_torus(p, 8)):
            de = division_embedding(tor)
            assert exact_radical_level(OrderKind.D, de.xi) % 2 == \
                (1 if tor.kind == RAMIFIED else 0)
    t24 = ramified_torus_2nonsplit(8)
    de = division_embedding(t24)
    assert exact_radical_level(OrderKind.D, de.xi) == 1  # theta0 = 1 + sqrt(u) is a uniformizer


def test_normalizer_membership():
    ctx = PAdicContext(3, 8)
    Pi = MatElt(ctx, 0, 1, 3, 0)
    assert in_normalizer(OrderKind.J, Pi)
    assert in_normalizer(OrderKind.J, MatElt(ctx, 1, 0, 0, 1))
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


def test_matelt_is_an_immutable_value():
    ctx = PAdicContext(3, 8)
    x = MatElt(ctx, 1, 3, 9, 2, den=1)
    for name in ("e11", "den", "ctx", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    with pytest.raises(ValueError):
        MatElt(ctx, 1, 0, 0, 1, den=-1)
    y = MatElt(ctx, 1, 3, 9, 2, den=1)
    assert y is not x and y == x and hash(y) == hash(x)
    assert MatElt(ctx, 1, 3, 9, 2) != x
    one = MatElt(ctx, 1, 0, 0, 1)
    assert one * x == x == x * one
    assert x.entries == (1, 3, 9, 2)


def test_divelt_is_an_immutable_value():
    ctx = PAdicContext(3, 8)
    x = DivElt(ctx, 1, 3, 9, 2, den=1)
    for name in ("u0", "den", "ctx", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    with pytest.raises(ValueError):
        DivElt(ctx, 1, 0, 0, 0, den=-1)
    y = DivElt(ctx, 1, 3, 9, 2, den=1)
    assert y is not x and y == x and hash(y) == hash(x)
    assert DivElt(ctx, 1, 3, 9, 2) != x
    one = DivElt(ctx, 1, 0, 0, 0)
    assert one * x == x == x * one
    assert x.entries == (1, 3, 9, 2)


def _reference_membership(kind, x, n):
    """radical_power_membership entry by entry, apart from the staircase table.

    M and J test v(e) >= b + den on each matrix entry with ctx.val_at_least,
    b the staircase bounds written out; D tests v_D(x) >= n as v(u) >=
    ceil(m/2) and v(w) >= floor(m/2), m = n + 2 den.
    """
    n = max(n, 0)
    ctx = x.ctx
    if kind is OrderKind.D:
        m = n + 2 * x.den
        if m <= 0:
            return True
        cu, cw = (m + 1) // 2, m // 2
        return (ctx.val_at_least(x.u0, cu) and ctx.val_at_least(x.u1, cu)
                and ctx.val_at_least(x.w0, cw) and ctx.val_at_least(x.w1, cw))
    k, odd = divmod(n, 2)
    if kind is OrderKind.M:
        b = (n, n, n, n)
    elif odd:
        b = (k + 1, k, k + 1, k + 1)
    else:
        b = (k, k, k + 1, k)
    return all(ctx.val_at_least(e, t + x.den) for e, t in zip(x.entries, b))


def _scan_radical_level(kind, x):
    """exact_radical_level as the level-by-level scan of the reference membership."""
    bound = 2 * (x.ctx.M - GUARD - x.den)
    if not _reference_membership(kind, x, 0):
        raise ValueError("element is not integral")
    n = 0
    while n < bound and _reference_membership(kind, x, n + 1):
        n += 1
    if n >= bound:
        raise PrecisionExhausted("radical level hit the precision cap")
    return n


def _scan_order_level(kind, x, bound):
    """scaled_order_level as the scan of p^j x over j in [0, bound)."""
    m = x.ctx.modulus
    return next((j for j in range(bound) if _reference_membership(
        kind, MatElt(x.ctx, *(e * x.ctx.p ** j % m for e in x.entries), x.den), 0)), None)


def _outcome(f, *args):
    """f(*args), or the type of the ValueError or PrecisionExhausted it raised."""
    try:
        return f(*args)
    except (ValueError, PrecisionExhausted) as exc:
        return type(exc)


def _draw_element(data, kind, p, M):
    """An element of kind's algebra at a denominator up to one past the cap.

    Each entry is zero, any residue, or u p^k with k up to M + 1 (so also
    0 mod p^M, unreduced).
    """
    ctx = PAdicContext(p, M)
    entry = st.one_of(st.just(0), st.integers(0, ctx.modulus - 1),
                      st.builds(lambda u, k: u * p ** k, st.integers(1, p * p),
                                st.integers(0, M + 1)))
    den = data.draw(st.integers(0, max(M - GUARD, 0) + 1), label="den")
    e = [data.draw(entry, label="entry") for _ in range(4)]
    if kind is OrderKind.D:
        return DivElt(ctx, *e, den)
    return MatElt(ctx, *e, den)


@settings(max_examples=600, deadline=None)
@given(kind=st.sampled_from(list(OrderKind)), p=st.sampled_from([2, 3, 5]),
       M=st.integers(1, 9), data=st.data())
def test_radical_membership_matches_reference(kind, p, M, data):
    x = _draw_element(data, kind, p, M)
    n = data.draw(st.integers(0, 2 * M + 1), label="n")
    assert _outcome(radical_power_membership, kind, x, n) == \
        _outcome(_reference_membership, kind, x, n)


@settings(max_examples=900, deadline=None)
@given(kind=st.sampled_from(list(OrderKind)), p=st.sampled_from([2, 3, 5]),
       M=st.integers(1, 9), data=st.data())
def test_level_read_offs_match_scans(kind, p, M, data):
    x = _draw_element(data, kind, p, M)
    assert _outcome(exact_radical_level, kind, x) == _outcome(_scan_radical_level, kind, x)
    if kind is OrderKind.D:
        return  # the order levels p^j x are matrix read-offs
    bound = data.draw(st.integers(0, 2 * M + 4), label="bound")
    assert _outcome(scaled_order_level, kind, x, bound) == \
        _outcome(_scan_order_level, kind, x, bound)
    assert _outcome(scaled_order_level, kind, x, 12) == _outcome(_scan_order_level, kind, x, 12)


TORI = (split_torus, unramified_torus, ramified_torus,
        lambda p, M: ramified_torus_2nonsplit(M))


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), which=st.integers(0, len(TORI) - 1),
       i=st.integers(0, 8), s=st.integers(0, 30), j=st.integers(0, 8), w=st.integers(1, 30))
def test_torus_filtration_is_embedded_congruence_level(p, which, i, s, j, w):
    """U_E^n is the order-side congruence level of the embedded element.

    Split tori: diag(a, b) in M2(o) at level n.  Field tori: the division
    embedding at level (2/e) n, since v_D restricted to E is (2/e) v_E.
    """
    assume(which < 3 or p == 2)
    torus = TORI[which](p, 20)
    a = 1 + s * p ** i
    try:
        if torus.kind == SPLIT:
            b = 1 + w * p ** j
            assume(a % p and b % p)
            x = torus.element(a, b)
            kind, scale, image = OrderKind.M, 1, MatElt(torus.ctx, x.a, 0, 0, x.b)
        else:
            x = torus.element(a, w * p ** j)
            kind, scale = OrderKind.D, 2 // torus.e
            image = division_embedding(torus).of(x)
        for n in range(7):
            assert x.in_unit_filtration(n) == \
                congruence_subgroup_membership(kind, image, scale * n), n
    except PrecisionExhausted:
        reject()
