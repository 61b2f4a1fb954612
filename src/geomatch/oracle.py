"""Independent brute-force validation of the closed-form orbital integrals.

Nothing in this module evaluates a closed form.  Unit-group indices come from
exhaustive counting in finite quotients, coset volumes from those counts, and
every indicator from explicit matrix or quaternion congruence arithmetic.
Full enumerations are capped at 2^20 residues; larger indices are assembled
from exhaustively counted strata (head index times radical-quotient counts).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .integrals import TestFunctionSpec
from .orders import (
    DivisionModel,
    MatElt,
    MatrixEmbedding,
    OrderKind,
    congruence_subgroup_membership,
    division_embedding,
    embedding_order_level,
    exact_radical_level,
    in_normalizer,
    order_membership,
    pi_matrix_inv,
    radical_power_membership,
    split_conjugate,
)
from .padic import (
    GUARD,
    EnumerationTooLarge,
    PAdicContext,
    PrecisionExhausted,
    RegularElement,
    SPLIT,
    TorusData,
    UNRAMIFIED,
    RAMIFIED,
    integer_valuation,
    ramified_torus,
    split_torus,
    unramified_generator_constant,
    unramified_torus,
)

ENUM_CAP = 2 ** 20


def _check_cap(size: int):
    if size > ENUM_CAP:
        raise EnumerationTooLarge(f"enumeration of {size} residues exceeds 2^20")


# ---------------------------------------------------------------------------
# exhaustively counted indices


@lru_cache(maxsize=None)
def enum_unit_filtration_index(p: int, m: int) -> int:
    """[o^x : U_o^m] by counting residues mod p^(m+1)."""
    if m == 0:
        return 1
    mod = p ** (m + 1)
    _check_cap(mod)
    units = sum(1 for a in range(mod) if a % p)
    inner = sum(1 for a in range(mod) if a % p and (a - 1) % p ** m == 0)
    assert units % inner == 0
    return units // inner


@lru_cache(maxsize=None)
def _enum_head_index(kind: OrderKind, p: int) -> int:
    """[O^x : U^1] counted in a small finite quotient."""
    if kind is OrderKind.M:
        # U^1 is the kernel of reduction mod p, so the index is |GL2(F_p)|
        _check_cap(p ** 4)
        return sum(1 for a, b, c, d in itertools.product(range(p), repeat=4)
                   if (a * d - b * c) % p)
    mod = p * p
    _check_cap(mod ** 4)
    units = inner = 0
    if kind is OrderKind.J:
        for a, b, d in itertools.product(range(mod), repeat=3):
            for c in range(0, mod, p):
                if (a * d - b * c) % p == 0:
                    continue
                units += 1
                # x - 1 in the radical: diagonal in p, lower-left in p, b free
                if (a - 1) % p == 0 and (d - 1) % p == 0:
                    inner += 1
    else:
        for u0, u1, w0, w1 in itertools.product(range(mod), repeat=4):
            if u0 % p == 0 and u1 % p == 0:
                continue  # reduced norm not a unit
            units += 1
            if (u0 - 1) % p == 0 and u1 % p == 0:
                inner += 1  # v_D(x-1) >= 1 needs v(u-1) >= 1 only
    assert units % inner == 0
    return units // inner


def _radical_digit_windows(kind: OrderKind, m: int) -> tuple[tuple[int, int], ...]:
    """Per-coordinate digit windows describing radical^m modulo radical^(m+1)."""
    if kind is OrderKind.M:
        return ((m, m + 1),) * 4
    if kind is OrderKind.J:
        return tuple(zip(_staircase_bounds(m), _staircase_bounds(m + 1)))
    cu, cw = (m + 1) // 2, m // 2
    cu2, cw2 = (m + 2) // 2, (m + 1) // 2
    return ((cu, cu2), (cu, cu2), (cw, cw2), (cw, cw2))


def _staircase_bounds(n: int) -> tuple[int, int, int, int]:
    k, odd = divmod(n, 2)
    return (k + 1, k, k + 1, k + 1) if odd else (k, k, k + 1, k)


@lru_cache(maxsize=None)
def _enum_radical_quotient(kind: OrderKind, p: int, m: int) -> int:
    """|radical^m / radical^(m+1)| by enumerating digit representatives.

    Coordinates are independent (the radical powers are coordinate lattices),
    so distinct digit tuples are distinct classes; the count is exhaustive
    over one full transversal.
    """
    windows = _radical_digit_windows(kind, m)
    sizes = [p ** (hi - lo) for lo, hi in windows]
    total = sizes[0] * sizes[1] * sizes[2] * sizes[3]
    _check_cap(total)
    reps = {digits for digits in itertools.product(*(range(s) for s in sizes))}
    assert len(reps) == total
    return len(reps)


@lru_cache(maxsize=None)
def enum_order_unit_index(kind: OrderKind, p: int, n: int) -> int:
    """[O^x : U^n] assembled from exhaustively counted strata."""
    if n == 0:
        return 1
    idx = _enum_head_index(kind, p)
    for m in range(1, n):
        idx *= _enum_radical_quotient(kind, p, m)
    return idx


@lru_cache(maxsize=None)
def enum_gl2_unit_index_direct(p: int, n: int, K: int) -> int:
    """One-shot [M2(o)^x : U^n] inside GL2(Z/p^K), for cross-checking strata."""
    mod = p ** K
    _check_cap(mod ** 4)
    if K <= n:
        raise ValueError("need K > n")
    pn = p ** n
    units = inner = 0
    for a, b, c, d in itertools.product(range(mod), repeat=4):
        if (a * d - b * c) % p == 0:
            continue
        units += 1
        if (a - 1) % pn == 0 and b % pn == 0 and c % pn == 0 and (d - 1) % pn == 0:
            inner += 1
    assert units % inner == 0
    return units // inner


def _field_unit_test(kind: str, alpha: int, beta: int, p: int) -> bool:
    if kind == RAMIFIED:
        return alpha % p != 0
    return alpha % p != 0 or beta % p != 0


@lru_cache(maxsize=None)
def _enum_quad_stratum(kind: str, p: int, k: int) -> int:
    """[L_k^x : L_(k+1)^x] by exhaustive counting in a per-stratum window.

    Pairs (alpha mod p^2, beta in the p^k window mod p^(k+2)) saturate the
    quotient: unit membership depends on alpha and beta only through the
    residues enumerated here.
    """
    mod_a = p * p
    mod_b = p ** (k + 2)
    _check_cap(mod_a * mod_b // max(p ** k, 1))
    outer = inner = 0
    for alpha in range(mod_a):
        for beta in range(0, mod_b, p ** k):
            if not _field_unit_test(kind, alpha, beta, p):
                continue
            outer += 1
            if beta % p ** (k + 1) == 0:
                inner += 1
    assert outer % inner == 0
    return outer // inner


def enum_quad_index_pair(kind: str, p: int, k: int, r: int) -> int:
    """[L_k^x : L_(k+r)^x] assembled from exhaustively counted strata."""
    idx = 1
    for j in range(k, k + r):
        idx *= _enum_quad_stratum(kind, p, j)
    return idx


def enum_quad_order_index(torus: TorusData, r: int) -> int:
    """[O_E^x : L_r^x] by stratified counting (1 for r = 0)."""
    if r == 0:
        return 1
    return enum_quad_index_pair(torus.kind, torus.ctx.p, 0, r)


def _canonical_torus(kind: str, p: int, M: int) -> TorusData:
    if kind == SPLIT:
        return split_torus(p, M)
    if kind == UNRAMIFIED:
        return unramified_torus(p, M)
    return ramified_torus(p, M)


# ---------------------------------------------------------------------------
# embeddings checked rather than trusted


def verify_embedding_optimal(emb: MatrixEmbedding) -> bool:
    """Lattice check: emb(alpha + beta theta0) integral iff v(beta) >= level.

    Scans v(alpha), v(beta) in 0..3 with unit parts 1 and -1.
    """
    ctx = emb.torus.ctx
    p = ctx.p
    units = (1,) if p == 2 else (1, p - 1)
    for i in range(4):
        for j in range(4):
            for ua in units:
                for ub in units:
                    got = order_membership(emb.kind,
                                           emb.of_coords(ua * p ** i, ub * p ** j))
                    if got != (j >= emb.level):
                        return False
    return True


def checked_embedding(torus: TorusData, kind: OrderKind, level: int) -> MatrixEmbedding:
    emb = MatrixEmbedding(torus, kind, level)
    if not verify_embedding_optimal(emb):
        raise AssertionError(f"embedding at level {level} failed the optimality check")
    return emb


def iwahori_level_zero_missing(torus: TorusData) -> bool:
    """Verify no level-0 Iwahori embedding exists for an unramified torus.

    The candidate theta0 -> ((0,1),(-N,T)) lands at level 1, and a bounded
    conjugator search must not produce a level-0 repair.
    """
    if torus.kind != UNRAMIFIED:
        raise ValueError("the emptiness statement is for unramified tori")
    ctx = torus.ctx
    p = ctx.p
    cand = MatElt.from_rows(ctx, ((0, 1), (-torus.N, torus.T)))
    if embedding_order_level(OrderKind.J, cand) == 0:
        return False
    for rows in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)),
                 ((1, 0), (1, 1)), ((1, 0), (0, p)), ((p, 0), (0, 1)),
                 ((0, 1), (p, 0)), ((1, 0), (p, 1)), ((1, 1), (1, 2))):
        g = MatElt.from_rows(ctx, rows)
        try:
            moved = cand.conj_by(g)
        except (ValueError, PrecisionExhausted):
            continue
        try:
            if embedding_order_level(OrderKind.J, moved) == 0:
                return False
        except PrecisionExhausted:
            continue
    return True


def iwahori_side_factor(emb: MatrixEmbedding) -> int:
    """2 unless the embedded torus meets the odd component of K_J.

    Scans a coordinate grid; a hit in pi J^x (odd exact radical level equal
    to the determinant valuation) collapses the factor to 1.
    """
    ctx = emb.torus.ctx
    p = ctx.p
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


def split_side_factor(torus: TorusData, kind: OrderKind) -> int:
    """Component factor for the diagonal torus: 1 for K_M, scanned for K_J.

    The scan covers diag(p^i, p^j) with i, j in 0..3.
    """
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


# ---------------------------------------------------------------------------
# the brute-force orbital integral


def oracle_orbital(spec: TestFunctionSpec, x: RegularElement) -> Fraction:
    """Coset-by-coset recomputation of the orbital integral.

    Volumes come from enumerated indices; indicators from explicit matrix or
    quaternion congruence membership.  The term one past the truncation bound
    is evaluated and asserted to vanish.
    """
    torus = x.torus
    ctx = torus.ctx
    p = ctx.p
    n = spec.n
    if torus.kind == SPLIT:
        if spec.kind is OrderKind.D:
            return Fraction(0)
        r_max = x.val_gap() + 1
        if r_max + n + GUARD >= ctx.M:
            raise PrecisionExhausted("raise M: split truncation bound too close")
        side = split_side_factor(torus, spec.kind)
        unit_index = enum_order_unit_index(spec.kind, p, n)
        value = Fraction(0)
        for r in range(r_max + 1):
            ratio = 1 if r == 0 else enum_unit_filtration_index(p, r)
            ind = congruence_subgroup_membership(spec.kind, split_conjugate(torus, x, r), n)
            if r == r_max and ind:
                raise AssertionError("split coset sum failed to truncate")
            if ind:
                value += side * ratio * unit_index
    elif spec.kind is OrderKind.D:
        demb = division_embedding(torus, DivisionModel(ctx))
        side = 1 if exact_radical_level(OrderKind.D, demb.xi) % 2 else 2
        ind = congruence_subgroup_membership(OrderKind.D, demb.of(x), n)
        value = Fraction(side * enum_order_unit_index(OrderKind.D, p, n)) if ind \
            else Fraction(0)
    else:
        r_max = x.conductor() + 1
        if r_max + n + GUARD >= ctx.M:
            raise PrecisionExhausted("raise M: field truncation bound too close")
        r_min = 0
        if spec.kind is OrderKind.J and torus.kind == UNRAMIFIED:
            if not iwahori_level_zero_missing(torus):
                raise AssertionError("unexpected level-0 Iwahori embedding")
            r_min = 1
        unit_index = enum_order_unit_index(spec.kind, p, n)
        value = Fraction(0)
        for r in range(r_min, r_max + 1):
            emb = checked_embedding(torus, spec.kind, r)
            ratio = enum_quad_order_index(torus, r)
            side = iwahori_side_factor(emb) if spec.kind is OrderKind.J else 1
            ind = congruence_subgroup_membership(spec.kind, emb.of(x), n)
            if r == r_max and ind:
                raise AssertionError("field coset sum failed to truncate")
            if ind:
                value += side * ratio * unit_index
    if spec.include_norm_index:
        _, index = enum_norm_image(spec.kind, p, n)
        value /= index
    return value


# ---------------------------------------------------------------------------
# norm/determinant images of the congruence subgroups


@lru_cache(maxsize=None)
def enum_norm_image(kind: OrderKind, p: int, n: int) -> tuple[int, int]:
    """(m, [o^x : image]): the det/nu image of U^n equals U_o^m, enumerated.

    The determinant of 1 + y sees the four digit windows of y only through
    (1+da)(1+dd) and db*dc (norm of the two halves for the division order),
    so each product set is enumerated exhaustively and then combined.
    """
    if n == 0:
        return 0, 1
    if kind is OrderKind.D:
        c = unramified_generator_constant(p)
        cu, cw = (n + 1) // 2, n // 2
        K = cu + 2
        mod = p ** K
        du = range(0, mod, p ** cu)
        dw = range(0, mod, p ** min(cw, K))
        _check_cap(len(du) ** 2 + len(dw) ** 2)
        heads = {((1 + u0) ** 2 + (1 + u0) * u1 - c * u1 * u1) % mod
                 for u0 in du for u1 in du}
        tails = {(w0 * w0 + w0 * w1 - c * w1 * w1) % mod for w0 in dw for w1 in dw}
        _check_cap(len(heads) * len(tails))
        images = {(h - p * t) % mod for h in heads for t in tails}
    else:
        bounds = (n, n, n, n) if kind is OrderKind.M else _staircase_bounds(n)
        K = max(bounds) + 2
        mod = p ** K
        ra, rb, rc, rd = [range(0, mod, p ** t) for t in bounds]
        _check_cap(len(ra) * len(rd) + len(rb) * len(rc))
        heads = {(1 + da) * (1 + dd) % mod for da in ra for dd in rd}
        tails = {db * dc % mod for db in rb for dc in rc}
        _check_cap(len(heads) * len(tails))
        images = {(h - t) % mod for h in heads for t in tails}
    units = {u for u in range(mod) if u % p}

    def target(m: int) -> set:
        return units if m == 0 else {u for u in units if (u - 1) % p ** m == 0}

    from .orders import norm_image_level
    predicted = norm_image_level(kind, n)
    # at p = 2 neighbouring filtration sets can coincide; prefer the level the
    # image actually certifies
    candidates = [predicted] + [m for m in range(K - 1) if m != predicted]
    for m in candidates:
        t = target(m)
        if images == t:
            assert len(units) % len(images) == 0
            return m, len(units) // len(images)
    raise AssertionError("norm image is not a unit filtration subgroup")


# ---------------------------------------------------------------------------
# radical intersection test


def radical_intersection_test(kind: OrderKind, torus: TorusData, r: int, n: int) -> dict:
    """Enumerate radical^n cap (embedded E) and compare with the predicted order.

    Predicted: p^n L_r for M2(o); p^k L_r for Iwahori n = 2k; p^k L_(r-1) for
    Iwahori n = 2k-1, r >= 1; P_E^n for Iwahori n = 2k-1 at r = 0 (ramified).
    All right-hand sides are coordinate lattices v(alpha) >= a0, v(beta) >= b0,
    checked at coordinates of valuation up to max(n + r + 2, 4).
    """
    ctx = torus.ctx
    p = ctx.p
    emb = checked_embedding(torus, kind, r)
    span = max(n + r + 2, 4)
    if span + 1 > ctx.M - GUARD:
        raise PrecisionExhausted("raise M for the intersection span")
    if kind is OrderKind.M:
        a0, b0 = n, n + r
    elif n % 2 == 0:
        a0, b0 = n // 2, n // 2 + r
    elif r >= 1:
        k = (n + 1) // 2
        a0, b0 = k, k + r - 1
    else:
        a0, b0 = (n + 1) // 2, n // 2  # P_E^n in ramified coordinates
    units = (1,) if p == 2 else (1, p - 1)
    coords = [0] + [u * p ** i for i in range(span + 1) for u in units]
    mism = []
    for alpha in coords:
        for beta in coords:
            got = radical_power_membership(kind, emb.of_coords(alpha, beta), n)
            want = ctx.val_at_least(alpha, a0) and ctx.val_at_least(beta, b0)
            if got != want:
                mism.append({"alpha": alpha, "beta": beta, "got": got, "want": want})
    return {"kind": kind.value, "torus": torus.kind, "r": r, "n": n,
            "predicted": {"alpha_val_min": a0, "beta_val_min": b0},
            "mismatches": mism, "ok": not mism}


def index_enumeration_test(kind: OrderKind, n: int, p: int) -> dict:
    """Enumerated unit index against the closed form."""
    from .orders import order_unit_index
    enum = enum_order_unit_index(kind, p, n)
    closed = order_unit_index(kind, n, p)
    return {"kind": kind.value, "n": n, "p": p, "enumerated": enum,
            "closed_form": closed, "ok": enum == closed}


# ---------------------------------------------------------------------------
# coset coverage


@dataclass
class CoverageReport:
    decomposition: str
    p: int
    M: int
    samples: int
    seed: int
    violations: list = field(default_factory=list)
    r_histogram: dict = field(default_factory=dict)
    odd_component_hits: int = 0
    deep_witness_checked: int = 0
    disjointness_pairs: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"decomposition": self.decomposition, "p": self.p, "M": self.M,
                "samples": self.samples, "seed": self.seed,
                "violations": self.violations,
                "r_histogram": {str(k): v for k, v in sorted(self.r_histogram.items())},
                "odd_component_hits": self.odd_component_hits,
                "deep_witness_checked": self.deep_witness_checked,
                "disjointness_pairs": self.disjointness_pairs,
                "ok": self.ok}


def _sample_matrix(rng: random.Random, p: int, M: int, work: PAdicContext,
                   unit_det: bool) -> MatElt:
    """Uniform sample with unit determinant, or with 1 <= v(det) <= M-1."""
    mod = p ** M
    while True:
        a, b, c, d = (rng.randrange(mod) for _ in range(4))
        det = (a * d - b * c) % p ** max(M, 4)
        if unit_det:
            if det % p:
                return MatElt.from_rows(work, ((a, b), (c, d)))
        elif det and det % p == 0 and integer_valuation(det, p) < M:
            return MatElt.from_rows(work, ((a, b), (c, d)))


def _guarded_val(ctx: PAdicContext, x: int, big: int) -> int:
    if x % ctx.modulus == 0:
        return big
    return integer_valuation(x % ctx.modulus, ctx.p)


def _split_route(g: MatElt, kind: OrderKind) -> tuple[MatElt, int]:
    """Peel a Pi factor (J) or column swap (M) so the clearing op is integral.

    Returns (g', side) with g = g' * (peeled factor), side 1 when peeled.
    """
    ctx = g.ctx
    big = 10 * ctx.M
    vc = _guarded_val(ctx, g.e21, big)
    vd = _guarded_val(ctx, g.e22, big)
    if kind is OrderKind.J:
        if vc > vd:
            return g, 0
        return g * pi_matrix_inv(ctx), 1
    if vc >= vd:
        return g, 0
    swap = MatElt.from_rows(ctx, ((0, 1), (1, 0)))
    return g * swap, 1


def _split_classify_witness(g0: MatElt, kind: OrderKind) -> tuple[int, int, bool]:
    """(r, side, witnessed): classify g0 and verify g0 in T n(p^-r) K_O.

    The witness is h = n(-p^-r) diag(unit-part(u),1)^-1 tau^-1 g in K_O with
    tau = diag(det/d, d) read off the cleared matrix; everything is exact.
    """
    ctx = g0.ctx
    p, mod = ctx.p, ctx.modulus
    g, side = _split_route(g0, kind)
    den = g.den
    b_int, d_int = g.e12, g.e22
    det_int = g.det_int()
    big = 10 * ctx.M
    vb_i = _guarded_val(ctx, b_int, big)
    vd_i = _guarded_val(ctx, d_int, big)
    vdet_i = _guarded_val(ctx, det_int, big)
    if vd_i >= big or vdet_i >= big:
        return -1, side, False
    vb, vd, vdet = vb_i - den, vd_i - den, vdet_i - 2 * den
    vu = vb + vd - vdet if vb_i < big else big
    r = max(0, -vu)
    # g = tau n(u) k1^-1 with tau = diag(det/d, d), u = b d / det; fold the
    # unit part of u into tau so the unipotent is exactly n(p^-r)
    det_unit = det_int // p ** vdet_i % mod
    d_unit = d_int // p ** vd_i % mod
    u_unit = 1
    if r >= 1:
        u_unit = (b_int // p ** vb_i) * d_unit % mod * pow(det_unit, -1, mod) % mod
    ia_unit = pow(u_unit * det_unit % mod, -1, mod) * d_unit % mod
    id_unit = pow(d_unit, -1, mod)
    # true values: 1/((det/d) u) has valuation vd - vdet, 1/d has -vd
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


def _coset_disjoint_split(work: PAdicContext, kind: OrderKind, r1: int,
                          r2: int) -> bool:
    """Certify T n(p^-r1) K_O and T n(p^-r2) K_O are disjoint for r1 != r2.

    Membership of h = n(-p^-r1) tau n(p^-r2) in K_O depends only on the
    valuations (i, j) of tau (units cancel except in the e12 = 0 degeneration,
    which the equal-units scan hits); the center reduces to min(i, j) = 0 and
    |i - j| <= 1 is forced by the level/determinant comparison, so the scan
    range below is complete.
    """
    p = work.p
    B = max(r1, r2) + 2
    for i in range(0, B + 1):
        for j in range(0, B + 1):
            if min(i, j) != 0:
                continue  # the center normalizes tau to min valuation 0
            den = max(r2 - i, r1 - j, 0)
            h = MatElt.from_rows(work, ((p ** (i + den), p ** (i + den - r2) - p ** (j + den - r1)),
                                        (0, p ** (j + den))), den=den)
            try:
                if in_normalizer(kind, h):
                    return False
            except PrecisionExhausted:
                continue
    return True


def _check_coverage_size(M: int, samples: int):
    if M < 2:
        raise ValueError("coverage needs M >= 2: no determinant has 1 <= v(det) <= M - 1")
    if samples < 1:
        raise ValueError("coverage needs samples >= 1")


def coset_coverage_split(kind: OrderKind, p: int, M: int, samples: int,
                         seed: int = 0) -> CoverageReport:
    """Sample matrices over Z/p^M and certify the split coset decomposition.

    Half the samples have unit determinant (elements of GL2(Z/p^M)); the rest
    carry determinant valuations in [1, M-1] to exercise the r >= 1 cosets.
    Every sample gets a constructive witness for its classified coset, and
    pairwise disjointness of all cosets in range is certified once.
    """
    _check_coverage_size(M, samples)
    name = "split-M" if kind is OrderKind.M else "split-J"
    rep = CoverageReport(name, p, M, samples, seed)
    work = PAdicContext(p, 6 * (M + 3))
    rng = random.Random(seed)
    r_bound = 2 * M + 2
    for r1 in range(r_bound):
        for r2 in range(r1 + 1, r_bound):
            rep.disjointness_pairs += 1
            if not _coset_disjoint_split(work, kind, r1, r2):
                rep.violations.append({"type": "cosets-intersect", "r1": r1, "r2": r2})
    for idx in range(samples):
        g = _sample_matrix(rng, p, M, work, unit_det=(idx % 2 == 0))
        r, side, ok = _split_classify_witness(g, kind)
        if not ok:
            rep.violations.append({"type": "no-witness", "sample": idx,
                                   "entries": g.entries, "r": r})
            continue
        rep.r_histogram[r] = rep.r_histogram.get(r, 0) + 1
        rep.odd_component_hits += side
        rep.deep_witness_checked += 1
    return rep


def _strip_power(ctx: PAdicContext, entries: tuple[int, int, int, int]):
    vals = [integer_valuation(e, ctx.p) for e in entries if e]
    if not vals:
        return entries
    k = min(vals)
    return tuple(e // ctx.p ** k for e in entries)


def _intertwiner(work: PAdicContext, X: MatElt, Y: MatElt) -> MatElt | None:
    """Some nonzero P with X P = P Y, via cyclic vectors and the adjugate."""
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
            se = _strip_power(work, P.entries)
            best = MatElt.from_rows(work, (se[:2], se[2:]))
            best_loss = loss
    return best


def _nonsplit_deep_witness(work: PAdicContext, torus: TorusData, kind: OrderKind,
                           g: MatElt, r: int) -> bool:
    """Exhibit y in E^x, k in K_O with g in iota(E^x) a_r K_O, by unit-grid scan."""
    base = MatrixEmbedding(torus, OrderKind.M, 0)
    Y = base.of_coords(0, 1).conj_by(g)
    emb = checked_embedding(torus, kind, r)
    X = emb.of_coords(0, 1)
    P = _intertwiner(work, X, Y)
    if P is None:
        return False
    p = work.p
    for alpha in range(p * p):
        for beta in range(p * p):
            if alpha % p == 0 and beta % p == 0:
                continue
            k = emb.of_coords(alpha, beta) * P
            try:
                if in_normalizer(kind, k):
                    return True
            except PrecisionExhausted:
                continue
    return False


def coset_coverage_nonsplit(kind: OrderKind, torus_kind: str, p: int, M: int,
                            samples: int, seed: int = 0,
                            deep_witnesses: int = 300) -> CoverageReport:
    """Sample matrices over Z/p^M and certify the field-torus decomposition.

    The classifier is the optimal-embedding level of the conjugated torus,
    total and single-valued, so assignments are unique by construction; a
    deterministic subsample additionally gets full conjugating witnesses.
    For the Iwahori order over an unramified torus a level-0 assignment is a
    violation (there is no such optimal embedding).
    """
    _check_coverage_size(M, samples)
    name = f"nonsplit-{kind.value}"
    rep = CoverageReport(name, p, M, samples, seed)
    work = PAdicContext(p, 6 * (M + 3))
    torus = _canonical_torus(torus_kind, p, work.M)
    rng = random.Random(seed)
    theta = MatrixEmbedding(torus, OrderKind.M, 0).of_coords(0, 1)
    bound = 2 * M + 4
    for idx in range(samples):
        g = _sample_matrix(rng, p, M, work, unit_det=(idx % 2 == 0))
        try:
            Y = theta.conj_by(g)
        except ValueError:
            Y = None
        if Y is None:
            rep.violations.append({"type": "no-inverse", "sample": idx})
            continue
        r = next((j for j in range(bound) if order_membership(kind, Y.scale_p(j))), None)
        if r is None:
            rep.violations.append({"type": "no-level", "sample": idx,
                                   "entries": g.entries})
            continue
        if kind is OrderKind.J and torus.kind == UNRAMIFIED and r == 0:
            rep.violations.append({"type": "level-0-iwahori", "sample": idx,
                                   "entries": g.entries})
            continue
        rep.r_histogram[r] = rep.r_histogram.get(r, 0) + 1
        if idx < deep_witnesses:
            if _nonsplit_deep_witness(work, torus, kind, g, r):
                rep.deep_witness_checked += 1
            else:
                rep.violations.append({"type": "no-witness", "sample": idx,
                                       "entries": g.entries, "r": r})
    return rep
