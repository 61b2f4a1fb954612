"""Independent brute-force validation of the closed-form orbital integrals.

The only closed form this module evaluates is the unit index that
index_enumeration_test compares its count against.  Unit-group indices come from
exhaustive counting in finite quotients, coset volumes from those counts, and
every indicator from explicit matrix or quaternion congruence arithmetic.
Full enumerations are capped at 2^20 residues; larger indices are assembled
from exhaustively counted strata (head index times radical-quotient counts).
SL2(Z) class counts come from conjugation closures of bounded matrices.
Nothing here imports geodesics or assembly, whose results it checks.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache

from .integrals import TestFunctionSpec
from .orders import (
    DivisionEmbedding,
    MatElt,
    MatrixEmbedding,
    OrderKind,
    congruence_subgroup_membership,
    division_embedding,
    exact_radical_level,
    in_normalizer,
    order_membership,
    order_unit_index,
    radical_power_membership,
    scaled_order_level,
    split_conjugate,
)
from .padic import (
    ENUM_CAP,
    GUARD,
    EnumerationTooLarge,
    NonHyperbolicTrace,
    PAdicContext,
    PrecisionExhausted,
    RegularElement,
    SPLIT,
    TorusData,
    UNRAMIFIED,
    RAMIFIED,
    ramified_torus,
    split_torus,
    unramified_generator_constant,
    unramified_torus,
)


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
    """|radical^m / radical^(m+1)|, counted over digit windows.

    The radical powers are coordinate lattices, so the four coordinates are
    independent and the count is the product of the window sizes.  The cap
    still applies, as to an enumeration of that many digit tuples.
    """
    windows = _radical_digit_windows(kind, m)
    sizes = [p ** (hi - lo) for lo, hi in windows]
    total = sizes[0] * sizes[1] * sizes[2] * sizes[3]
    _check_cap(total)
    return total


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


@lru_cache(maxsize=None)
def checked_embedding(torus: TorusData, kind: OrderKind, level: int) -> MatrixEmbedding:
    """The embedding at the given level, verified optimal once per (torus, kind, level)."""
    emb = MatrixEmbedding(torus, kind, level)
    if not verify_embedding_optimal(emb):
        raise AssertionError(f"embedding at level {level} failed the optimality check")
    return emb


@lru_cache(maxsize=None)
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
    if scaled_order_level(OrderKind.J, cand, 12) == 0:
        return False
    for rows in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)),
                 ((1, 0), (1, 1)), ((1, 0), (0, p)), ((p, 0), (0, 1)),
                 ((0, 1), (p, 0)), ((1, 0), (p, 1)), ((1, 1), (1, 2))):
        try:
            moved = _conjugated(cand, MatElt.from_rows(ctx, rows).entries)
            if scaled_order_level(OrderKind.J, moved, 12) == 0:
                return False
        except PrecisionExhausted:
            continue
    return True


def _odd_component_factor(candidates: Iterable[MatElt]) -> int:
    """1 if some candidate is in K_J at odd exact radical level (so in pi J^x), else 2."""
    for x in candidates:
        try:
            if in_normalizer(OrderKind.J, x) and exact_radical_level(OrderKind.J, x) % 2:
                return 1
        except PrecisionExhausted:
            continue
    return 2


@lru_cache(maxsize=None)
def iwahori_side_factor(emb: MatrixEmbedding) -> int:
    """2 unless the embedded torus meets the odd component of K_J.

    Scans the units alpha + beta theta0 with alpha, beta mod p^2, once per embedding.
    """
    p = emb.torus.ctx.p
    return _odd_component_factor(emb.of_coords(alpha, beta) for alpha, beta
                                 in itertools.product(range(p * p), repeat=2)
                                 if alpha % p or beta % p)


def split_side_factor(torus: TorusData, kind: OrderKind) -> int:
    """Component factor for the diagonal torus: 1 for K_M, scanned for K_J.

    The scan covers diag(p^i, p^j) with i, j in 0..3.
    """
    if kind is OrderKind.M:
        return 1
    ctx, p = torus.ctx, torus.ctx.p
    return _odd_component_factor(MatElt.from_rows(ctx, ((p ** i, 0), (0, p ** j)))
                                 for i in range(4) for j in range(4))


@lru_cache(maxsize=None)
def _division_coset(torus: TorusData) -> tuple[DivisionEmbedding, int]:
    """D's one coset per torus: the embedding, and the side factor from xi's parity."""
    demb = division_embedding(torus)
    return demb, 1 if exact_radical_level(OrderKind.D, demb.xi) % 2 else 2


# ---------------------------------------------------------------------------
# the brute-force orbital integral


def _cosets(kind: OrderKind, x: RegularElement, r_max: int | None) -> Iterator[tuple]:
    """(r, side factor, volume ratio, element tested for U^n) per coset, r increasing.

    Split tori: T n(p^-r) K_O, r = 0..r_max.  Field tori: the optimal embeddings
    of level r_min..r_max (r_min = 1 for J on an unramified torus).  D: one coset.
    """
    torus = x.torus
    p = torus.ctx.p
    if kind is OrderKind.D:
        demb, side = _division_coset(torus)
        yield 0, side, 1, demb.of(x)
    elif torus.kind == SPLIT:
        side = split_side_factor(torus, kind)
        for r in range(r_max + 1):
            ratio = 1 if r == 0 else enum_unit_filtration_index(p, r)
            yield r, side, ratio, split_conjugate(torus, x, r)
    else:
        r_min = int(kind is OrderKind.J and torus.kind == UNRAMIFIED)
        if r_min and not iwahori_level_zero_missing(torus):
            raise AssertionError("unexpected level-0 Iwahori embedding")
        for r in range(r_min, r_max + 1):
            emb = checked_embedding(torus, kind, r)
            ratio = enum_quad_order_index(torus, r)
            side = iwahori_side_factor(emb) if kind is OrderKind.J else 1
            yield r, side, ratio, emb.of(x)


def oracle_orbital(spec: TestFunctionSpec, x: RegularElement) -> Fraction:
    """Coset-by-coset recomputation: sum of side * ratio * [O^x : U^n] over the cosets in U^n.

    Volumes come from enumerated indices; indicators from explicit matrix or
    quaternion congruence membership.  The term one past the truncation bound
    is evaluated and asserted to vanish.
    """
    torus, kind, n = x.torus, spec.kind, spec.n
    ctx = torus.ctx
    if kind is OrderKind.D:
        if torus.kind == SPLIT:
            return Fraction(0)
        which, r_max = "division", None  # one coset, nothing to truncate
    else:
        which, r_max = ("split", x.val_gap() + 1) if torus.kind == SPLIT \
            else ("field", x.conductor() + 1)
        if r_max + n + GUARD >= ctx.M:
            raise PrecisionExhausted(f"raise M: {which} truncation bound too close")
    unit_index = enum_order_unit_index(kind, ctx.p, n)
    value = Fraction(0)
    for r, side, ratio, element in _cosets(kind, x, r_max):
        if congruence_subgroup_membership(kind, element, n):
            if r == r_max:
                raise AssertionError(f"{which} coset sum failed to truncate")
            value += side * ratio * unit_index
    if spec.include_norm_index:
        _, index = enum_norm_image(kind, ctx.p, n)
        value /= index
    return value


# ---------------------------------------------------------------------------
# norm/determinant images of the congruence subgroups


@lru_cache(maxsize=None)
def enum_norm_image(kind: OrderKind, p: int, n: int) -> tuple[tuple[int, ...], int]:
    """(levels, [o^x : image]) for the det/nu image of U^n, enumerated mod p^K.

    levels holds every m < K - 1 whose U_o^m is the image; no predicted level
    is consulted.  At p = 2, where U_o^0 = U_o^1, it can hold two levels.
    U^0 maps onto o^x = U_o^0.

    The determinant of 1 + y sees the four digit windows of y only through
    (1+da)(1+dd) and db*dc (norm of the two halves for the division order),
    so each product set is enumerated exhaustively and then combined.
    """
    if n == 0:
        return (0,), 1
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

    levels = tuple(m for m in range(K - 1) if images == target(m))
    if not levels:
        raise AssertionError("norm image is not a unit filtration subgroup")
    assert len(units) % len(images) == 0
    return levels, len(units) // len(images)


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
        return {**asdict(self), "ok": self.ok,
                "r_histogram": {str(k): v for k, v in sorted(self.r_histogram.items())}}


@lru_cache(maxsize=1)
def _coverage_samples(p: int, M: int, samples: int, seed: int) -> Sequence[int]:
    """The seeded sample stream of one coverage run, read by every decomposition.

    Sample idx is uniform with unit determinant when idx is even, and with
    1 <= v(det) <= M-1 when idx is odd.  Each entry is k = bit_length(p^M)
    random bits, redrawn until below p^M: the bits rng.randrange(p^M)
    consumes, so the stream does not depend on how randrange is implemented.
    Each matrix is packed as the base-p^M integer with digits (a, b, c, d),
    8 bytes a sample in an array('Q') while p^(4M) fits in 64 bits and a
    list of ints beyond.
    """
    from array import array  # here, so that only coverage loads it (0.1 MiB RSS)
    getrandbits = random.Random(seed).getrandbits
    mod = p ** M
    k = mod.bit_length()
    out = array("Q") if mod ** 4 <= 1 << 64 else []
    append = out.append
    for idx in range(samples):
        unit_det = idx % 2 == 0
        while True:
            a = getrandbits(k)
            while a >= mod:
                a = getrandbits(k)
            b = getrandbits(k)
            while b >= mod:
                b = getrandbits(k)
            c = getrandbits(k)
            while c >= mod:
                c = getrandbits(k)
            d = getrandbits(k)
            while d >= mod:
                d = getrandbits(k)
            # det nonzero mod p^M: a unit, or 1 <= v(det) <= M-1
            det = (a * d - b * c) % mod
            if det and (det % p != 0) == unit_det:
                break
        append(((a * mod + b) * mod + c) * mod + d)
    return out


def _draws_repeat(p: int, M: int, samples: int) -> bool:
    """Whether the stream must repeat matrices: p^(4M) <= samples.

    Only then does a per-run memo of outcomes pay for itself.  Where the space
    is larger, almost every draw is distinct (19 615 of 20 000 at p = 3,
    M = 3), so a memo would only hold every outcome in memory for no saving.
    """
    return p ** (4 * M) <= samples


def _classified_stream(p: int, M: int, samples: int, seed: int,
                       classify: Callable[[tuple[int, int, int, int]], object]
                       ) -> Iterator[tuple[int, tuple[int, int, int, int], object]]:
    """Yield (idx, entries, classify(entries)) over the seeded sample stream.

    classify runs once per distinct matrix when draws must repeat, else once
    per sample; either way every sample is yielded with its own index.
    """
    mod = p ** M
    memo = {} if _draws_repeat(p, M, samples) else None
    for idx, key in enumerate(_coverage_samples(p, M, samples, seed)):
        rest, d = divmod(key, mod)
        rest, c = divmod(rest, mod)
        entries = (*divmod(rest, mod), c, d)
        if memo is None:
            outcome = classify(entries)
        elif key in memo:
            outcome = memo[key]
        else:
            outcome = memo[key] = classify(entries)
        yield idx, entries, outcome


_NO_INVERSE = "no-inverse"  # outcome of a sample singular at the working precision


def _split_classify_witness(work: PAdicContext, kind: OrderKind,
                            entries: tuple[int, int, int, int]) -> tuple[int, int, bool] | str:
    """(r, side, witnessed): classify g0 = entries and verify g0 in T n(p^-r) K_O.

    g0 is first routed to g = g0 * (peeled factor): a Pi^-1 = (0 1; p 0) / p
    factor for J unless v(c) > v(d), a column swap for M when v(c) < v(d);
    side is 1 when a factor was peeled.  The witness is
    h = n(-p^-r) diag(unit-part(u),1)^-1 tau^-1 g in K_O with
    tau = diag(det/d, d) read off g; everything is exact integer arithmetic
    on the four entries mod the working modulus, and h is the one MatElt built.
    _NO_INVERSE when d or det vanishes at the working precision.
    """
    p, mod, M, depth = work.p, work.modulus, work.M, work.depth
    a, b, c, d = entries
    vc = depth(c)
    vd = depth(d)
    if kind is OrderKind.J:
        side = int(vc <= vd)
        g11, g12, g21, g22, den = (b * p, a, d * p, c, 1) if side else (a, b, c, d, 0)
    else:
        side = int(vc < vd)
        g11, g12, g21, g22, den = (b, a, d, c, 0) if side else (a, b, c, d, 0)
    b_int, d_int = g12 % mod, g22 % mod
    det_int = (g11 * g22 - g12 * g21) % mod
    vb_i = depth(b_int)
    vd_i = depth(d_int)
    vdet_i = depth(det_int)
    if vd_i == M or vdet_i == M:
        return _NO_INVERSE
    vb, vd, vdet = vb_i - den, vd_i - den, vdet_i - 2 * den
    # r = max(0, -v(u)) with u = b d / det; u = 0 puts g in the r = 0 coset
    r = max(0, vdet - vb - vd) if vb_i < M else 0
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
    # n(-p^-r) tau^-1 = ((p^r x, -y), (0, p^r y)) / p^(r+E) with
    # tau^-1 = diag(x, y) / p^E
    pr = p ** r
    x = pr * p ** (E - (vdet - vd)) * ia_unit
    y = p ** (E - vd) * id_unit
    h = MatElt(work, (x * g11 - y * g21) % mod, (x * g12 - y * g22) % mod,
               pr * y * g21 % mod, pr * y * g22 % mod, r + E + den)
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
    # the center normalizes tau to min valuation 0: only the axis pairs remain
    axis = [(0, j) for j in range(B + 1)] + [(i, 0) for i in range(1, B + 1)]
    for i, j in axis:
        den = max(r2 - i, r1 - j, 0)
        h = MatElt.from_rows(work, ((p ** (i + den), p ** (i + den - r2) - p ** (j + den - r1)),
                                    (0, p ** (j + den))), den=den)
        try:
            if in_normalizer(kind, h):
                return False
        except PrecisionExhausted:
            continue
    return True


def check_coverage_size(M: int, samples: int):
    """ValueError when the inputs certify nothing, EnumerationTooLarge above ENUM_CAP."""
    if M < 2:
        raise ValueError("coverage needs M >= 2: no determinant has 1 <= v(det) <= M - 1")
    if samples < 1:
        raise ValueError("coverage needs samples >= 1")
    if samples > ENUM_CAP:
        raise EnumerationTooLarge(f"{samples} coverage samples exceed 2^20")
    R = 2 * M + 1  # the split disjointness pass scans R (R + 1) (4R + 17) / 6 axis points
    if R * (R + 1) * (4 * R + 17) // 6 > ENUM_CAP:
        raise EnumerationTooLarge(f"coverage at M = {M} scans over 2^20 axis points")


def coset_coverage_split(kind: OrderKind, p: int, M: int, samples: int,
                         seed: int = 0) -> CoverageReport:
    """Sample matrices over Z/p^M and certify the split coset decomposition.

    Half the samples have unit determinant (elements of GL2(Z/p^M)); the rest
    carry determinant valuations in [1, M-1] to exercise the r >= 1 cosets.
    Every sample gets a constructive witness for its classified coset, and
    pairwise disjointness of all cosets in range is certified once.
    """
    check_coverage_size(M, samples)
    name = "split-M" if kind is OrderKind.M else "split-J"
    rep = CoverageReport(name, p, M, samples, seed)
    work = PAdicContext(p, 6 * (M + 3))
    r_bound = 2 * M + 2
    for r1 in range(r_bound):
        for r2 in range(r1 + 1, r_bound):
            rep.disjointness_pairs += 1
            if not _coset_disjoint_split(work, kind, r1, r2):
                rep.violations.append({"type": "cosets-intersect", "r1": r1, "r2": r2})

    def classify(entries):
        return _split_classify_witness(work, kind, entries)

    for idx, entries, outcome in _classified_stream(p, M, samples, seed, classify):
        if outcome == _NO_INVERSE:
            rep.violations.append({"type": "no-inverse", "sample": idx})
            continue
        r, side, ok = outcome
        if not ok:
            rep.violations.append({"type": "no-witness", "sample": idx,
                                   "entries": entries, "r": r})
            continue
        rep.r_histogram[r] = rep.r_histogram.get(r, 0) + 1
        rep.odd_component_hits += side
        rep.deep_witness_checked += 1
    return rep


def _strip_power(ctx: PAdicContext, entries: tuple[int, int, int, int]):
    """entries / p^k for the least valuation k; all zeros stay zero (k = M)."""
    k = min(map(ctx.depth, entries))
    return tuple(e // ctx.p ** k for e in entries)


def _cyclic_basis(work: PAdicContext, X: MatElt) -> MatElt | None:
    """T(v) = p^den (v | X v) for the first candidate v of least v(det T(v)).

    None when every det T(v) vanishes at the working precision.
    """
    p = work.p
    s = p ** X.den
    best, best_val = None, work.M
    for v0, v1 in ((1, 0), (0, 1), (1, 1), (1, p), (p, 1)):
        T = MatElt.from_rows(work, ((v0 * s, X.e11 * v0 + X.e12 * v1),
                                    (v1 * s, X.e21 * v0 + X.e22 * v1)))
        lv = work.depth(T.det_int())
        if lv < best_val:
            best, best_val = T, lv
    return best


def _intertwiner(work: PAdicContext, X: MatElt, Y: MatElt) -> MatElt | None:
    """Some nonzero P with X P = P Y, via cyclic vectors and the adjugate.

    P = T_X(v) adj(T_Y(w)), so v(det P) = v(det T_X(v)) + v(det T_Y(w)), and
    the least v(det P) takes the best v and the best w independently.  Each
    term is below M, so det P is nonzero mod p^(2M) and P nonzero mod p^M.
    """
    Tv, Tw = _cyclic_basis(work, X), _cyclic_basis(work, Y)
    if Tv is None or Tw is None:
        return None
    adj = MatElt.from_rows(work, ((Tw.e22, -Tw.e12), (-Tw.e21, Tw.e11)))
    # X P = P Y up to the scalar det(Tw), which commutes
    se = _strip_power(work, (Tv * adj).entries)
    return MatElt.from_rows(work, (se[:2], se[2:]))


def _conjugated(theta: MatElt, entries: tuple[int, int, int, int]) -> MatElt:
    """g^-1 theta g for g = entries, computed on the integer entries.

    g^-1 = adj(g) u^-1 / p^v(det), with u the unit part of det mod
    ctx.modulus, so the product is adj(g) theta g u^-1 at denominator
    v(det) + theta.den.  Raises PrecisionExhausted where det vanishes at
    the precision.
    """
    ctx, t11, t12, t21, t22, tden = theta
    mod = ctx.modulus
    a, b, c, d = entries
    det = (a * d - b * c) % mod
    vdet = ctx.val(det)
    ui = ctx.inv(det // ctx.p ** vdet)
    x11, x12 = t11 * a + t12 * c, t11 * b + t12 * d  # theta g
    x21, x22 = t21 * a + t22 * c, t21 * b + t22 * d
    return MatElt(ctx, (d * x11 - b * x21) * ui % mod, (d * x12 - b * x22) * ui % mod,
                  (a * x21 - c * x11) * ui % mod, (a * x22 - c * x12) * ui % mod,
                  vdet + tden)


def _nonsplit_deep_witness(work: PAdicContext, torus: TorusData, kind: OrderKind,
                           entries: tuple[int, int, int, int], r: int) -> bool:
    """Exhibit y in E^x, k in K_O with g in iota(E^x) a_r K_O, by unit-grid scan.

    of_coords is linear in (alpha, beta), so k = of_coords(alpha, beta) P is
    alpha K0 + beta K1 with K0, K1 the products at (1, 0) and (0, 1).
    """
    Y = _conjugated(MatrixEmbedding(torus, OrderKind.M, 0).of_coords(0, 1), entries)
    emb = checked_embedding(torus, kind, r)
    X = emb.of_coords(0, 1)
    P = _intertwiner(work, X, Y)
    if P is None:
        return False
    p, mod = work.p, work.modulus
    _, a0, b0, c0, d0, den = emb.of_coords(1, 0) * P
    _, a1, b1, c1, d1, _ = X * P
    for alpha in range(p * p):
        for beta in range(p * p):
            if alpha % p == 0 and beta % p == 0:
                continue
            k = MatElt(work, (alpha * a0 + beta * a1) % mod, (alpha * b0 + beta * b1) % mod,
                       (alpha * c0 + beta * c1) % mod, (alpha * d0 + beta * d1) % mod, den)
            try:
                if in_normalizer(kind, k):
                    return True
            except PrecisionExhausted:
                continue
    return False


DEEP_WITNESSES = 300  # nonsplit samples, from the first, that also get a conjugating witness


def coset_coverage_nonsplit(kind: OrderKind, torus_kind: str, p: int, M: int,
                            samples: int, seed: int = 0) -> CoverageReport:
    """Sample matrices over Z/p^M and certify the field-torus decomposition.

    The classifier is the optimal-embedding level of the conjugated torus,
    total and single-valued, so assignments are unique by construction; the
    first DEEP_WITNESSES samples additionally get full conjugating witnesses.
    For the Iwahori order over an unramified torus a level-0 assignment is a
    violation (there is no such optimal embedding).
    """
    check_coverage_size(M, samples)
    name = f"nonsplit-{kind.value}"
    rep = CoverageReport(name, p, M, samples, seed)
    work = PAdicContext(p, 6 * (M + 3))
    torus = _canonical_torus(torus_kind, p, work.M)
    theta = MatrixEmbedding(torus, OrderKind.M, 0).of_coords(0, 1)
    bound = 2 * M + 4

    def level(entries):
        """The optimal-embedding level, None when there is none, or _NO_INVERSE."""
        try:
            Y = _conjugated(theta, entries)
        except PrecisionExhausted:  # det(g) vanishes at the working precision
            return _NO_INVERSE
        return scaled_order_level(kind, Y, bound)

    for idx, entries, r in _classified_stream(p, M, samples, seed, level):
        if r == _NO_INVERSE:
            rep.violations.append({"type": "no-inverse", "sample": idx})
            continue
        if r is None:
            rep.violations.append({"type": "no-level", "sample": idx,
                                   "entries": entries})
            continue
        if kind is OrderKind.J and torus.kind == UNRAMIFIED and r == 0:
            rep.violations.append({"type": "level-0-iwahori", "sample": idx,
                                   "entries": entries})
            continue
        rep.r_histogram[r] = rep.r_histogram.get(r, 0) + 1
        if idx < DEEP_WITNESSES:
            if _nonsplit_deep_witness(work, torus, kind, entries, r):
                rep.deep_witness_checked += 1
            else:
                rep.violations.append({"type": "no-witness", "sample": idx,
                                       "entries": entries, "r": r})
    return rep


# ---------------------------------------------------------------------------
# hyperbolic class counts by conjugation closure


def _int_mat_mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def class_count_bruteforce(t: int) -> int:
    """Independent class count: enumerate bounded matrices, merge conjugates.

    Seeds are all trace-t determinant-1 matrices with entries bounded by
    30; the conjugation graph under the two standard generators is explored
    inside the larger box of entries bounded by 400 and components are counted.
    """
    if abs(t) <= 2:
        raise NonHyperbolicTrace(str(t))
    bound, closure = 30, 400
    seeds = set()
    for a in range(-bound, bound + 1):
        d = t - a
        if abs(d) > bound:
            continue
        bc = a * d - 1
        if bc == 0:
            for b in range(-bound, bound + 1):
                seeds.add((a, b, 0, d))
                seeds.add((a, 0, b, d))
        else:
            for b in range(-bound, bound + 1):
                if b and bc % b == 0 and abs(bc // b) <= bound:
                    seeds.add((a, b, bc // b, d))
    S = (0, -1, 1, 0)
    Si = (0, 1, -1, 0)
    T = (1, 1, 0, 1)
    Ti = (1, -1, 0, 1)
    conj = [(S, Si), (Si, S), (T, Ti), (Ti, T)]
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    frontier = list(seeds)
    for s in seeds:
        parent[s] = s
    while frontier:
        nxt = []
        for g in frontier:
            for c, ci in conj:
                h = _int_mat_mul(ci, _int_mat_mul(g, c))
                if max(abs(e) for e in h) > closure:
                    continue
                if h not in parent:
                    parent[h] = h
                    nxt.append(h)
                union(g, h)
        frontier = nxt
    return len({find(s) for s in seeds})
