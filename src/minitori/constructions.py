"""End-to-end certificate pipelines and the worked-example catalog.

* construct_rational: sampling + exact integer LP realization of any rational torus.
* construct_pencil_3torus: the exact certificate of an integer vector set Y
  in Z^n, routed by the dimension s of the slice W_Y: its single point
  (s = 0), the pencil (s = 1, n <= 5) or the rank-4 chart (s = 2, n = 3),
  with Q*^{-1}/n decided in the hull.
* pythagorean_family: the non-homogeneous 12-class family over a primitive
  Pythagorean triple.
* bryant_2torus: the classical one-parameter family of minimal flat 2-tori
  in S^7 degenerating to S^5 at the endpoints.
* catalog: six exactly verified certificates (rational through quartic
  irrational), with the published numerical approximations kept as metadata.
  An irrational entry is data, (Y, field, exact critical parameter): the
  parametrization of the route that finds the critical point derives Q, and
  exact hull membership the weights.
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .certificates import GramOperator, MatrixData, verify_full, verify_matrix_data
from .lattices import canonical_class, rational_points_on_ellipsoid
from .optimize import (Columns, InfeasibleRegion, as_columns, build_slice,
                       exact_hull_weights, pencil_maximize, rank4_chart, rank4_maximize)
from .scalars import AlgebraicField, AlgebraicScalar, Rat
from .symmetric import SymMatrix, inverse, is_positive_definite, rank, rank_one_rows


class ConstructionError(RuntimeError):
    """A pipeline could not produce a verified certificate."""


# ---------------------------------------------------------------------------
# rational tori: sampling + exact LP

class RationalPipelineConfig:
    __slots__ = ("q", "sample_count", "seed", "max_denominator")

    def __init__(self, q: SymMatrix, sample_count: int = 48, seed: int = 0,
                 max_denominator: int = 10**4):
        if sample_count < q.n * (q.n + 1) // 2:
            raise ValueError("sample_count must be at least n(n+1)/2")
        if max_denominator < 1:
            raise ValueError("max_denominator must be positive")
        self.q, self.sample_count, self.seed, self.max_denominator = (
            q, sample_count, seed, max_denominator)


def construct_rational(cfg: RationalPipelineConfig) -> MatrixData:
    """Certificate for a rational torus, up to the integer dilation mu.

    Scales Q so e_1 lies on the hyper-ellipsoid, samples rational points on
    it by projection through e_1, clears denominators with a single integer
    mu (points pushing the running lcm past max_denominator are discarded),
    and decides the exact hull membership

        sum_j lambda_j R_j R_j^t = Q^{-1}/n,   lambda >= 0

    on integers, as `exact_hull_weights` of the integer columns Y_j = mu R_j
    and the target mu^2 Q^{-1}/n; the span test is the `rank` of the same
    `rank_one_rows`.  That is the rational system times mu^2 on both sides,
    so Bland's rule makes the same pivots and lambda is the same.

    The points arrive as integer numerators over one lowest-terms denominator
    (`rational_points_on_ellipsoid`), so the +/- dedupe, mu and the columns
    are integer work: no Fraction is built before Q/mu^2 and the LP.

    Zero-weight columns are dropped; the result is the verified matrix data
    {Q/mu^2, mu R} of the mu-scaled torus.  A quadric with too few sampled
    points, a deficient span or an infeasible LP raise ConstructionError.
    """
    q = cfg.q
    if q.regime != "rational":
        raise TypeError("the rational pipeline needs a rational Gram matrix")
    if is_positive_definite(q) is not True:
        raise ValueError("Gram matrix must be positive definite")
    n = q.n
    s = Fraction(q.entries[0][0])
    qs = q.scale(1 / s)

    e1 = (1,) + (0,) * (n - 1)
    points = [(e1, 1)]
    for i in range(1, n):
        if qs.entries[i][i] == 1:
            points.append((tuple(int(k == i) for k in range(n)), 1))
    try:
        points += rational_points_on_ellipsoid(qs, e1, cfg.sample_count, cfg.seed)
    except RuntimeError as exc:  # the quadric has too few sampled rational points
        raise ConstructionError(f"{exc}; retry with fewer samples or a different seed") from exc

    # a point (nums, d) is in lowest terms, so d is the lcm of its denominators;
    # on the quadric d^2 = nums^t Q nums, so nums alone names the point's class
    mu = 1
    kept: list[tuple[tuple[int, ...], int]] = []
    seen = set()
    for nums, d in points:
        canon = canonical_class(nums)
        if canon in seen:
            continue
        new_mu = math.lcm(mu, d)
        if new_mu > cfg.max_denominator:
            continue
        mu = new_mu
        seen.add(canon)
        kept.append((nums, d))

    cols = [tuple(x * (mu // d) for x in nums) for nums, d in kept]
    span_rank = rank(rank_one_rows(cols))
    if span_rank < n * (n + 1) // 2:
        raise ConstructionError(
            f"sampled points span only {span_rank}/{n*(n+1)//2} of Sym_n; "
            "retry with more samples or a different seed")

    lam = exact_hull_weights(cols, inverse(qs).scale(Fraction(mu * mu, n)))
    if lam is None:
        raise ConstructionError(
            "the convex-combination LP is infeasible for the sampled points; "
            "retry with more samples or a different seed")

    y_cols = tuple(col for col, w in zip(cols, lam) if w)
    weights = tuple(w for w in lam if w)
    data = MatrixData(q=qs.scale(Fraction(1, mu * mu)), y=y_cols, weights=weights,
                      metadata={"construction": "rational", "mu": mu,
                                "seed": cfg.seed, "scale": str(s)})
    report = verify_matrix_data(data)
    if not report.verified:
        raise ConstructionError(f"pipeline output failed verification: {report.reason}")
    return data


# ---------------------------------------------------------------------------
# the exact constructions from an integer vector set, routed by the slice dimension

def construct_pencil_3torus(y) -> MatrixData:
    """Certificate for a spanning integer vector set in Z^n via det maximization.

    The dimension s = n(n+1)/2 - rank{Y_j Y_j^t} of the slice W_Y picks the
    route, the metadata "construction": s = 0, "solve", the slice's single
    point, if positive definite; s = 1, "pencil" (`pencil_maximize`, n <= 5);
    s = 2 with n = 3, "rank4" (`rank4_maximize`).  Any other s raises
    ValueError.  Hull membership of Q*^{-1}/n is decided exactly; failure
    raises ConstructionError (Y supports no minimal immersion).  The name
    predates n != 3 and stays, because the benchmark's tracer wraps it by name.
    """
    cols = as_columns(y)
    slice_w = build_slice(cols)
    if slice_w.s == 0:
        if is_positive_definite(slice_w.q0) is not True:
            raise InfeasibleRegion("the single point of the slice is not positive definite")
        return _certificate(cols, slice_w.q0, None, "solve")
    if slice_w.s == 1:
        crit, route = pencil_maximize(slice_w), "pencil"
    elif slice_w.s == 2 and slice_w.n == 3:
        crit, route = rank4_maximize(rank4_chart(cols)), "rank4"
    else:
        raise ValueError(f"the slice W_Y has dimension s = {slice_w.s} (n = {slice_w.n}); "
                         "only s = 0, s = 1 and, for n = 3, s = 2 are solved")
    return _certificate(cols, crit.qstar, crit.t0, route)


def _certificate(cols: Columns, qstar: SymMatrix, root: Union[None, Fraction, AlgebraicScalar],
                 construction: str) -> MatrixData:
    """The verified certificate {Q*, Y, weights} with Q*^{-1}/n in the hull.

    Its metadata holds the degree of the field of `root`, which generates Q*,
    and, when `root` is algebraic, that field's minimal polynomial."""
    weights = exact_hull_weights(cols, inverse(qstar).scale(Fraction(1, qstar.n)))
    if weights is None or not all(w > 0 for w in weights):
        raise ConstructionError(
            "the inverse of the maximizer does not lie in the interior of the hull")
    metadata = {"construction": construction, "degree": 1}
    if isinstance(root, AlgebraicScalar):
        field = root.field
        field.generator().approx()  # narrows the isolating interval the certificate records
        metadata.update(degree=field.degree, minpoly=list(field.minpoly))
    data = MatrixData(q=qstar, y=cols, weights=tuple(weights), metadata=metadata)
    ver = verify_matrix_data(data)
    if not ver.verified:
        raise ConstructionError(f"{construction} output failed verification: {ver.reason}")
    return data


# ---------------------------------------------------------------------------
# Pythagorean non-homogeneous family

class PythagoreanParams(NamedTuple):
    """Parameters of the 12-class family over a primitive triple (p, q, r).

    diagonal: the 12 coefficients a_i (None selects the centroid of the
    feasible polytope); amplitudes R1, R2 and angles phi/psi drive the
    off-diagonal blocks C_i = [[alpha_i, beta_i], [beta_i, -alpha_i]].
    """

    triple: tuple[int, int, int]
    diagonal: Optional[Sequence[Rat]] = None
    r1: float = 0.0
    r2: float = 0.0
    phi1: float = 0.0
    psi1: float = 0.0
    phi2: float = 0.0
    psi2: float = 0.0


class PythagoreanResult(NamedTuple):
    gram: GramOperator
    q: SymMatrix
    y: Columns
    diagonal: tuple[Fraction, ...]

    def matrix_data(self) -> MatrixData:
        """The homogeneous certificate carried by the diagonal part."""
        return MatrixData(q=self.q, y=self.y, weights=self.diagonal,
                          metadata={"construction": "pythagorean-homogeneous"})


def _is_primitive_triple(p: int, q: int, r: int) -> bool:
    return (0 < p < q < r and p * p + q * q == r * r
            and math.gcd(math.gcd(p, q), r) == 1)


def _hypotenuse_multiplicity(r: int) -> int:
    count = 0
    for m in range(2, math.isqrt(r) + 1):
        k2 = r - m * m
        if k2 <= 0:
            continue
        k = math.isqrt(k2)
        if k * k == k2 and k >= 1 and k < m and math.gcd(m, k) == 1 and (m - k) % 2 == 1:
            count += 1
    return count


def pythagorean_columns(p: int, q: int, r: int) -> Columns:
    return ((1, r, 0), (1, -r, 0), (1, 0, r), (1, 0, -r),
            (1, p, q), (1, -p, -q), (1, -q, p), (1, q, -p),
            (1, p, -q), (1, -p, q), (1, q, p), (1, -q, -p))


def _diagonal_constraints(p: int, q: int, r: int) -> list[list[int]]:
    """The five linear equations on the diagonal coefficients, as integer rows [A | b].

    Row 0 is a_5 + a_6 + a_11 + a_12 = a_7 + a_8 + a_9 + a_10; rows 1-4 are
    the displayed a_i + (...)/(2r^2) = 1/4 (i = 1, 3, 2, 4) times 4r^2.
    """
    r2 = 2 * r * r
    pp, pm = p * (p + r), p * (p - r)
    qp, qm = q * (q + r), q * (q - r)
    terms = [
        {5: 1, 6: 1, 11: 1, 12: 1, 7: -1, 8: -1, 9: -1, 10: -1},
        {1: r2, 5: pp, 9: pp, 6: pm, 10: pm, 8: qp, 11: qp, 7: qm, 12: qm},
        {3: r2, 5: qp, 10: qp, 6: qm, 9: qm, 7: pp, 11: pp, 8: pm, 12: pm},
        {2: r2, 5: pm, 9: pm, 6: pp, 10: pp, 8: qm, 11: qm, 7: qp, 12: qp},
        {4: r2, 5: qm, 10: qm, 6: qp, 9: qp, 7: pm, 11: pm, 8: pp, 12: pp},
    ]
    rows = []
    for i, entries in enumerate(terms):
        scale = 2 if i else 1
        row = [0] * 13
        for k, v in entries.items():
            row[k - 1] = scale * v
        row[12] = r * r if i else 0
        rows.append(row)
    return rows


def _maximal_minors(rows: list[list[int]]) -> dict[int, int]:
    """The nonzero m x m minors of an integer m x N matrix, keyed by column bit mask.

    Built row by row: the minor of rows 0..k on a column set T is the Laplace
    expansion along row k, the sum over j in T of (-1)^(k + t) row[j] times
    the minor of rows 0..k-1 on T - {j}, t the position of j in T.  The sign
    (-1)^k is folded into the support tuples (bit of j, mask of the columns
    below j, signed entry), so one popcount of T - {j} below j gives the rest.
    """
    minors = {0: 1}
    for k, row in enumerate(rows):
        support = [(1 << j, (1 << j) - 1, -x if k % 2 else x) for j, x in enumerate(row) if x]
        grown: dict[int, int] = {}
        get = grown.get
        for cols, sub in minors.items():
            for bit, below, x in support:
                if cols & bit:
                    continue
                key = cols | bit
                grown[key] = get(key, 0) + (-x if (cols & below).bit_count() % 2 else x) * sub
        minors = {cols: v for cols, v in grown.items() if v}
    return minors


def feasible_diagonal_centroid(p: int, q: int, r: int) -> tuple[Fraction, ...]:
    """Barycenter of the vertices of {a >= 0 : the five constraints hold}.

    The constraints are the integer rows [A | b] of `_diagonal_constraints`,
    with A of rank 5 (a_1..a_4 each occur in one row only).  A vertex is the
    basic solution of a basis B, five linearly independent columns of A:
    a_B = A_B^{-1} b, every other a_j = 0.  By Cramer's rule a_{B_i} = D_i / D
    with D = det A_B and D_i the determinant of A_B with column i replaced by
    b; moving b from position i to the end is 4 - i column swaps, so D_i is
    (-1)^(4-i) times the maximal minor of [A | b] on B - {B_i} and b.  All of
    them are read from one table of the maximal minors of [A | b]
    (`_maximal_minors`), and the basis gives a vertex iff D != 0 and every
    D_i D >= 0.  One pass over the table visits the bases with D != 0 (zero
    minors are not stored) and walks each from its highest column down, so
    (-1)^(4-i) alternates from + and, times sign(D), is one running sign s:
    each D_i is looked up once, and the first s D_i < 0 ends the basis.  Each
    vertex is kept as its reduced integer ratios and only the 12 centroid
    coordinates become Fractions.  (A singular column subset adds no vertex: a nonnegative
    solution on dependent columns with the free variables 0 lives on its
    independent pivot columns, which extend to a basis.)
    """
    rows = _diagonal_constraints(p, q, r)
    nvar = len(rows[0]) - 1
    minors = _maximal_minors(rows)
    get, b_bit = minors.get, 1 << nvar
    vertices = set()
    for cols, d in minors.items():
        if cols & b_bit:
            continue
        s, rest, vertex = (1 if d > 0 else -1), cols, ()
        while rest:
            j = rest.bit_length() - 1
            rest ^= 1 << j
            x = s * get(cols ^ 1 << j | b_bit, 0)
            if x < 0:
                break
            if x:
                vertex += ((j, x),)
            s = -s
        else:
            d = abs(d)
            vertices.add(tuple((j, x // g, d // g) for j, x in vertex for g in [math.gcd(x, d)]))
    if not vertices:
        raise ConstructionError("empty feasible polytope")
    den = math.lcm(*(dj for v in vertices for _, _, dj in v))
    sums = [0] * nvar
    for v in vertices:
        for j, x, dj in v:
            sums[j] += x * (den // dj)
    return tuple(Fraction(t, den * len(vertices)) for t in sums)


def pythagorean_family(params: PythagoreanParams) -> PythagoreanResult:
    """Build the (possibly non-homogeneous) family member and verify it.

    The 12 norm-1 classes over the triple admit one 6-pair frequency class,
    which supports off-diagonal blocks parameterized by (R_i, phi_i, psi_i);
    every block must stay PSD: alpha_i^2 + beta_i^2 <= a_{2i-1} a_{2i}.
    """
    p, q, r = params.triple
    if not _is_primitive_triple(p, q, r):
        raise ValueError("triple must be a primitive Pythagorean triple with p < q < r")
    if r <= 10**4 and _hypotenuse_multiplicity(r) != 1:
        raise ValueError(f"{r} is the hypotenuse of more than one primitive triple")
    cols = pythagorean_columns(p, q, r)
    qmat = SymMatrix.diag([Fraction(1, 3), Fraction(2, 3 * r * r), Fraction(2, 3 * r * r)])

    if params.diagonal is None:
        diag = feasible_diagonal_centroid(p, q, r)
    else:
        diag = tuple(Fraction(x) for x in params.diagonal)
        if len(diag) != 12:
            raise ValueError("diagonal needs 12 entries")
        for row in _diagonal_constraints(p, q, r):
            if sum(c * a for c, a in zip(row[:-1], diag)) != row[-1]:
                raise ValueError("diagonal violates the linear constraints")
        if any(a < 0 for a in diag):
            raise ValueError("diagonal entries must be nonnegative")

    ratio = Fraction(p * p - q * q, r * r)

    def amps(amp: float, phi: float, psi: float) -> list[float]:
        cp, cs = math.cos(phi) ** 2, math.cos(psi) ** 2
        return [-amp * (1 + float(ratio) * (cp - cs)),
                -amp * (1 + float(ratio) * (cs - cp)),
                amp * cp, amp * cs, amp * (1 - cs), amp * (1 - cp)]

    alpha = amps(params.r1, params.phi1, params.psi1)
    beta = amps(params.r2, params.phi2, params.psi2)
    off = {}
    for i in range(6):
        a_lo, a_hi = diag[2 * i], diag[2 * i + 1]
        bound = float(a_lo * a_hi)
        # a product that overflows is inf; a power would raise OverflowError
        norm2 = alpha[i] * alpha[i] + beta[i] * beta[i]
        if norm2 > bound + 1e-12:
            raise ValueError(
                f"block {i}: alpha^2 + beta^2 = {norm2:.3g} exceeds "
                f"a_{2*i+1} a_{2*i+2} = {bound:.3g}; the operator would not be PSD")
        if alpha[i] or beta[i]:
            off[(2 * i, 2 * i + 1)] = ((alpha[i], beta[i]), (beta[i], -alpha[i]))
    gram = GramOperator([float(a) for a in diag], off.items())
    report = verify_full(gram, (qmat, cols))
    if not report.verified:
        raise ConstructionError(f"family member failed verification: {report.reason}")
    return PythagoreanResult(gram=gram, q=qmat, y=cols, diagonal=diag)


# ---------------------------------------------------------------------------
# Bryant's 2-torus family

class Bryant2TorusParams(NamedTuple):
    """Family over the torus with modulus m/n < 1/2 (coprime integers).

    rho ranges over [0, 1/(2b)] with b = sqrt(n^2 - m^2)/n; rho_scaled, when
    given, is the exact ratio rho * 2b in [0, 1] and keeps all arithmetic
    rational (rho^2 = rho_scaled^2 / (4 b^2)).
    """

    m: int
    n: int
    rho: Optional[float] = None
    rho_scaled: Optional[Rat] = None


def bryant_2torus(params: Bryant2TorusParams) -> MatrixData:
    """The N = 4 certificate of the family member (N = 3 at the endpoints).

    Weights: r1^2 = (b^2-a^2)/(2 b^2) - (b^2-3a^2) rho^2,
             r2^2 = 1/(4 b^2) - rho^2,
             r3^2 = 1/(4 b^2) + (b^2-3a^2) rho^2,  r4^2 = rho^2,
    on the integer classes (0,n), (n,2m), (n,0), (2m,n) of the dual lattice,
    with Gram matrix [[1/n^2, -m/n^3], [-m/n^3, 1/n^2]].
    """
    m, n = params.m, params.n
    if m <= 0 or n <= 0 or math.gcd(m, n) != 1 or 2 * m >= n:
        raise ValueError("need coprime m, n with m/n < 1/2")
    a2 = Fraction(m * m, n * n)
    b2 = 1 - a2
    rho_max_sq = Fraction(1, 4) / b2
    if params.rho_scaled is not None:
        sfrac = Fraction(params.rho_scaled)
        if not 0 <= sfrac <= 1:
            raise ValueError("rho_scaled must lie in [0, 1]")
        rho_sq: Union[Fraction, float] = sfrac * sfrac * rho_max_sq
        rho_repr: Union[str, float] = f"{sfrac}/(2b)"
    elif params.rho is not None:
        rho = float(params.rho)
        if rho < 0 or rho * rho > float(rho_max_sq) * (1 + 1e-12):
            raise ValueError("rho must lie in [0, 1/(2b)]")
        rho_sq = rho * rho
        rho_repr = rho
    else:
        raise ValueError("one of rho, rho_scaled is required")

    coef = b2 - 3 * a2
    w1 = (b2 - a2) / (2 * b2) - coef * rho_sq
    w2 = rho_max_sq - rho_sq
    w3 = rho_max_sq + coef * rho_sq
    w4 = rho_sq
    weights = [w1, w2, w3, w4]
    for w in weights:
        if (isinstance(w, Fraction) and w < 0) or (isinstance(w, float) and w < -1e-15):
            raise ValueError("a squared coefficient is negative; rho out of range")
    cols = ((0, n), (n, 2 * m), (n, 0), (2 * m, n))
    qmat = SymMatrix([[Fraction(1, n * n), Fraction(-m, n ** 3)],
                      [Fraction(-m, n ** 3), Fraction(1, n * n)]])
    keep_y, keep_w = [], []
    for c, w in zip(cols, weights):
        zero = (w == 0) if isinstance(w, Fraction) else abs(w) <= 1e-15
        if not zero:
            keep_y.append(c)
            keep_w.append(w)
    data = MatrixData(q=qmat, y=tuple(keep_y), weights=tuple(keep_w),
                      metadata={"construction": "bryant", "m": m, "n": n,
                                "rho": rho_repr})
    report = verify_matrix_data(data)
    if not report.verified:
        raise ConstructionError(f"family member failed verification: {report.reason}")
    return data


# ---------------------------------------------------------------------------
# catalog

_STANDARD = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# id -> (Y, the field of Q and the critical parameter, published metadata).
# The field is a minimal polynomial (low -> high) and an isolating interval of
# its generator w; the critical parameter is written in the power basis 1, w,
# w^2, ...: t0 on the pencil of a rank-5 set, a = Q~_12 on the unit-diagonal
# chart of a rank-4 set (`_worked_q`).  The Clifford torus is rational and
# written out; quartic-s7 has no field here, because `construct_pencil_3torus`
# solves for it, the catalog's end-to-end check of the rank-4 route.
_CATALOG = {
    "clifford-3": (_STANDARD, None, {
        "description": "Clifford 3-torus in S^5", "embedded": "embedded"}),
    "quadratic-s9": (
        _STANDARD + ((6, 12, -15), (6, 9, -12)),
        ((-10801, 0, 1), (103, 104), (Fraction(39337, 443880), Fraction(-137, 443880))), {
            "description": "quadratic irrational minimal flat 3-torus in S^9",
            "embedded": "embedded",
            "approx_weights": [0.10320893, 0.26521218, 0.05879432, 0.29785994, 0.27492463]}),
    "quadratic-s7": (
        _STANDARD + ((-3, 4, -3),),
        ((-553, 0, 1), (23, 24), (Fraction(115, 144), Fraction(-1, 144))), {
            "description": "quadratic irrational minimal flat 3-torus in S^7",
            "embedded": "embedded",
            "approx_weights": [0.29260703, 0.08547337, 0.29260703, 0.32931257]}),
    "cubic-s7-a": (
        ((4, 0, 0), (0, 4, 0), (0, 0, 4), (-5, 2, -3)),
        ((-33, 149, -160, 50), (Fraction(5, 16), Fraction(21, 64)), (0, 1)), {
            "description": "cubic irrational minimal flat 3-torus in S^7 (immersed, not embedded)",
            "embedded": "not_embedded", "root_approx": 0.321061,
            "approx_weights": [0.0733429, 0.323914, 0.31128, 0.291462]}),
    "cubic-s7-b": (
        ((2, 0, 0), (0, 2, 0), (0, 0, 2), (5, 3, 4)),
        ((-253, -291, 765, 675), (Fraction(-33, 64), Fraction(-1, 2)), (0, 1)), {
            "description": "cubic irrational minimal flat 3-torus in S^7",
            "embedded": "not_embedded", "root_approx": -0.501137,
            "approx_weights": [0.0733429, 0.31128, 0.291462, 0.323914]}),
    "quartic-s7": (_STANDARD + ((5, 7, 8),), None, {
        "description": "quartic irrational minimal flat 3-torus in S^7",
        "embedded": "embedded", "root_approx": -0.149201,
        "approx_weights": [0.30459, 0.26971, 0.0934204, 0.332279]}),
}

CATALOG_IDS = tuple(_CATALOG)


def catalog(cert_id: str) -> MatrixData:
    """One of the six worked certificates, with exact field data.

    The route's own parametrization derives Q from the entry's critical
    parameter (`_worked_q`), `exact_hull_weights` the weights (Q^{-1}/n in
    the hull), and the field the metadata's degree and minimal polynomial.
    `io.emit` writes each field's isolating interval as it stands, so nothing
    here asks a sign or an approximation beyond the signs `exact_hull_weights`
    certifies.
    """
    try:
        y, critical, published = _CATALOG[cert_id]
    except KeyError:
        raise KeyError(f"unknown catalog id {cert_id!r}; known: {', '.join(CATALOG_IDS)}") from None
    meta = {"id": cert_id, **copy.deepcopy(published)}  # the table's lists stay unshared
    if cert_id == "clifford-3":
        return MatrixData(q=SymMatrix.identity(3), y=y, weights=(Fraction(1, 3),) * 3,
                          metadata={**meta, "degree": 1})
    if critical is None:
        data = construct_pencil_3torus(y)
        q, weights = data.q, data.weights
    else:
        q = _worked_q(y, *critical)
        weights = tuple(exact_hull_weights(y, inverse(q).scale(Fraction(1, q.n))))
    field = q[0, 0].field
    return MatrixData(q=q, y=y, weights=weights,
                      metadata={**meta, "degree": field.degree, "minpoly": list(field.minpoly)})


def _worked_q(y: Columns, minpoly: tuple[int, ...], interval: tuple[Rat, Rat],
              parameter: tuple[Rat, ...]) -> SymMatrix:
    """Q at the critical parameter x, an element of the field (minpoly,
    interval), through the parametrization of the route that finds it: Q0 +
    x Q1 on the pencil (`build_slice`), or the chart point (x, b(x), c(x))
    taken back to Y (`rank4_chart`).  Four vectors span at most
    four dimensions of Y_j Y_j^t, so a pencil set has at least five, and the
    rank-4 chart takes exactly four."""
    x = AlgebraicField(minpoly, interval).element(parameter)
    return (rank4_chart(y) if len(y) == 4 else build_slice(y)).at(x)


def catalog_descriptions() -> list[tuple[str, str]]:
    """(id, description) of every entry, read from the table."""
    return [(cid, published["description"]) for cid, (_, _, published) in _CATALOG.items()]
