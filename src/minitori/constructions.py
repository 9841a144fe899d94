"""End-to-end certificate pipelines and the worked-example catalog.

* construct_rational: sampling + exact LP realization of any rational torus.
* construct_pencil_3torus: the one-parameter (quadratic) and rank-4
  (up to quartic) constructions for 3-tori, fully exact.
* pythagorean_family: the non-homogeneous 12-class family over a primitive
  Pythagorean triple.
* bryant_2torus: the classical one-parameter family of minimal flat 2-tori
  in S^7 degenerating to S^5 at the endpoints.
* catalog: six exactly verified certificates (rational through quartic
  irrational), with the published numerical approximations kept as metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence, Union

from .certificates import GramOperator, MatrixData, verify_full, verify_matrix_data
from .exactlp import feasible_point
from .lattices import rational_points_on_ellipsoid
from .optimize import (Columns, InfeasibleRegion, as_columns, build_slice,
                       exact_hull_weights, pencil_maximize, rank4_lagrange)
from .scalars import (AlgebraicField, Rat, factor_min_poly, irreducible_factors,
                      isolate_real_roots, refine_root, sqrt_field)
from .symmetric import SymMatrix, inverse, is_positive_definite, rank, solve


class ConstructionError(RuntimeError):
    """A pipeline could not produce a verified certificate."""


# ---------------------------------------------------------------------------
# rational tori: sampling + exact LP

@dataclass
class RationalPipelineConfig:
    q: SymMatrix
    sample_count: int = 48
    seed: int = 0
    max_denominator: int = 10**4

    def __post_init__(self):
        n = self.q.n
        if self.sample_count < n * (n + 1) // 2:
            raise ValueError("sample_count must be at least n(n+1)/2")
        if self.max_denominator < 1:
            raise ValueError("max_denominator must be positive")


def construct_rational(cfg: RationalPipelineConfig) -> MatrixData:
    """Certificate for a rational torus, up to the integer dilation mu.

    Scales Q so e_1 lies on the hyper-ellipsoid, samples rational points on
    it by projection through e_1, clears denominators with a single integer
    mu (points pushing the running lcm past max_denominator are discarded),
    and solves the exact rational LP

        sum_j lambda_j R_j R_j^t = Q^{-1}/n,   lambda >= 0.

    Zero-weight columns are dropped; the result is the verified matrix data
    {Q/mu^2, mu R} of the mu-scaled torus.
    """
    q = cfg.q
    if q.regime != "rational":
        raise TypeError("the rational pipeline needs a rational Gram matrix")
    if is_positive_definite(q) is not True:
        raise ValueError("Gram matrix must be positive definite")
    n = q.n
    s = Fraction(q.entries[0][0])
    qs = q.scale(1 / s)

    e1 = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(n))
    points = [e1]
    for i in range(1, n):
        if qs.entries[i][i] == 1:
            points.append(tuple(Fraction(1) if k == i else Fraction(0) for k in range(n)))
    points += rational_points_on_ellipsoid(qs, e1, cfg.sample_count, cfg.seed)

    mu = 1
    kept: list[tuple[Fraction, ...]] = []
    seen = set()
    for pt in points:
        canon = pt if next(x for x in pt if x != 0) > 0 else tuple(-x for x in pt)
        if canon in seen:
            continue
        d = math.lcm(*[x.denominator for x in pt])
        new_mu = math.lcm(mu, d)
        if new_mu > cfg.max_denominator:
            continue
        mu = new_mu
        seen.add(canon)
        kept.append(pt)

    ms = [SymMatrix.rank_one(pt) for pt in kept]
    idx_pairs = [(i, j) for i in range(n) for j in range(i, n)]
    rows = [[m.entries[i][j] for m in ms] for (i, j) in idx_pairs]
    span_rank = rank(rows)
    if span_rank < n * (n + 1) // 2:
        raise ConstructionError(
            f"sampled points span only {span_rank}/{n*(n+1)//2} of Sym_n; "
            "retry with more samples or a different seed")

    target = inverse(qs).scale(Fraction(1, n))
    rhs = [Fraction(target.entries[i][j]) for (i, j) in idx_pairs]
    lam = feasible_point(rows, rhs)
    if lam is None:
        raise ConstructionError(
            "the convex-combination LP is infeasible for the sampled points; "
            "retry with more samples or a different seed")

    y_cols = []
    weights = []
    for pt, w in zip(kept, lam):
        if w == 0:
            continue
        y_cols.append(tuple(int(x * mu) for x in pt))
        weights.append(w)
    data = MatrixData(q=qs.scale(Fraction(1, mu * mu)), y=tuple(y_cols),
                      weights=tuple(weights),
                      metadata={"construction": "rational", "mu": mu,
                                "seed": cfg.seed, "scale": str(s)})
    report = verify_matrix_data(data)
    if not report.verified:
        raise ConstructionError(f"pipeline output failed verification: {report.reason}")
    return data


# ---------------------------------------------------------------------------
# the pencil / rank-4 constructions for 3-tori

@dataclass(frozen=True)
class IrrationalityReport:
    degree: int
    minpoly: Optional[tuple[int, ...]]        # low -> high; None when rational
    root_interval: Optional[tuple[Fraction, Fraction]]
    root_approx: Optional[float]


def construct_pencil_3torus(y, require: Optional[str] = None
                            ) -> tuple[MatrixData, IrrationalityReport]:
    """Certificate for an integer 3-torus vector set via det maximization.

    rank{Y_j Y_j^t} = 5: the slice is a line; its exact maximizer is at most
    quadratic irrational.  rank 4: the unit-diagonal Lagrange system yields a
    quartic whose positive definite root (unique by strict concavity) gives
    the certificate; the extension degree is the degree of that root's
    minimal polynomial, at most 4.

    Hull membership of Q*^{-1}/3 is decided exactly; failure raises
    ConstructionError (the vector set supports no minimal immersion).
    """
    cols = as_columns(y)
    n = len(cols[0])
    if n != 3:
        raise ValueError("this construction is specific to 3-tori")
    k = rank([[c[i] * c[j] for i in range(3) for j in range(i, 3)] for c in cols])
    if require == "rank5" and k != 5:
        raise ValueError(f"rank{{Y_j Y_j^t}} = {k}, expected 5")
    if require == "rank4" and k != 4:
        raise ValueError(f"rank{{Y_j Y_j^t}} = {k}, expected 4")
    if k == 5:
        return _pencil_route(cols)
    if k == 4:
        return _rank4_route(cols)
    raise ValueError(f"rank{{Y_j Y_j^t}} = {k}; only ranks 4 and 5 are supported "
                     "(rank 6 determines Q by a rational linear solve, rank 3 is Clifford-type)")


def _pencil_route(cols: Columns) -> tuple[MatrixData, IrrationalityReport]:
    slice_w = build_slice(cols)
    assert slice_w.s == 1
    res = pencil_maximize(slice_w)
    qstar = res.qstar
    weights = exact_hull_weights(cols, _scale_inverse(qstar, 3))
    if weights is None or not _strictly_positive(weights):
        raise ConstructionError(
            "the inverse of the maximizer does not lie in the interior of the hull")
    if res.degree == 1:
        report = IrrationalityReport(1, None, None, None)
    else:
        t0 = res.t0
        fieldobj = t0.field
        lo, hi = fieldobj.interval
        report = IrrationalityReport(2, tuple(fieldobj.minpoly), (lo, hi),
                                     float(fieldobj.generator()))
    data = MatrixData(q=qstar, y=cols, weights=tuple(weights),
                      metadata={"construction": "pencil", "degree": report.degree})
    ver = verify_matrix_data(data)
    if not ver.verified:
        raise ConstructionError(f"pencil output failed verification: {ver.reason}")
    return data, report


def _rank4_route(cols: Columns) -> tuple[MatrixData, IrrationalityReport]:
    if len(cols) != 4:
        raise ValueError("a rank-4 set supports exactly 4 classes")
    # choose an invertible column triple and normalize the fourth vector
    picks = None
    for cand in combinations(range(4), 3):
        if rank([cols[j] for j in cand]) == 3:
            picks = cand
            break
    if picks is None:
        raise ValueError("rank(Y) < 3")
    rest = next(j for j in range(4) if j not in picks)
    p_mat = [[cols[j][i] for j in picks] for i in range(3)]  # columns Y_j, j in picks
    r = tuple(solve(p_mat, cols[rest]))
    nz = [i for i in range(3) if r[i] != 0]
    if len(nz) < 2:
        raise ValueError("degenerate fourth vector; rank condition violated")
    if len(nz) == 2:
        perm = (nz[0], next(i for i in range(3) if r[i] == 0), nz[1])
    else:
        perm = (0, 1, 2)
    r_perm = tuple(r[i] for i in perm)
    crit = rank4_lagrange(r_perm)

    candidates: list[tuple[SymMatrix, IrrationalityReport]] = []
    if crit.degree1:
        b = crit.b_of(Fraction(0))
        qt = SymMatrix([[1, 0, b], [0, 1, 0], [b, 0, 1]])
        if is_positive_definite(qt) is True:
            candidates.append((qt, IrrationalityReport(1, None, None, None)))
    else:
        intervals = isolate_real_roots(crit.quartic)
        factors = irreducible_factors(crit.quartic) if intervals else []  # once per quartic
        for lo, hi in intervals:
            factor = factor_min_poly(crit.quartic, lo, hi, factors)
            lo2, hi2 = refine_root(factor, lo, hi, Fraction(1, 10**6))
            if lo2 == hi2:
                # rational root
                a_val = lo2
                bq = crit.b_of(a_val)
                cq = crit.c_of(a_val)
                qt = SymMatrix([[1, a_val, bq], [a_val, 1, cq], [bq, cq, 1]])
                rep = IrrationalityReport(1, None, None, float(a_val))
            else:
                if len(factor) - 1 == 1:
                    a_val = Fraction(-factor[0], factor[1])
                    bq = crit.b_of(a_val)
                    cq = crit.c_of(a_val)
                    qt = SymMatrix([[1, a_val, bq], [a_val, 1, cq], [bq, cq, 1]])
                    rep = IrrationalityReport(1, None, None, float(a_val))
                else:
                    fieldobj = AlgebraicField(factor, (lo2, hi2))
                    a_el = fieldobj.generator()
                    bq = crit.b_of(a_el)
                    cq = crit.c_of(a_el)
                    one = fieldobj.from_rational(1)
                    qt = SymMatrix([[one, a_el, bq], [a_el, one, cq], [bq, cq, one]])
                    rep = IrrationalityReport(len(factor) - 1, tuple(factor),
                                              (lo2, hi2), float(a_el))
            if is_positive_definite(qt) is True:
                candidates.append((qt, rep))
    if not candidates:
        raise InfeasibleRegion("no critical point of the rank-4 system is positive definite")
    if len(candidates) > 1:
        raise AssertionError("multiple PD critical points contradict strict concavity")
    qt, report = candidates[0]

    # undo the coordinate permutation and the column-triple normalization
    p_total = [[row[perm[j]] for j in range(3)] for row in p_mat]
    qstar = _congruence(qt, inverse(p_total))
    weights = exact_hull_weights(cols, _scale_inverse(qstar, 3))
    if weights is None or not _strictly_positive(weights):
        raise ConstructionError(
            "the inverse of the maximizer does not lie in the interior of the hull")
    data = MatrixData(q=qstar, y=cols, weights=tuple(weights),
                      metadata={"construction": "rank4", "degree": report.degree})
    ver = verify_matrix_data(data)
    if not ver.verified:
        raise ConstructionError(f"rank-4 output failed verification: {ver.reason}")
    return data, report


def _strictly_positive(weights) -> bool:
    return all(w > 0 for w in weights)


def _scale_inverse(q: SymMatrix, n: int) -> SymMatrix:
    qinv = inverse(q)
    if qinv.regime == "algebraic":
        f = qinv.entries[0][0].field
        third = f.from_rational(Fraction(1, n))
        return qinv.scale(third)
    return qinv.scale(Fraction(1, n))


def _congruence(qt: SymMatrix, a: list[list[Fraction]]) -> SymMatrix:
    """A^t Q A for a rational 3x3 matrix A and (possibly algebraic) Q."""
    n = 3
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = None
            for k in range(n):
                for l in range(n):
                    coef = a[k][i] * a[l][j]
                    if coef == 0:
                        continue
                    term = qt.entries[k][l] * coef
                    acc = term if acc is None else acc + term
            row.append(acc)
        rows.append(row)
    return SymMatrix(rows)


# ---------------------------------------------------------------------------
# Pythagorean non-homogeneous family

@dataclass
class PythagoreanParams:
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


@dataclass(frozen=True)
class PythagoreanResult:
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
    the minor of rows 0..k-1 on T - {j}, t the position of j in T.
    """
    minors = {0: 1}
    for k, row in enumerate(rows):
        support = [(1 << j, x) for j, x in enumerate(row) if x]
        grown: dict[int, int] = {}
        for cols, sub in minors.items():
            for bit, x in support:
                if cols & bit:
                    continue
                term = x * sub
                if (k + (cols & (bit - 1)).bit_count()) % 2:
                    term = -term
                grown[cols | bit] = grown.get(cols | bit, 0) + term
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
    D_i D >= 0.  These are integer sign tests; each vertex is kept as its
    reduced integer ratios and only the 12 centroid coordinates become
    Fractions.  (A singular column subset adds no vertex: a nonnegative
    solution on dependent columns with the free variables 0 lives on its
    independent pivot columns, which extend to a basis.)
    """
    rows = _diagonal_constraints(p, q, r)
    m, nvar = len(rows), len(rows[0]) - 1
    minors = _maximal_minors(rows)
    b_bit = 1 << nvar
    vertices = set()
    for basis in combinations(range(nvar), m):
        bits = [1 << j for j in basis]
        cols = sum(bits)
        d = minors.get(cols, 0)
        if not d:
            continue
        # D_i * sign(D), with the sign of moving b to position i folded in
        nums = [minors.get(cols ^ bit | b_bit, 0) for bit in bits]
        nums = [x if (m - 1 - i) % 2 == (d < 0) else -x for i, x in enumerate(nums)]
        if any(x < 0 for x in nums):
            continue
        d = abs(d)
        vertex = []
        for j, x in zip(basis, nums):
            if x:
                g = math.gcd(x, d)
                vertex.append((j, x // g, d // g))
        vertices.add(tuple(vertex))
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
        diag = tuple(Fraction(x) if not isinstance(x, float) else Fraction(x)
                     for x in params.diagonal)
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
        if alpha[i] ** 2 + beta[i] ** 2 > bound + 1e-12:
            raise ValueError(
                f"block {i}: alpha^2 + beta^2 = {alpha[i]**2 + beta[i]**2:.3g} exceeds "
                f"a_{2*i+1} a_{2*i+2} = {bound:.3g}; the operator would not be PSD")
        if alpha[i] or beta[i]:
            off[(2 * i, 2 * i + 1)] = ((alpha[i], beta[i]), (beta[i], -alpha[i]))
    gram = GramOperator.from_blocks(12, [float(a) for a in diag], off)
    report = verify_full(gram, (qmat, cols))
    if not report.verified:
        raise ConstructionError(f"family member failed verification: {report.reason}")
    return PythagoreanResult(gram=gram, q=qmat, y=cols, diagonal=diag)


# ---------------------------------------------------------------------------
# Bryant's 2-torus family

@dataclass
class Bryant2TorusParams:
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


def bryant_equation_residuals(params: Bryant2TorusParams) -> tuple[float, float, float]:
    """Residuals of the three defining equations at the given parameters."""
    m, n = params.m, params.n
    data = bryant_2torus(params)
    by_col = {c: w for c, w in zip(data.y, data.weights)}
    zero = Fraction(0)
    r1 = by_col.get((0, n), zero)
    r2 = by_col.get((n, 2 * m), zero)
    r3 = by_col.get((n, 0), zero)
    r4 = by_col.get((2 * m, n), zero)
    e1 = r1 + r2 + r3 + r4 - 1
    e2 = n**4 * r1 - n * n * (n * n - 2 * m * m) * (r2 + r3) \
        + (n**4 - 8 * m * m * n * n + 8 * m**4) * r4
    e3 = n * n * (r2 - r3) + 2 * (n * n - 2 * m * m) * r4
    return (abs(float(e1)), abs(float(e2)), abs(float(e3)))


# ---------------------------------------------------------------------------
# catalog

def _catalog_clifford3() -> MatrixData:
    third = Fraction(1, 3)
    return MatrixData(q=SymMatrix.identity(3),
                      y=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                      weights=(third, third, third),
                      metadata={"id": "clifford-3", "degree": 1,
                                "description": "Clifford 3-torus in S^5",
                                "embedded": "embedded"})


def _catalog_quadratic_s9() -> MatrixData:
    f = sqrt_field(10801)
    w = f.generator()
    t0 = (Fraction(39337) - 137 * w) / 443880
    q0 = SymMatrix([[1, Fraction(-343, 1233), Fraction(397, 1233)],
                    [Fraction(-343, 1233), 1, Fraction(1048, 1233)],
                    [Fraction(397, 1233), Fraction(1048, 1233), 1]])
    q1 = SymMatrix([[0, 10, 6], [10, 0, 1], [6, 1, 0]])
    q = SymMatrix([[f.from_rational(q0.entries[i][j]) + t0 * q1.entries[i][j]
                    for j in range(3)] for i in range(3)])
    weights = (
        (Fraction(12773) - 107 * w) * Fraction(3, 48040),
        (Fraction(1105) - 7 * w) * Fraction(27, 38432),
        (541 * w - Fraction(52459)) * Fraction(3, 192160),
        (Fraction(121721) + 481 * w) * Fraction(1, 576480),
        (191 * w + Fraction(2791)) * Fraction(7, 576480),
    )
    return MatrixData(
        q=q, y=((1, 0, 0), (0, 1, 0), (0, 0, 1), (6, 12, -15), (6, 9, -12)),
        weights=weights,
        metadata={"id": "quadratic-s9", "degree": 2, "minpoly": [-10801, 0, 1],
                  "description": "quadratic irrational minimal flat 3-torus in S^9",
                  "embedded": "embedded",
                  "approx_weights": [0.10320893, 0.26521218, 0.05879432,
                                     0.29785994, 0.27492463]})


def _catalog_quadratic_s7() -> MatrixData:
    f = sqrt_field(553)
    w = f.generator()
    q12 = (115 - w) / 144
    q13 = (16 - w) / 54
    one = f.from_rational(1)
    q = SymMatrix([[one, q12, q13], [q12, one, q12], [q13, q12, one]])
    base = 38 - w
    weights = (base * Fraction(2, 99), base * (w - 13) / 1782,
               base * Fraction(2, 99), base * (w + 17) / 1782)
    return MatrixData(
        q=q, y=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-3, 4, -3)),
        weights=weights,
        metadata={"id": "quadratic-s7", "degree": 2, "minpoly": [-553, 0, 1],
                  "description": "quadratic irrational minimal flat 3-torus in S^7",
                  "embedded": "embedded",
                  "approx_weights": [0.29260703, 0.08547337, 0.29260703, 0.32931257]})


def _catalog_cubic_s7_a() -> MatrixData:
    f = AlgebraicField((-33, 149, -160, 50), (Fraction(5, 16), Fraction(21, 64)))
    a = f.generator()
    sixteenth = Fraction(1, 16)
    g = (2 * a - 5) * (10 * a - 11) / ((20 * a - 29) * 3) * sixteenth
    h = -(5 * a - 2) * (10 * a - 11) / ((20 * a - 29) * 3) * sixteenth
    one16 = f.from_rational(sixteenth)
    a16 = a * sixteenth
    q = SymMatrix([[one16, a16, g], [a16, one16, h], [g, h, one16]])
    weights = (
        -(25 * a * a - 95 * a + 76) / ((a * a - 1) * (5 * a - 7) * (20 * a - 29) * 6),
        -(430 * a * a - 1235 * a + 883) / ((a * a - 1) * (5 * a - 7) * (20 * a - 29) * 15),
        (5 * a - 9) * 3 / ((a + 1) * (5 * a - 7) * 10),
        (10 * a - 11) * 4 / ((a + 1) * (5 * a - 7) * 15),
    )
    return MatrixData(
        q=q, y=((4, 0, 0), (0, 4, 0), (0, 0, 4), (-5, 2, -3)),
        weights=weights,
        metadata={"id": "cubic-s7-a", "degree": 3, "minpoly": [-33, 149, -160, 50],
                  "description": "cubic irrational minimal flat 3-torus in S^7 (immersed, not embedded)",
                  "embedded": "not_embedded", "root_approx": 0.321061,
                  "approx_weights": [0.0733429, 0.323914, 0.31128, 0.291462]})


def _catalog_cubic_s7_b() -> MatrixData:
    f = AlgebraicField((-253, -291, 765, 675), (Fraction(-33, 64), Fraction(-1, 2)))
    a = f.generator()
    quarter = Fraction(1, 4)
    g = -(3 * a + 5) * (15 * a + 23) / ((15 * a + 17) * 8) * quarter
    h = -(5 * a + 3) * (15 * a + 23) / ((15 * a + 17) * 8) * quarter
    one4 = f.from_rational(quarter)
    a4 = a * quarter
    q = SymMatrix([[one4, a4, g], [a4, one4, h], [g, h, one4]])
    weights = (
        -(225 * a * a + 420 * a + 139) * 8 / ((a * a - 1) * (15 * a - 1) * (15 * a + 17) * 27),
        -(45 * a * a + 60 * a + 7) * 8 / ((a * a - 1) * (15 * a - 1) * (15 * a + 17) * 5),
        -(15 * a + 11) * 16 / ((a + 1) * (15 * a - 1) * 45),
        -(15 * a + 23) * 4 / ((a + 1) * (15 * a - 1) * 45),
    )
    return MatrixData(
        q=q, y=((2, 0, 0), (0, 2, 0), (0, 0, 2), (5, 3, 4)),
        weights=weights,
        metadata={"id": "cubic-s7-b", "degree": 3, "minpoly": [-253, -291, 765, 675],
                  "description": "cubic irrational minimal flat 3-torus in S^7",
                  "embedded": "not_embedded", "root_approx": -0.501137,
                  "approx_weights": [0.0733429, 0.31128, 0.291462, 0.323914]})


def _catalog_quartic_s7() -> MatrixData:
    data, report = construct_pencil_3torus(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (5, 7, 8)), require="rank4")
    meta = {"id": "quartic-s7", "degree": 4,
            "minpoly": list(report.minpoly),
            "description": "quartic irrational minimal flat 3-torus in S^7",
            "embedded": "embedded", "root_approx": -0.149201,
            "approx_weights": [0.30459, 0.26971, 0.0934204, 0.332279]}
    return MatrixData(q=data.q, y=data.y, weights=data.weights, metadata=meta)


_CATALOG_BUILDERS = {
    "clifford-3": _catalog_clifford3,
    "quadratic-s9": _catalog_quadratic_s9,
    "quadratic-s7": _catalog_quadratic_s7,
    "cubic-s7-a": _catalog_cubic_s7_a,
    "cubic-s7-b": _catalog_cubic_s7_b,
    "quartic-s7": _catalog_quartic_s7,
}

CATALOG_IDS = tuple(_CATALOG_BUILDERS)


def catalog(cert_id: str) -> MatrixData:
    """One of the six worked certificates, with exact field data."""
    try:
        builder = _CATALOG_BUILDERS[cert_id]
    except KeyError:
        raise KeyError(f"unknown catalog id {cert_id!r}; known: {', '.join(CATALOG_IDS)}") from None
    return builder()


def catalog_descriptions() -> list[tuple[str, str]]:
    out = []
    for cid in CATALOG_IDS:
        data = catalog(cid)
        out.append((cid, data.metadata.get("description", "")))
    return out
