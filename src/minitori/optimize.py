"""Determinant maximization over slices of the PD cone and over convex hulls.

Two feasible sets drive every construction in this package:

* ``W_Y``: positive definite matrices whose hyper-ellipsoid passes through
  every integer vector of Y, an affine slice Q0 + span{Q_1..Q_s} of the PD
  cone.  Its directions are the kernel of the integer rows of the conditions
  Y_j^t S Y_j = 0 in the coordinates (S_ik)_{i <= k} of Sym_n
  (`symmetric.rank_one_rows`), taken by the one elimination kernel as a
  primitive integer kernel basis.  Its maximizer is found exactly on a
  one-dimensional slice (`pencil_maximize`) and on the two-dimensional slice
  of a rank-4 set in Z^3 (`rank4_maximize`).
* ``C_Y``: the convex hull of the rank-one matrices Y_j Y_j^t.  Maximized by
  Frank-Wolfe with away steps (the D-optimal-design structure) in plain
  Python floats, finished by one exact rational Newton step on the
  identified support.  Membership of an exact point is one integer LP
  (`exact_hull_weights`), for a point over Q or over a field Q(w) alike, and
  its basic solution is the Caratheodory reduction of a combination.

Both read the slice through one parametrization ``at(x)`` (`AffineSliceW`,
`Rank4Chart`) at the real roots x of a polynomial of degree <= 4 factored
over Q, each a Fraction or an element of the field of its minimal
polynomial; one loop returns the first positive definite one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .exactlp import feasible_point
from .lattices import canonical_class
from .scalars import (AlgebraicField, AlgebraicScalar, Rat, factor_min_poly,
                      integer_combinations, irreducible_factors, isolate_real_roots,
                      poly_content_primitive, poly_gcd, poly_mul, poly_sub, pseudo_divmod,
                      refine_root, sqrt_field, squarefree_part)
from .symmetric import (SymMatrix, determinant, inverse, is_positive_definite, kernel, rank,
                        rank_one_rows, solve)

Columns = tuple[tuple[int, ...], ...]


class NoCommonEllipsoid(ValueError):
    """The linear system <Q, Y_j Y_j^t> = 1 is inconsistent."""


class InfeasibleRegion(RuntimeError):
    """The feasible set contains no positive definite point."""


class ConvergenceFailure(RuntimeError):
    """Iteration budget exhausted before reaching the requested tolerance."""


def as_columns(y) -> Columns:
    """Normalize a collection of integer vectors to a tuple of int tuples."""
    cols = tuple(tuple(int(x) for x in col) for col in y)
    if not cols:
        raise ValueError("empty vector set")
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("vectors have mixed dimensions")
    return cols


class AffineSliceW(NamedTuple):
    """Slice of the PD cone: Q0 + span{Q1..Qs}, all passing through Y.

    Q0 is the unique solution of <Q, Y_j Y_j^t> = 1 lying in
    span{Y_j Y_j^t} (hence rational); the basis is a primitive integer kernel
    basis of S -> (Y_j^t S Y_j)_j, the orthogonal complement of that span in
    Sym_n: each Q_i is an integer matrix with coprime coordinates, the first
    nonzero one positive.
    """

    q0: SymMatrix
    basis: tuple[SymMatrix, ...]
    y: Columns

    @property
    def s(self) -> int:
        return len(self.basis)

    @property
    def n(self) -> int:
        return self.q0.n

    def at(self, t) -> SymMatrix:
        """Q0 + t Q1, the point of parameter t on a one-dimensional slice."""
        return self.q0 + self.basis[0].scale(t)


def build_slice(y) -> AffineSliceW:
    """Construct the affine slice W_Y for a spanning integer vector set."""
    cols = as_columns(y)
    n = len(cols[0])
    if rank(cols) != n:
        raise ValueError(f"rank(Y) = {rank(cols)} < n = {n}")
    # <Y_j Y_j^t, Y_k Y_k^t> = (Y_j . Y_k)^2; Q0 = sum c_k Y_k Y_k^t is unique even if c is not
    gram = [[sum(a * b for a, b in zip(u, v)) ** 2 for v in cols] for u in cols]
    c = solve(gram, [1] * len(cols))
    if c is None:
        raise NoCommonEllipsoid("no hyper-ellipsoid passes through all the vectors")
    q0 = SymMatrix.rank_one_sum(cols, c)
    # Y^t S Y counts each off-diagonal coordinate S_ik twice
    twice = [2 - d for d in SymMatrix.identity(n).upper()]
    rows = [[t * x for t, x in zip(twice, row)] for row in rank_one_rows(cols)]
    basis = []
    for z in kernel(rows):
        den = math.lcm(*(x.denominator for x in z))
        ints = [x.numerator * (den // x.denominator) for x in z]
        g = math.gcd(*ints)
        basis.append(SymMatrix.from_upper(canonical_class([x // g for x in ints])))
    return AffineSliceW(q0=q0, basis=tuple(basis), y=cols)


# ---------------------------------------------------------------------------
# C-maximizer: Frank-Wolfe with away steps + exact Newton polish

class HullPoint(NamedTuple):
    """Convex combination P = sum lambda_j Y_j Y_j^t with exact weights."""

    y: Columns
    weights: tuple
    p: SymMatrix

    @classmethod
    def from_weights(cls, y, weights) -> "HullPoint":
        cols = as_columns(y)
        ws = tuple(weights)
        return cls(y=cols, weights=ws, p=SymMatrix.rank_one_sum(cols, ws))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, w in enumerate(self.weights) if w)


def kkt_gap(point: HullPoint) -> float:
    """max_j Y_j^t P^{-1} Y_j - n (zero at the hull maximizer)."""
    pinv = inverse(point.p)
    return max(float(pinv.quad_form(c)) for c in point.y) - point.p.n


def maximize_logdet_C(y, tol: float = 1e-10, max_iter: int = 200) -> HullPoint:
    """Maximize logdet over the convex hull of {Y_j Y_j^t}.

    KKT certificate at the optimum: Y_j^t P^{-1} Y_j <= n + tol for all j,
    with equality on the support; every support point then lies on the
    hyper-ellipsoid of (n P)^{-1}.

    Frank-Wolfe with away steps (the Wynn-Fedorov design algorithm): each
    step moves P to (1 - gamma) P + gamma Y_j Y_j^t, toward the column of
    largest d_j = Y_j^t P^{-1} Y_j or away from the support column of
    smallest, by the exact line search gamma = (d_j - n) / (n (d_j - 1)); an
    away step stops at gamma = -lambda_j / (1 - lambda_j), where lambda_j is
    0.  P^{-1} follows by Sherman-Morrison.  The iteration runs until every
    d_j is at most n + tol / 10 and every support d_j at least n - tol / 10:
    the exact Newton step that finishes on the support has a singular
    bordered system when two support columns are one +- class, and then the
    Frank-Wolfe weights must meet tol by themselves.
    """
    cols = as_columns(y)
    n = len(cols[0])
    if rank(cols) != n:
        raise InfeasibleRegion("the hull contains no positive definite point")
    lam = [1.0 / len(cols)] * len(cols)
    pinv = inverse(SymMatrix.rank_one_sum(cols, lam)).entries
    for _ in range(max_iter):
        py = [[sum(a * b for a, b in zip(row, c)) for row in pinv] for c in cols]
        d = [sum(a * b for a, b in zip(c, u)) for c, u in zip(cols, py)]
        s = max(range(len(cols)), key=d.__getitem__)
        v = min((j for j, w in enumerate(lam) if w), key=d.__getitem__)
        if max(d[s] - n, n - d[v]) <= tol / 10:
            break
        if d[s] - n >= n - d[v] or lam[v] >= 1.0:
            j, gamma, floor = s, (d[s] - n) / (n * (d[s] - 1)), None
        else:
            j, floor = v, -lam[v] / (1.0 - lam[v])
            # for d_v <= 1 logdet increases all the way to the floor
            gamma = floor if d[v] <= 1 else max((d[v] - n) / (n * (d[v] - 1)), floor)
        lam = [(1.0 - gamma) * w for w in lam]
        lam[j] = 0.0 if gamma == floor else lam[j] + gamma
        # (1 - gamma) P + gamma Y_j Y_j^t = (1 - gamma) (P + c Y_j Y_j^t)
        c = gamma / (1.0 - gamma)
        f = c / (1.0 + c * d[j])
        u = py[j]
        pinv = [[(x - f * ua * ub) / (1.0 - gamma) for x, ub in zip(row, u)]
                for row, ua in zip(pinv, u)]

    support = [j for j, w in enumerate(lam) if w > 1e-12]
    ws = [Fraction(lam[j]).limit_denominator(10**15) for j in support]
    total = sum(ws)
    ws = [w / total for w in ws]

    def hull_point(wlist) -> HullPoint:
        full = [Fraction(0)] * len(cols)
        for j, w in zip(support, wlist):
            full[j] = w
        return HullPoint.from_weights(cols, full)

    point = hull_point(ws)
    try:
        polished = _exact_newton_step(cols, support, ws)
    except (ValueError, ZeroDivisionError):
        polished = None
    if polished is not None and all(w > 0 for w in polished):
        cand = hull_point(polished)
        if kkt_gap(cand) <= max(kkt_gap(point), tol):
            point = cand
    if kkt_gap(point) > tol:
        raise ConvergenceFailure(f"hull maximizer did not reach KKT gap <= {tol}")
    return point


def _exact_newton_step(cols: Columns, support: list[int],
                       ws: list[Fraction]) -> Optional[list[Fraction]]:
    k = len(support)
    n = len(cols[0])
    vecs = [cols[j] for j in support]
    pinv = inverse(SymMatrix.rank_one_sum(vecs, ws))

    def bilinear(u, v):
        return sum(u[a] * sum(pinv.entries[a][b] * v[b] for b in range(n)) for a in range(n))
    g = [bilinear(v, v) for v in vecs]
    h = [[-(bilinear(vecs[i], vecs[j]) ** 2) for j in range(k)] for i in range(k)]
    # bordered system: H d + nu 1 = -(g - n 1), 1^t d = 0
    bordered = [h[i] + [1] for i in range(k)] + [[1] * k + [0]]
    if rank(bordered) <= k:  # singular: no unique step
        return None
    delta = solve(bordered, [-(gi - n) for gi in g] + [0])  # d, then nu
    return [w + d for w, d in zip(ws, delta)]


# ---------------------------------------------------------------------------
# exact critical points of det: the pencil (s = 1) and the rank-4 chart (n = 3, s = 2)

class CriticalPoint(NamedTuple):
    """The positive definite critical point of det on a slice: its parameter
    t0 (a Fraction, or an element of the field of its minimal polynomial), the
    matrix Q* at t0, and the degree of that minimal polynomial."""

    t0: Union[Fraction, AlgebraicScalar]
    qstar: SymMatrix
    degree: int


def _first_positive_definite(chart, candidates: Iterable) -> CriticalPoint:
    """The first candidate x at which `chart.at(x)` is positive definite, the
    only one by the strict concavity of logdet.  None after it is tested: both
    roots of a quadratic share one field, whose interval a sign test narrows.
    """
    for x in candidates:
        q = chart.at(x)
        if is_positive_definite(q) is True:
            degree = x.field.degree if isinstance(x, AlgebraicScalar) else 1
            return CriticalPoint(t0=x, qstar=q, degree=degree)
    raise InfeasibleRegion("no critical point of det on the slice is positive definite")


def pencil_maximize(slice_w: AffineSliceW) -> CriticalPoint:
    """Maximize det(Q0 + t Q1) exactly on a one-dimensional slice, n <= 5.

    p(t) = det(Q0 + t Q1) has degree <= n, so its coefficients solve the
    Vandermonde system of its values at t = 0, ..., n.  The critical points
    are the real roots of p', of degree <= 4, taken factor by factor
    (`_factor_roots`), and the first positive definite one is the maximizer.
    A p' of degree above 4 (n > 5) raises ValueError.
    """
    if slice_w.s != 1:
        raise ValueError("pencil_maximize requires a one-dimensional slice")
    n = slice_w.n
    values = [determinant(slice_w.at(t)) for t in range(n + 1)]
    coeffs = solve([[t ** k for k in range(n + 1)] for t in range(n + 1)], values)
    _, deriv = poly_content_primitive([k * c for k, c in enumerate(coeffs)][1:])
    if len(deriv) < 2:
        raise InfeasibleRegion("the determinant is constant or monotone on the pencil")
    roots = (t0 for factor in dict.fromkeys(irreducible_factors(deriv))
             for t0 in _factor_roots(factor))
    return _first_positive_definite(slice_w, roots)


def _factor_roots(factor: tuple[int, ...]) -> list[Union[Fraction, AlgebraicScalar]]:
    """The real roots of an irreducible integer polynomial of degree <= 4.

    A linear factor gives a Fraction.  Both roots (-b +- k w)/(2a) of a
    quadratic a t^2 + b t + c lie in Q(w), w = sqrt(d) with d the squarefree
    part of the discriminant k^2 d.  Each real root of a cubic or quartic
    generates its own field.
    """
    if len(factor) == 2:
        return [Fraction(-factor[0], factor[1])]
    if len(factor) == 3:
        c, b, a = factor
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        d = squarefree_part(disc)
        k = math.isqrt(disc // d)
        w = sqrt_field(d).generator()
        return [(w * k - b) / (2 * a), (w * -k - b) / (2 * a)]
    return [AlgebraicField(factor, interval).generator()
            for interval in isolate_real_roots(factor)]


class Rank4Chart(NamedTuple):
    """The chart of a rank-4 set in Z^3 (s = 2): Q~ = [[1,a,b],[a,1,c],[b,c,1]]
    through e1, e2, e3 and the normalized fourth vector r, with b(a), c(a) in
    closed form (`rank4_point`), and the rational B with Q = B^t Q~ B."""

    r: tuple[Fraction, Fraction, Fraction]
    back: tuple[tuple[Fraction, ...], ...]

    def at(self, a) -> SymMatrix:
        """B^t Q~ B at (a, b(a), c(a)): with B = M/d, entry (i, j) is the
        combination of the Q~_kl with the integer weights M_ki M_lj, over d^2."""
        _, b, c = rank4_point(self.r, a)
        d = math.lcm(*(x.denominator for row in self.back for x in row))
        m = [[int(x * d) for x in row] for row in self.back]
        weights = [[m[k][i] * m[l][j] for k in range(3) for l in range(3)]
                   for i in range(3) for j in range(i, 3)]
        chart = (1, a, b, a, 1, c, b, c, 1)
        return SymMatrix.from_upper(integer_combinations(chart, weights)).scale(Fraction(1, d * d))


def rank4_chart(cols: Columns) -> Rank4Chart:
    """The unit-diagonal chart of a rank-4 set.

    rank{Y_j Y_j^t} = 4 > 3 = dim Sym_2 forces rank Y = 3, so an invertible
    column triple P exists, and the fourth vector P r has two or three
    nonzero coordinates r: a multiple of one Y_j would repeat Y_j Y_j^t up to
    a factor.  With two, a permutation moves the zero coordinate to the
    middle; B inverts P with its columns so permuted.
    """
    if len(cols) != 4:
        raise ValueError("a rank-4 set supports exactly 4 classes")
    picks = next(cand for cand in combinations(range(4), 3)
                 if rank([cols[j] for j in cand]) == 3)
    rest = next(j for j in range(4) if j not in picks)
    p_mat = [[cols[j][i] for j in picks] for i in range(3)]  # columns Y_j, j in picks
    r = tuple(solve(p_mat, cols[rest]))
    nz = [i for i in range(3) if r[i] != 0]
    if len(nz) == 2:
        perm = (nz[0], next(i for i in range(3) if r[i] == 0), nz[1])
    else:
        perm = (0, 1, 2)
    back = inverse([[row[perm[j]] for j in range(3)] for row in p_mat])
    return Rank4Chart(r=tuple(r[i] for i in perm), back=tuple(tuple(row) for row in back))


def rank4_maximize(chart: Rank4Chart) -> CriticalPoint:
    """The positive definite critical point of det on a rank-4 chart."""
    return _first_positive_definite(chart, rank4_lagrange(chart.r))


def rank4_point(r: tuple[Fraction, Fraction, Fraction], a) -> tuple:
    """(a, b(a), c(a)): b and c solve two of the three Lagrange equations and
    the slice constraint, as (a r2 + r1) and (a r1 + r2) times one factor."""
    r1, r2, r3 = r
    rho = r1 * r1 + r2 * r2 + r3 * r3
    f = (2 * a * r1 * r2 + rho - 1) / (2 * r3 * (2 * a * r1 * r2 + r1 * r1 + r2 * r2))
    return a, -(a * r2 + r1) * f, -(a * r1 + r2) * f


def rank4_quartic(r: Sequence[Rat]) -> tuple[int, ...]:
    """Stationarity polynomial in a (low -> high), from multiplier elimination.

    With b(a), c(a) the closed forms solving two of the three Lagrange
    equations plus the slice constraint, the remaining equation
    r3 (b c - a) = r2 (a c - b) clears to a polynomial of degree <= 4.
    Factors vanishing at the pole of b(a), c(a) are cancelled (for special r,
    e.g. r3^2 = 1, the naive numerator picks them up spuriously).  The result
    is primitive with positive leading coefficient.

    Everything runs in integers: with r = (R1, R2, R3) / L over a common
    denominator L, each polynomial below is L^k times its rational namesake.
    """
    r1, r2, r3 = (Fraction(x) for x in r)
    big_l = math.lcm(r1.denominator, r2.denominator, r3.denominator)
    R1, R2, R3 = (x.numerator * (big_l // x.denominator) for x in (r1, r2, r3))
    lin = (R1 * R1 + R2 * R2, 2 * R1 * R2)              # L^2 (2 a r1 r2 + r1^2 + r2^2)
    den = tuple(2 * R3 * x for x in lin)                # L^3 D(a)
    con = (lin[0] + R3 * R3 - big_l * big_l, lin[1])    # L^2 (2 a r1 r2 + rho - 1)
    nb = poly_mul((-R1, -R2), con)                      # -L^3 (a r2 + r1)(...)
    nc = poly_mul((-R2, -R1), con)                      # -L^3 (a r1 + r2)(...)
    d2 = poly_mul(den, den)
    lhs = [R3 * x for x in poly_sub(poly_mul(nb, nc), [0] + d2)]
    rhs = [R2 * x for x in poly_mul(den, poly_sub([0] + nc, nb))]
    num = poly_sub(lhs, rhs)                            # L^7 times the rational numerator
    # cancel spurious pole factors
    while any(num):
        g = poly_gcd(num, den)
        if len(g) <= 1:
            break
        num = pseudo_divmod(num, g)[0]
    return poly_content_primitive(num)[1]


def rank4_lagrange(r: Sequence[Rat]) -> Iterator[Union[Fraction, AlgebraicScalar]]:
    """The real critical parameters a of det on the chart through r, in
    increasing order: each a Fraction, or the generator of the field of its
    minimal polynomial.

    The quartic's real roots are isolated and its factors found at the call,
    so a bad r raises there.  A root is matched to its irreducible factor,
    and one of degree >= 2 gets a field whose isolating interval is first
    refined to width 10^-6, only when the iterator reaches it: a caller that
    stops at the positive definite root pays for no later one.  For r2 = 0
    the system degenerates to the one block-diagonal rational point a = c = 0.
    """
    r1, r2, r3 = (Fraction(x) for x in r)
    if r1 == 0 or r3 == 0:
        raise ValueError("the normalization requires r1 and r3 nonzero")
    if r2 == 0:
        return iter((Fraction(0),))
    quartic = rank4_quartic((r1, r2, r3))
    if len(quartic) <= 1:
        raise ValueError("degenerate stationarity polynomial")
    intervals = isolate_real_roots(quartic)
    factors = irreducible_factors(quartic) if intervals else []
    return (_quartic_root(factor_min_poly(quartic, lo, hi, factors), lo, hi)
            for lo, hi in intervals)


def _quartic_root(factor: tuple[int, ...], lo: Fraction, hi: Fraction):
    """The root of `factor` in (lo, hi): a Fraction, or its field's generator."""
    if len(factor) == 2:
        return Fraction(-factor[0], factor[1])
    return AlgebraicField(factor, refine_root(factor, lo, hi, Fraction(1, 10**6))).generator()


# ---------------------------------------------------------------------------
# exact hull membership (the construction routes, the catalog and `reduce`)

def exact_hull_weights(cols: Columns, p: SymMatrix):
    """Nonnegative weights with sum lambda_j Y_j Y_j^t = P, or None.

    One exact LP over the coordinates of Sym_n: its rows are the transpose of
    `rank_one_rows(cols)` and its right-hand side the coordinates of P, which
    may lie in Q or in one field Q(w) (`exactlp.feasible_point`).  The
    weights are Fractions, or elements of the field of P.  A float P raises
    TypeError.
    """
    if not p.is_exact():
        raise TypeError("exact membership needs exact scalars")
    return feasible_point(list(zip(*rank_one_rows(cols))), p.upper())


def caratheodory_reduce(cols: Columns, weights: Sequence) -> list:
    """Nonnegative weights on at most n(n+1)/2 of the columns with the sum
    P = sum w_j Y_j Y_j^t of the given nonnegative weights.

    Caratheodory's theorem in Sym_n, of dimension n(n+1)/2, met by one basic
    solution: for N <= n(n+1)/2 the weights are returned unchanged, else the
    basic solution of `exact_hull_weights(cols, P)`, feasible by construction,
    whose nonzero weights sit on linearly independent Y_j Y_j^t.  For
    certificate data every Y_j Y_j^t lies on the hyperplane <Q, .> = 1, so the
    weight sum <Q, P> is kept as well.  Float weights are lifted exactly for
    the LP and its solution is rounded to floats once, so the output keeps the
    input's regime.  The function keeps the theorem's name, by which the
    benchmark's tracer wraps it.
    """
    n = len(cols[0])
    if len(cols) <= n * (n + 1) // 2:
        return list(weights)
    floats = any(isinstance(w, float) for w in weights)
    exact = [Fraction(w) for w in weights] if floats else weights
    basic = exact_hull_weights(cols, SymMatrix.rank_one_sum(cols, exact))
    return [float(w) for w in basic] if floats else basic
