"""Determinant maximization over slices of the PD cone and over convex hulls.

Two feasible sets drive every construction in this package:

* ``W_Y``: positive definite matrices whose hyper-ellipsoid passes through
  every integer vector of Y, an affine slice of the PD cone.  Maximized by
  damped Newton in slice coordinates (closed-form gradient/Hessian of
  logdet).
* ``C_Y``: the convex hull of the rank-one matrices Y_j Y_j^t.  Maximized by
  Frank-Wolfe with away steps (the D-optimal-design structure), finished by
  one exact rational Newton polish on the identified support.

The one-parameter (pencil) maximizer and the rank-4 Lagrange system are exact
and return algebraic data (field generator, minimal polynomial).  The two
float maximizers, `kkt_gap` and `_newton_on_support` import numpy when called;
nothing else here uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .exactlp import feasible_point
from .scalars import (AlgebraicScalar, Rat, is_rational_square, isolate_real_roots,
                      poly_content_primitive, poly_gcd, poly_mul, poly_sub, pseudo_divmod,
                      rational_sqrt, refine_root,
                      sqrt_field, squarefree_part)
from .symmetric import (SymMatrix, determinant, inverse, is_positive_definite,
                        kernel_vector, rank, solve, trace_inner)

if TYPE_CHECKING:
    import numpy as np

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


def columns_from_matrix(rows: Sequence[Sequence[int]]) -> Columns:
    """Columns of an n x N integer matrix given by rows."""
    n = len(rows)
    nn = len(rows[0])
    return tuple(tuple(int(rows[i][j]) for i in range(n)) for j in range(nn))


def _vec(s: SymMatrix) -> list[Fraction]:
    return [s.entries[i][j] for i in range(s.n) for j in range(s.n)]


def _sym_basis(n: int) -> list[SymMatrix]:
    """Standard basis of Sym_n in row-major upper-triangle order."""
    out = []
    for i in range(n):
        for j in range(i, n):
            rows = [[Fraction(0)] * n for _ in range(n)]
            rows[i][j] = Fraction(1)
            rows[j][i] = Fraction(1)
            out.append(SymMatrix(rows))
    return out


def _normalize_integer(s: SymMatrix) -> SymMatrix:
    """Scale to integer entries with content 1, first nonzero upper-triangle entry positive."""
    entries = [Fraction(s.entries[i][j]) for i in range(s.n) for j in range(i, s.n)]
    lcm = math.lcm(*[x.denominator for x in entries])
    ints = [int(x * lcm) for x in entries]
    g = math.gcd(*[abs(v) for v in ints if v != 0])
    lead = next(v for v in ints if v != 0)
    sign = 1 if lead > 0 else -1
    return s.scale(Fraction(sign * lcm, g))


@dataclass(frozen=True)
class AffineSliceW:
    """Slice of the PD cone: Q0 + span{Q1..Qs}, all passing through Y.

    Q0 is the unique solution of <Q, Y_j Y_j^t> = 1 lying in
    span{Y_j Y_j^t} (hence rational); the basis spans the orthogonal
    complement of that span in Sym_n.
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

    def point(self, t: Sequence[Rat]) -> SymMatrix:
        q = self.q0
        for ti, b in zip(t, self.basis):
            q = q + b.scale(ti)
        return q

    def rank_one(self) -> list[SymMatrix]:
        return [SymMatrix.rank_one(c) for c in self.y]


def build_slice(y) -> AffineSliceW:
    """Construct the affine slice W_Y for a spanning integer vector set."""
    cols = as_columns(y)
    n = len(cols[0])
    if rank(cols) != n:
        raise ValueError(f"rank(Y) = {rank(cols)} < n = {n}")
    ms = [SymMatrix.rank_one(c) for c in cols]
    nn = len(ms)
    gram = [[Fraction(trace_inner(ms[i], ms[j])) for j in range(nn)] for i in range(nn)]

    # particular solution c of Gram c = 1; Q0 = sum c_k M_k is unique even if c is not
    c = solve(gram, [1] * nn)
    if c is None:
        raise NoCommonEllipsoid("no hyper-ellipsoid passes through all the vectors")
    q0 = SymMatrix.rank_one_sum(cols, c)

    # Gram-Schmidt orthogonalization of span{M_j}, then seed the complement
    ortho: list[SymMatrix] = []
    for m in ms:
        w = m
        for o in ortho:
            coeff = Fraction(trace_inner(w, o)) / Fraction(trace_inner(o, o))
            if coeff:
                w = w - o.scale(coeff)
        if any(any(x != 0 for x in row) for row in w.entries):
            ortho.append(w)
    basis: list[SymMatrix] = []
    ortho_basis: list[SymMatrix] = []
    for seed in _sym_basis(n):
        w = seed
        for o in ortho + ortho_basis:
            coeff = Fraction(trace_inner(w, o)) / Fraction(trace_inner(o, o))
            if coeff:
                w = w - o.scale(coeff)
        if any(any(x != 0 for x in row) for row in w.entries):
            ortho_basis.append(w)
            basis.append(_normalize_integer(w))
    expected = n * (n + 1) // 2 - len(ortho)
    assert len(basis) == expected
    return AffineSliceW(q0=q0, basis=tuple(basis), y=cols)


# ---------------------------------------------------------------------------
# W-maximizer: damped Newton in slice coordinates

def maximize_logdet_W(slice_w: AffineSliceW, tol: float = 1e-10, max_iter: int = 200,
                      initial: Optional[Sequence[float]] = None) -> SymMatrix:
    """The unique maximizer of logdet on the slice, or raises.

    Stationarity is <Q*^{-1}, Q_i> = 0 for every basis direction (the
    gradient of logdet at Q in the trace inner product is Q^{-1}).

    Raises InfeasibleRegion when no PD point is found on the slice, and
    ConvergenceFailure when max_iter is exhausted (distinct conditions).
    """
    import numpy as np

    s = slice_w.s
    if s == 0:
        if is_positive_definite(slice_w.q0) is True:
            return slice_w.q0
        raise InfeasibleRegion("the unique slice point is not positive definite")

    q0 = slice_w.q0.to_numpy()
    bases = [b.to_numpy() for b in slice_w.basis]
    t = np.zeros(s) if initial is None else np.asarray(initial, dtype=float)

    def qmat(tv):
        q = q0.copy()
        for ti, b in zip(tv, bases):
            q += ti * b
        return q

    def lammin(tv):
        return float(np.linalg.eigvalsh(qmat(tv)).min())

    # feasibility phase: subgradient ascent on the smallest eigenvalue
    if lammin(t) <= 0.0:
        scale = max(np.linalg.norm(b) for b in bases)
        best_t, best_l = t.copy(), lammin(t)
        for k in range(10 * max_iter):
            w, v = np.linalg.eigh(qmat(t))
            vec = v[:, 0]
            g = np.array([vec @ b @ vec for b in bases])
            ng = np.linalg.norm(g)
            if ng == 0.0:
                break
            t = t + (0.5 / (scale * math.sqrt(k + 1.0))) * g / ng
            l = lammin(t)
            if l > best_l:
                best_l, best_t = l, t.copy()
            if l > 1e-8:
                break
        t = best_t
        if lammin(t) <= 0.0:
            raise InfeasibleRegion("no positive definite point found on the slice")

    def logdet_np(q):
        sign, val = np.linalg.slogdet(q)
        return val if sign > 0 else -np.inf

    q = qmat(t)
    f = logdet_np(q)
    for _ in range(max_iter):
        qinv = np.linalg.inv(q)
        g = np.array([np.tensordot(qinv, b) for b in bases])
        if np.linalg.norm(g) <= tol:
            qs = 0.5 * (q + q.T)
            return SymMatrix.from_numpy(qs)
        h = np.empty((s, s))
        for i in range(s):
            qbq = qinv @ bases[i] @ qinv
            for j in range(i, s):
                h[i, j] = h[j, i] = -np.tensordot(qbq, bases[j])
        step = np.linalg.solve(h, -g)
        alpha = 1.0
        while alpha > 1e-18:
            tn = t + alpha * step
            qn = qmat(tn)
            try:
                np.linalg.cholesky(qn)
            except np.linalg.LinAlgError:
                alpha *= 0.5
                continue
            fn = logdet_np(qn)
            if fn >= f - 1e-14:
                t, q, f = tn, qn, fn
                break
            alpha *= 0.5
        else:
            raise ConvergenceFailure("line search stalled")
    raise ConvergenceFailure(f"no convergence within {max_iter} Newton iterations")


# ---------------------------------------------------------------------------
# C-maximizer: Frank-Wolfe with away steps + exact Newton polish

@dataclass(frozen=True)
class HullPoint:
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
    import numpy as np

    pinv = np.linalg.inv(point.p.to_numpy())
    vals = [float(np.array(c) @ pinv @ np.array(c)) for c in point.y]
    return max(vals) - point.p.n


def maximize_logdet_C(y, tol: float = 1e-10, max_iter: int = 200) -> HullPoint:
    """Maximize logdet over the convex hull of {Y_j Y_j^t}.

    KKT certificate at the optimum: Y_j^t P^{-1} Y_j <= n + tol for all j,
    with equality on the support; every support point then lies on the
    hyper-ellipsoid of (n P)^{-1}.
    """
    import numpy as np

    cols = as_columns(y)
    n = len(cols[0])
    nn = len(cols)
    if rank(cols) != n:
        raise InfeasibleRegion("the hull contains no positive definite point")
    ms = [np.outer(c, c).astype(float) for c in cols]
    lam = np.full(nn, 1.0 / nn)
    p = sum(w * m for w, m in zip(lam, ms))
    switch_tol = max(tol, 1e-7)

    def grad():
        pinv = np.linalg.inv(p)
        return np.array([np.tensordot(pinv, m) for m in ms])

    for _ in range(max_iter):
        g = grad()
        s_idx = int(np.argmax(g))
        gap = g[s_idx] - n
        support = np.where(lam > 1e-14)[0]
        v_idx = int(support[np.argmin(g[support])])
        away_gap = n - g[v_idx]
        if gap <= switch_tol:
            break
        if gap >= away_gap or lam[v_idx] >= 1.0 - 1e-16:
            d = ms[s_idx] - p
            gamma_max = 1.0
            fw, drop_idx = True, None
        else:
            d = p - ms[v_idx]
            gamma_max = lam[v_idx] / (1.0 - lam[v_idx])
            fw, drop_idx = False, v_idx

        def fprime(gamma):
            q = p + gamma * d
            try:
                np.linalg.cholesky(q)
                return float(np.tensordot(np.linalg.inv(q), d))
            except np.linalg.LinAlgError:
                return -math.inf

        if fprime(gamma_max) >= 0:
            gamma = gamma_max
        else:
            lo_g, hi_g = 0.0, gamma_max
            for _ in range(80):
                mid = 0.5 * (lo_g + hi_g)
                if fprime(mid) > 0:
                    lo_g = mid
                else:
                    hi_g = mid
            gamma = 0.5 * (lo_g + hi_g)
        if fw:
            lam *= (1.0 - gamma)
            lam[s_idx] += gamma
        else:
            lam *= (1.0 + gamma)
            lam[drop_idx] -= gamma
            if gamma >= gamma_max * (1 - 1e-12):
                lam[drop_idx] = 0.0
        lam = np.clip(lam, 0.0, None)
        lam /= lam.sum()
        p = sum(w * m for w, m in zip(lam, ms))

    lam = _newton_on_support(cols, ms, lam)
    point = _polish_hull_point(cols, lam, tol)
    if kkt_gap(point) > tol:
        raise ConvergenceFailure(f"hull maximizer did not reach KKT gap <= {tol}")
    return point


def _newton_on_support(cols: Columns, ms: list[np.ndarray], lam: np.ndarray) -> np.ndarray:
    """Equality-constrained Newton on the face identified by Frank-Wolfe."""
    import numpy as np

    n = len(cols[0])
    lam = lam.copy()
    for _ in range(40):
        support = [j for j in range(len(cols)) if lam[j] > 1e-15]
        k = len(support)
        p = sum(lam[j] * ms[j] for j in support)
        try:
            pinv = np.linalg.inv(p)
        except np.linalg.LinAlgError:
            return lam
        vs = np.array([cols[j] for j in support], dtype=float)
        cross = vs @ pinv @ vs.T
        g = np.diag(cross)
        if g.max() - n <= 1e-15 and abs(g.min() - n) <= 1e-15:
            break
        h = -(cross ** 2)
        a = np.zeros((k + 1, k + 1))
        a[:k, :k] = h
        a[:k, k] = 1.0
        a[k, :k] = 1.0
        rhs = np.concatenate([-(g - n), [0.0]])
        try:
            sol = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            break
        delta = sol[:k]
        step = 1.0
        cur = lam[support]
        neg = delta < 0
        if np.any(neg):
            step = min(1.0, float(0.95 * np.min(-cur[neg] / delta[neg])))
        new = cur + step * delta
        if np.any(new < 0):
            new = np.clip(new, 0.0, None)
        lam[:] = 0.0
        lam[support] = new
        total = lam.sum()
        if total <= 0:
            return lam
        lam /= total
        if np.linalg.norm(step * delta) < 1e-16:
            break
    return lam


def _polish_hull_point(cols: Columns, lam: np.ndarray, tol: float) -> HullPoint:
    """Exact rational Newton step on the support, then exact renormalization."""
    support = [j for j in range(len(cols)) if lam[j] > 1e-12]
    ws = [Fraction(float(lam[j])).limit_denominator(10**15) for j in support]
    total = sum(ws)
    ws = [w / total for w in ws]

    def hull_point(wlist) -> HullPoint:
        full = [Fraction(0)] * len(cols)
        for j, w in zip(support, wlist):
            full[j] = w
        return HullPoint.from_weights(cols, full)

    current = hull_point(ws)
    try:
        polished = _exact_newton_step(cols, support, ws)
    except (ValueError, ZeroDivisionError):
        polished = None
    if polished is not None and all(w > 0 for w in polished):
        cand = hull_point(polished)
        if kkt_gap(cand) <= max(kkt_gap(current), tol):
            return cand
    return current


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
# pencil maximizer (s = 1, n = 3): exact closed form

@dataclass(frozen=True)
class PencilResult:
    """Exact maximizer data on a one-parameter slice Q0 + t Q1."""

    t0: Union[Fraction, AlgebraicScalar]
    qstar: SymMatrix
    degree: int
    discriminant_quantity: Fraction


def pencil_maximize(slice_w: AffineSliceW) -> PencilResult:
    """Maximize det(Q0 + t Q1) exactly on a one-dimensional slice (n = 3).

    det(Q0 + t Q1) = det(Q0) (1 + c1 t + c2 t^2 + c3 t^3) with
    c1 = tr(M), c2 = (tr(M)^2 - tr(M^2))/2, c3 = det(M), M = Q0^{-1} Q1.
    The critical points solve c1 + 2 c2 t + 3 c3 t^2 = 0; the extension
    degree is 2 exactly when (2 c2)^2 - 12 c3 c1 is not a rational square.
    """
    if slice_w.s != 1:
        raise ValueError("pencil_maximize requires a one-dimensional slice")
    if slice_w.n != 3:
        raise ValueError("pencil_maximize is specific to 3x3 slices")
    q0, q1 = slice_w.q0, slice_w.basis[0]

    shift = Fraction(0)
    if determinant(q0) == 0:
        for cand in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
                     Fraction(2), Fraction(-2), Fraction(1, 3), Fraction(-1, 3)):
            if determinant(q0 + q1.scale(cand)) != 0:
                shift = cand
                break
        else:
            raise InfeasibleRegion("the pencil is everywhere singular")
        q0 = q0 + q1.scale(shift)

    m = inverse(q0).matmul(q1)
    c1 = sum(m[i][i] for i in range(3))
    c2 = (c1 * c1 - sum(m[i][j] * m[j][i] for i in range(3) for j in range(3))) / 2
    c3 = Fraction(determinant(q1)) / Fraction(determinant(q0))
    disc = (2 * c2) ** 2 - 12 * c3 * c1

    roots: list[Union[Fraction, AlgebraicScalar]] = []
    degree = 1
    if c3 != 0:
        if disc < 0:
            raise InfeasibleRegion("no real critical point; the slice misses the PD cone")
        if is_rational_square(disc):
            sq = rational_sqrt(disc)
            roots = [(-2 * c2 + sq) / (6 * c3), (-2 * c2 - sq) / (6 * c3)]
        else:
            degree = 2
            d = squarefree_part(disc.numerator * disc.denominator)
            field = sqrt_field(d)
            rho = rational_sqrt(disc / d)  # sqrt(disc) = rho * w
            w = field.generator()
            roots = [(w * rho - 2 * c2) / (6 * c3), (w * (-rho) - 2 * c2) / (6 * c3)]
    elif c2 != 0:
        roots = [-c1 / (2 * c2)]
    elif c1 == 0:
        roots = [Fraction(0)]
    else:
        raise InfeasibleRegion("determinant is strictly monotone on the pencil")

    for t0 in roots:
        qc = _shifted_point(q0, slice_w.basis[0], t0)
        if is_positive_definite(qc) is True:
            return PencilResult(t0=shift + t0, qstar=qc, degree=degree,
                                discriminant_quantity=disc)
    raise InfeasibleRegion("no critical point of the pencil is positive definite")


def _shifted_point(q0: SymMatrix, q1: SymMatrix, t0) -> SymMatrix:
    if isinstance(t0, AlgebraicScalar):
        field = t0.field
        rows = [[field.from_rational(q0.entries[i][j]) + t0 * q1.entries[i][j]
                 for j in range(q0.n)] for i in range(q0.n)]
        return SymMatrix(rows)
    return q0 + q1.scale(t0)


# ---------------------------------------------------------------------------
# rank-4 Lagrange system (unit-diagonal parameterization)

@dataclass(frozen=True)
class Rank4Critical:
    """Critical points of det on the slice through e1, e2, e3 and a rational r.

    The matrices are parameterized as [[1,a,b],[a,1,c],[b,c,1]]; eliminating
    the multiplier from the Lagrange system leaves a quartic in a together
    with closed forms b(a), c(a).  For r2 = 0 the system degenerates to the
    block-diagonal rational point (degree-1 branch).
    """

    r: tuple[Fraction, Fraction, Fraction]
    quartic: tuple[int, ...]
    a_roots: tuple[float, ...]
    candidates: tuple[tuple[float, float, float], ...]
    degree1: bool

    def b_of(self, a):
        r1, r2, r3 = self.r
        rho = r1 * r1 + r2 * r2 + r3 * r3
        return -(a * r2 + r1) * (2 * a * r1 * r2 + rho - 1) / (2 * r3 * (2 * a * r1 * r2 + r1 * r1 + r2 * r2))

    def c_of(self, a):
        r1, r2, r3 = self.r
        rho = r1 * r1 + r2 * r2 + r3 * r3
        return -(a * r1 + r2) * (2 * a * r1 * r2 + rho - 1) / (2 * r3 * (2 * a * r1 * r2 + r1 * r1 + r2 * r2))


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


def rank4_lagrange(r: Sequence[Rat]) -> Rank4Critical:
    """All real critical points (a, b(a), c(a)) of det on the rank-4 slice."""
    r1, r2, r3 = (Fraction(x) for x in r)
    if r1 == 0 or r3 == 0:
        raise ValueError("the normalization requires r1 and r3 nonzero")
    rr = (r1, r2, r3)
    if r2 == 0:
        rho = r1 * r1 + r3 * r3
        b = (1 - rho) / (2 * r1 * r3)
        crit = Rank4Critical(r=rr, quartic=(), a_roots=(0.0,),
                             candidates=((0.0, float(b), 0.0),), degree1=True)
        return crit
    quartic = rank4_quartic(rr)
    if not quartic or len(quartic) == 1:
        raise ValueError("degenerate stationarity polynomial")
    bad_den = -(r1 * r1 + r2 * r2) / (2 * r1 * r2)  # pole of b(a), c(a)
    intervals = isolate_real_roots(quartic)
    roots: list[float] = []
    cands: list[tuple[float, float, float]] = []
    proto = Rank4Critical(r=rr, quartic=quartic, a_roots=(), candidates=(), degree1=False)
    for lo, hi in intervals:
        lo2, hi2 = refine_root(quartic, lo, hi, Fraction(1, 10**18))
        a_val = float((lo2 + hi2) / 2)
        if lo2 <= bad_den <= hi2:
            continue
        roots.append(a_val)
        af = Fraction((lo2 + hi2) / 2)
        cands.append((a_val, float(proto.b_of(af)), float(proto.c_of(af))))
    return Rank4Critical(r=rr, quartic=quartic, a_roots=tuple(roots),
                         candidates=tuple(cands), degree1=False)


# ---------------------------------------------------------------------------
# Caratheodory reduction (exact)

def caratheodory_reduce(point: HullPoint) -> HullPoint:
    """Rewrite the combination on at most n(n+1)/2 vectors, preserving P exactly.

    Linear dependencies among the rank-one matrices are eliminated one at a
    time, so the support drops to at most dim Sym_n = n(n+1)/2.  For
    certificate data all Y_j Y_j^t lie on the hyperplane <Q, .> = 1, hence
    eliminating a linear dependence also preserves the weight sum (take the
    inner product with Q), and the reduced point is again a convex
    combination.  Ties are broken toward the lowest index; float weights are
    first lifted exactly to rationals.
    """
    n = point.p.n
    bound = n * (n + 1) // 2
    weights = [Fraction(w) if isinstance(w, (int, float, Fraction)) else w
               for w in point.weights]
    active = [j for j, w in enumerate(weights) if w]
    while len(active) > bound:
        columns = [_vec(SymMatrix.rank_one(point.y[j])) for j in active]
        z = kernel_vector(list(zip(*columns)))
        if z is None:
            raise ValueError("no linear dependence found; invalid hull point")
        if not any(v > 0 for v in z):
            z = [-v for v in z]
        theta = None
        pick = None
        for idx, j in enumerate(active):
            if z[idx] > 0:
                ratio = weights[j] / z[idx]
                if theta is None or ratio < theta:
                    theta, pick = ratio, idx
        assert theta is not None
        new_active = []
        for idx, j in enumerate(active):
            weights[j] = weights[j] - theta * z[idx]
            if idx == pick:
                weights[j] = weights[j] - weights[j]  # exact zero in any scalar type
            if weights[j]:
                new_active.append(j)
        active = new_active
    out = [w if j in set(active) else (w - w) for j, w in enumerate(weights)]
    return HullPoint(y=point.y, weights=tuple(out), p=point.p)


# ---------------------------------------------------------------------------
# exact hull membership (used by the pencil construction)

def exact_hull_weights(cols: Columns, p: SymMatrix):
    """Nonnegative weights with sum lambda_j Y_j Y_j^t = P, or None.

    Rational P: decided by exact LP.  Algebraic P: decided by enumerating
    linearly independent subsets (complete by Caratheodory for cones) and
    solving in the field with certified positivity.
    """
    n = p.n
    ms = [SymMatrix.rank_one(c) for c in cols]
    idx_pairs = [(i, j) for i in range(n) for j in range(i, n)]
    if p.regime == "rational":
        rows = [[Fraction(m.entries[i][j]) for m in ms] for (i, j) in idx_pairs]
        rhs = [Fraction(p.entries[i][j]) for (i, j) in idx_pairs]
        sol = feasible_point(rows, rhs)
        return sol
    if p.regime != "algebraic":
        raise TypeError("exact membership needs exact scalars")
    field = p.entries[0][0].field
    vec_cols = [[m.entries[i][j] for (i, j) in idx_pairs] for m in ms]
    target = [p.entries[i][j] for (i, j) in idx_pairs]
    full = rank(vec_cols)
    from itertools import combinations
    # Caratheodory for cones: any conic representation is supported on some
    # linearly independent subset, and every such subset extends to maximal rank
    for subset in combinations(range(len(cols)), full):
        sub = [vec_cols[j] for j in subset]
        if rank(sub) != full:
            continue
        lam = solve(list(zip(*sub)), target)
        if lam is None:
            continue
        if all(l.sign() >= 0 for l in lam):
            out = [field.from_rational(0)] * len(cols)
            for j, l in zip(subset, lam):
                out[j] = l
            return out
    return None
