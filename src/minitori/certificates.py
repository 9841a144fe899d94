"""Immersion certificates: matrix data, the full equation system of a
coefficient operator, embeddedness and target-dimension reduction.

A homogeneous immersion is certified by matrix data {n, N, Q, Y, weights}:
Q the dual-lattice Gram matrix in integer coordinates (so Y_j^t Q Y_j = 1),
Y the integer coordinates of the participating norm-1 classes, and weights
the squared coefficients c_j^2 with sum 1 and sum c_j^2 Y_j Y_j^t = Q^{-1}/n.
For exact data `verify_matrix_data` never inverts Q when the certificate
holds: it builds W = sum c_j^2 Y_j Y_j^t with one primitive
(`SymMatrix.rank_one_sum`) and tests n Q W = I, which holds exactly iff
W = Q^{-1}/n.  With rank Y = n and every weight certified positive, W is then
positive definite, hence so is Q = W^{-1}/n, and no elimination is needed.
Q^{-1} and the elimination are computed only to report a failing or float
certificate, so every report is that of inverting Q.

General (possibly non-homogeneous) immersions are certified by the 2N x 2N
coefficient operator A A^t together with (Q, Y): writing the squared norm and
the pullback metric of x = (Theta_1, ..., Theta_N) A in Fourier modes, the
constraints are one pair of scalar equations and one pair of matrix equations
per +/- class of frequencies eta = Y_r +/- Y_s, plus the zero-frequency
equation sum_r a_r Y_r Y_r^t = Q^{-1}/n and positive semidefiniteness.
`GramOperator` holds the operator as the file format does, by 2 x 2 blocks:
the diagonal blocks a_r I2 by the a_r, and the nonzero blocks B_rs above the
diagonal.  `verify_full` reads the frequency classes off the blocks in one
pass, and only the PSD margin assembles the matrix.

All equation systems are evaluated in Y-coordinates; correctness under the
generator change is the congruence invariance of the rank-one sums.  The
general system is checked in plain Python: the unit-norm residual is exact,
the others are float sums of products taken in a fixed order, and the PSD
margin comes from a cyclic Jacobi eigenvalue run on the assembled operator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from operator import mul
from typing import AbstractSet, Iterable, NamedTuple, Optional, Sequence

from .lattices import canonical_class
from .optimize import as_columns, caratheodory_reduce
from .scalars import eliminate, exact_scalar
from .symmetric import SymMatrix, determinant, inverse, is_positive_definite, rank

DEFAULT_TOL = 1e-10


class UnverifiedCertificate(ValueError):
    """Raised when an operation requires a verified certificate."""


# ---------------------------------------------------------------------------
# matrix data (homogeneous certificates)

class MatrixData:
    """Certificate {n, N, Q, Y, weights} of a homogeneous minimal immersion.

    Y is normalized by `as_columns`; equality compares Q, Y and the weights,
    not the metadata."""

    __slots__ = ("q", "y", "weights", "metadata")

    def __init__(self, q: SymMatrix, y, weights: tuple, metadata: Optional[dict] = None):
        self.q, self.y, self.weights = q, as_columns(y), weights
        self.metadata = {} if metadata is None else metadata
        if len(weights) != len(self.y):
            raise ValueError("one weight per column required")

    def __eq__(self, other):
        if not isinstance(other, MatrixData):
            return NotImplemented
        return (self.q, self.y, self.weights) == (other.q, other.y, other.weights)

    @property
    def n(self) -> int:
        return self.q.n

    @property
    def big_n(self) -> int:
        return len(self.y)

    @property
    def sphere_dim(self) -> int:
        return 2 * len(self.y) - 1

    def is_exact(self) -> bool:
        return self.q.is_exact() and all(exact_scalar(w) for w in self.weights)


# ---------------------------------------------------------------------------
# verification reports

class VerificationReport(NamedTuple):
    verdict: str                      # "verified" | "falsified" | "indeterminate"
    reason: Optional[str]
    residuals: dict[str, float]
    psd_margin: Optional[float]
    tolerance: float

    @property
    def verified(self) -> bool:
        return self.verdict == "verified"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "residuals": {k: f"{v:.17e}" for k, v in self.residuals.items()},
            "psd_margin": None if self.psd_margin is None else f"{self.psd_margin:.17e}",
            "tolerance": f"{self.tolerance:.17e}",
        }


def _assemble_report(residuals: dict[str, float], psd_margin: Optional[float],
                     tol: float, structural: Optional[str],
                     borderline: Optional[str], nonzero: AbstractSet[str] = frozenset(),
                     scales: Optional[dict[str, float]] = None) -> VerificationReport:
    """Verdict from the residuals: those above tol (times their entry in
    `scales`, default 1) and the exact ones in `nonzero` (exact residuals that
    are not exactly zero) fail; the largest failing residual names the reason."""
    if structural is not None:
        return VerificationReport("falsified", structural, residuals, psd_margin, tol)
    scales = scales or {}
    failing = {k: v for k, v in residuals.items()
               if v > tol * scales.get(k, 1.0) or k in nonzero}
    if failing:
        worst_key = max(failing, key=failing.get)
        return VerificationReport("falsified", worst_key, residuals, psd_margin, tol)
    if psd_margin is not None and psd_margin < -tol:
        return VerificationReport("falsified", "psd", residuals, psd_margin, tol)
    if borderline is not None:
        return VerificationReport("indeterminate", borderline, residuals, psd_margin, tol)
    return VerificationReport("verified", None, residuals, psd_margin, tol)


def verify_matrix_data(data: MatrixData, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check the two certificate equations, weight positivity and normalization.

    Exact certificates are compared exactly: any residual that is not exactly
    zero falsifies, and its float magnitude is recorded.  Float certificates
    compare within tol, the flat residual within tol * max(1, max |(Q^{-1}/n)_ij|),
    so that the test is relative to the size of the entries it compares.
    The unit norms Y_j^t Q Y_j of all columns are one integer pass over Q's
    coordinates for exact Q (`SymMatrix.quad_forms`).

    For exact data the convex-combination equation W = Q^{-1}/n, with
    W = sum w_j Y_j Y_j^t, is tested without inverting Q, as n Q W = I: it
    holds exactly iff W = Q^{-1}/n, and then Q is nonsingular.  If it holds,
    rank Y = n and every weight is certified > 0, then W is positive definite
    (x^t W x = sum w_j (Y_j . x)^2 > 0 for x != 0, the Y_j spanning), and so
    is Q = W^{-1}/n, so the elimination of the positive definiteness test is
    skipped.  In every other case, and for float data, Q^{-1} gives the flat
    residual and the test runs, so verdicts, reasons and residuals are those
    of inverting Q every time.
    """
    n = data.n
    exact = data.is_exact()
    residuals: dict[str, float] = {}
    nonzero: set[str] = set()
    scales: dict[str, float] = {}

    def record(key, diff):
        residuals[key] = max(residuals.get(key, 0.0), abs(float(diff)))
        if exact and diff:
            nonzero.add(key)

    structural = None
    if rank(data.y) != n:
        structural = "rank"
    if has_proportional_columns(data.y):
        structural = structural or "proportional_columns"

    # unit-norm equation for every column, one integer pass for exact Q
    for v in data.q.quad_forms(data.y):
        record("unit_norm", v - 1)

    # convex-combination equation: sum w_j Y_j Y_j^t = Q^{-1}/n
    acc = SymMatrix.rank_one_sum(data.y, data.weights) if exact else None
    inverse_free = acc is not None and _is_inverse_over_n(data.q, acc)
    if inverse_free:
        residuals["flat"] = 0.0
    else:
        try:
            qinv = inverse(data.q)
        except ValueError:
            return VerificationReport("falsified", "singular_gram", residuals, None, tol)
        if acc is None:
            acc = SymMatrix.rank_one_sum(data.y, data.weights)
        target = qinv.scale(Fraction(1, n) if acc.is_exact() and qinv.is_exact() else 1.0 / n)
        for i in range(n):
            for j in range(n):
                record("flat", acc.entries[i][j] - target.entries[i][j])
        if not exact:  # an exact residual fails whenever it is nonzero
            scales["flat"] = _entry_scale(target.entries)

    wsum = None
    for w in data.weights:
        wsum = w if wsum is None else wsum + w
    record("weight_sum", wsum - 1)

    borderline = None
    wmin_f = None
    for w in data.weights:
        # float(w) also narrows an algebraic weight's isolating interval,
        # which io.emit writes: every weight is approximated, positive or not
        wf = float(w)
        wmin_f = wf if wmin_f is None else min(wmin_f, wf)
        if exact_scalar(w):
            if not w > 0:
                structural = structural or "weight_positivity"
        elif wf <= tol:
            if wf < -tol:
                structural = structural or "weight_positivity"
            else:
                borderline = "weight_positivity"
    residuals["min_weight"] = 0.0 if wmin_f is None or wmin_f > 0 else abs(min(wmin_f, 0.0))

    if not (inverse_free and structural is None):  # else Q is PD (see the docstring)
        pd = is_positive_definite(data.q)
        if pd is False:
            structural = structural or "gram_not_pd"
        elif pd is None:
            borderline = borderline or "gram_pd"
    return _assemble_report(residuals, None, tol, structural, borderline, nonzero, scales)


def _entry_scale(rows) -> float:
    """max(1, max |x|) over the entries: the factor of a residual's tolerance."""
    return max([1.0] + [abs(float(x)) for row in rows for x in row])


def _is_inverse_over_n(q: SymMatrix, w: SymMatrix) -> bool:
    """True iff n Q W = I exactly, for exact Q and W."""
    diagonal = Fraction(1, q.n)
    return all(x == (diagonal if i == k else 0)
               for i, row in enumerate(q.matmul(w)) for k, x in enumerate(row))


# ---------------------------------------------------------------------------
# general certificates: the coefficient operator A A^t

def has_proportional_columns(y) -> bool:
    """True iff two columns are equal up to sign (the same +/- class)."""
    classes = [canonical_class(c) for c in y]
    return len(set(classes)) < len(classes)


class GramOperator:
    """The 2N x 2N PSD coefficient operator A A^t of a (possibly non-homogeneous)
    immersion, held as its 2 x 2 blocks.

    `diagonal` is (a_1, ..., a_N): the diagonal blocks are a_r I2, the
    structural constraint forced by the frequency-2Y_r modes.  `blocks` maps
    each (r, s) with r < s whose block B_rs is nonzero to B_rs as two rows, in
    (r, s) order; the block at (s, r) is its transpose, so the operator is
    symmetric by construction.  The constructor takes the blocks as
    ((r, s), block) pairs, a later pair replacing an earlier one; a block
    given at (s, r) is stored transposed, a zero block is dropped, and every
    entry must be a finite float.
    """

    __slots__ = ("diagonal", "blocks")

    def __init__(self, diagonal: Sequence[float], blocks: Iterable = ()):
        self.diagonal = tuple(float(a) for a in diagonal)
        n = len(self.diagonal)
        stored = {}
        for (r, s), blk in blocks:
            if len(blk) != 2 or any(len(row) != 2 for row in blk):
                raise ValueError("a block must be 2 x 2")
            if r == s or not (0 <= r < n and 0 <= s < n):
                raise ValueError(f"({r}, {s}) is not an off-diagonal block of {n} classes")
            b = [[float(x) for x in row] for row in blk]
            stored[min(r, s), max(r, s)] = tuple(map(tuple, b if r < s else zip(*b)))
        # NaN would pass every tolerance test of the verifier (each comparison is False)
        if not all(math.isfinite(x) for x in self.diagonal + _entries(stored.values())):
            raise ValueError("operator entries must be finite")
        self.blocks = {k: b for k, b in sorted(stored.items()) if any(map(any, b))}

    @property
    def N(self) -> int:
        return len(self.diagonal)

    @property
    def matrix(self) -> tuple[tuple[float, ...], ...]:
        """The assembled 2N x 2N matrix, row by row."""
        m = [[0.0] * (2 * self.N) for _ in range(2 * self.N)]
        for r, a in enumerate(self.diagonal):
            m[2 * r][2 * r] = m[2 * r + 1][2 * r + 1] = a
        for (r, s), b in self.blocks.items():
            for i in range(2):
                for j in range(2):
                    m[2 * r + i][2 * s + j] = m[2 * s + j][2 * r + i] = b[i][j]
        return tuple(map(tuple, m))

    def __eq__(self, other):
        if not isinstance(other, GramOperator):
            return NotImplemented
        return self.diagonal == other.diagonal and self.blocks == other.blocks


def _entries(blocks) -> tuple[float, ...]:
    """The entries of 2 x 2 blocks, block by block, row by row."""
    return tuple(x for b in blocks for row in b for x in row)


def is_homogeneous(gram: GramOperator, tol: float = DEFAULT_TOL) -> bool:
    """True iff every off-diagonal 2x2 block vanishes within tol."""
    return all(abs(x) <= tol for x in _entries(gram.blocks.values()))


def verify_full(gram: GramOperator, geometry: tuple[SymMatrix, Sequence],
                tol: float = DEFAULT_TOL) -> VerificationReport:
    """Verify the complete isometric-immersion system for a coefficient operator.

    Per +/- frequency class eta the Fourier expansion of |x|^2 - 1 and of the
    pullback metric gives, over all realizations Y_r + sigma Y_s = o * eta
    (r < s, o the orientation, B the (r,s) block of A A^t, K = Y_r Y_s^t + Y_s Y_r^t):

        norm, cos:    sum_{sigma=+1} (B11 - B22)    + sum_{sigma=-1} (B11 + B22)
        norm, sin:    sum_{sigma=+1} o (B12 + B21)  + sum_{sigma=-1} o (B21 - B12)
        metric, cos:  sum_{sigma=+1} -(B11 - B22) K + sum_{sigma=-1} (B11 + B22) K
        metric, sin:  sum_{sigma=+1} -o (B12+B21) K + sum_{sigma=-1} o (B21 - B12) K

    (`frequency_coefficients`), plus the zero-frequency equation
    sum_r a_r Y_r Y_r^t = Q^{-1}/n (the euta residual, compared within
    tol * max(1, max |(Q^{-1}/n)_ij|)), the unit norm of every class (for
    exact Q one integer pass over its coordinates, `SymMatrix.quad_forms`),
    and PSD of the assembled operator: psd_margin is its smallest
    eigenvalue.  Two columns equal up to sign falsify the certificate as
    "proportional_columns", as in `verify_matrix_data`.
    """
    q, y = geometry
    cols = as_columns(y)
    n = q.n
    if gram.N != len(cols):
        raise ValueError(f"operator has {gram.N} classes, geometry has {len(cols)}")
    residuals: dict[str, float] = {}

    # Q and Y are exact data (unless Q is a float matrix): no rounding here
    residuals["unit_norm"] = max(abs(float(v - 1)) for v in q.quad_forms(cols))
    try:
        # the exact inverse of the float Q, rounded once: 1.0/d for diagonal Q
        qinv = inverse(SymMatrix([[float(x) for x in row] for row in q.entries])).entries
    except ValueError:
        return VerificationReport("falsified", "singular_gram", residuals, None, tol)

    euta = SymMatrix.rank_one_sum(cols, gram.diagonal).entries
    residuals["euta"] = max(abs(x - v / n) for row, vrow in zip(euta, qinv)
                            for x, v in zip(row, vrow))
    scales = {"euta": _entry_scale([[v / n for v in row] for row in qinv])}

    psd_margin = min(_jacobi_eigenvalues(gram.matrix))
    if has_proportional_columns(cols):
        # the frequency classes Y_r +/- Y_s are undefined: one of them is 0
        return _assemble_report(residuals, psd_margin, tol, "proportional_columns", None)
    coeffs = frequency_coefficients(gram, cols).values()
    residuals["eigen1"] = max((abs(v[0]) for v in coeffs), default=0.0)
    residuals["eigen2"] = max((abs(v[1]) for v in coeffs), default=0.0)
    residuals["iso1"] = max((_max_abs(v[2]) for v in coeffs), default=0.0)
    residuals["iso2"] = max((_max_abs(v[3]) for v in coeffs), default=0.0)
    return _assemble_report(residuals, psd_margin, tol, None, None, scales=scales)


def _max_abs(m: list[list[float]]) -> float:
    return max(abs(x) for row in m for x in row)


def _jacobi_eigenvalues(a: list[list[float]]) -> list[float]:
    """Eigenvalues of a small symmetric float matrix by cyclic Jacobi rotations.

    Each rotation zeroes one off-diagonal pair (Rutishauser's update); sweeps
    stop once every off-diagonal entry is zero or negligible next to its two
    diagonal entries, so a diagonal matrix is returned as it is.  Convergence
    is quadratic, so the cap of 60 sweeps is never reached in practice.
    """
    n = len(a)
    a = [list(row) for row in a]
    for _ in range(60):
        rotated = False
        for p in range(n):
            for q in range(p + 1, n):
                apq = a[p][q]
                if not apq:
                    continue
                if abs(apq) <= 1e-18 * (abs(a[p][p]) + abs(a[q][q])):
                    a[p][q] = a[q][p] = 0.0
                    continue
                rotated = True
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
                a[p][q] = a[q][p] = 0.0
        if not rotated:
            break
    return [a[i][i] for i in range(n)]


def frequency_coefficients(gram: GramOperator, y) -> dict:
    """Fourier data per +/- frequency class eta = Y_r +/- Y_s.

    Returns eta -> [e1, e2, i1, i2] where the squared norm and the pullback
    metric of the immersion decompose as

        |x(u)|^2            = sum_r a_r + sum_eta [e1 cos th + e2 sin th]
        metric matrix G(u)  = 4 pi^2 (sum_r a_r Y_r Y_r^t
                              + sum_eta [i1/2 cos th + i2/2 sin th])

    with th = 2 pi <eta, u>; i1 and i2 are n x n row lists.  All four vanish
    for every eta exactly when the operator solves the eigenfunction and
    isometry systems.  One pass over the nonzero blocks B_rs in (r, s) order,
    sigma = +1 before -1, keys each realization Y_r + sigma Y_s = o eta by its
    class eta (`canonical_class`) and reads o as it adds the realization's
    terms; a class with only zero blocks has four zero coefficients and is
    left out.
    """
    cols = as_columns(y)
    n = len(cols[0])
    out: dict = {}
    for (r, s), ((b00, b01), (b10, b11)) in gram.blocks.items():
        yr, ys = cols[r], cols[s]
        k = [[float(yr[i] * ys[j]) + float(yr[j] * ys[i]) for j in range(n)]
             for i in range(n)]
        for sigma in (1, -1):
            v = tuple(a + sigma * b for a, b in zip(yr, ys))
            eta = canonical_class(v)
            o = 1 if v == eta else -1
            if sigma == 1:
                e1, e2 = b00 - b11, o * (b01 + b10)
            else:
                e1, e2 = b00 + b11, o * (b10 - b01)
            acc = out.setdefault(eta, [0.0, 0.0, [[0.0] * n for _ in range(n)],
                                       [[0.0] * n for _ in range(n)]])
            acc[0] += e1
            acc[1] += e2
            c1, c2 = -sigma * e1, -sigma * e2  # the metric's are -sigma times the norm's
            for i in range(n):
                for j in range(n):
                    acc[2][i][j] += c1 * k[i][j]
                    acc[3][i][j] += c2 * k[i][j]
    return out


# ---------------------------------------------------------------------------
# embeddedness

class EmbeddednessResult(NamedTuple):
    status: str  # "embedded" | "not_embedded" | "unknown"
    witness: Optional[tuple[Fraction, ...]]


def embeddedness(y, exhaustive: bool = False) -> EmbeddednessResult:
    """Decide injectivity of the immersion determined by the columns of Y.

    The image of u under the angle map is (theta_j) = (Y_j . u); the
    immersion is embedded iff no nonzero u in (-1,1)^n has all angles
    integral.  A unimodular n x n minor certifies embeddedness; when N = n
    the condition is exactly |det Y| = 1 (Minkowski's convex body theorem).
    The exhaustive path enumerates integer angle vectors through an
    invertible column subset and reports a witness point on failure.
    """
    cols = as_columns(y)
    n, nn = len(cols[0]), len(cols)
    if rank(cols) != n:
        raise ValueError("rank(Y) must equal n")
    basis_picks = None
    for picks in combinations(range(nn), n):
        d = determinant([cols[p] for p in picks])
        if d != 0 and basis_picks is None:
            basis_picks = picks
        if abs(d) == 1:
            return EmbeddednessResult("embedded", None)
    if nn == n:
        if not exhaustive:
            return EmbeddednessResult("not_embedded", None)
    elif not exhaustive:
        return EmbeddednessResult("unknown", None)

    # exhaustive search: solve the angles on an invertible subset
    assert basis_picks is not None
    # angle system: m_i = <Y_{basis_i}, u>, i.e. rows of the matrix B are the
    # basis columns, so u = adj m / det: |u_i| < 1 iff |(adj m)_i| < |det|,
    # and <Y_j, u> is an integer iff det divides <Y_j, adj m>.  A fraction-free
    # Gauss-Jordan pass on [B | I] leaves [t I | t B^-1], t its last pivot,
    # so det = t and adj = t B^-1 (both +/- those of B)
    a = [list(cols[p]) + [int(i == j) for j in range(n)] for i, p in enumerate(basis_picks)]
    det = eliminate(a, n)[0][-1][1]
    adj = [row[n:] for row in a]
    size = abs(det)
    rest = [cols[j] for j in range(nn) if j not in basis_picks]
    bounds = [sum(abs(x) for x in cols[p]) for p in basis_picks]

    # every integer angle vector of the box but 0 (the only one with w = 0);
    # u = w / det is kept as the +/- class of w, its numerators over |det|
    witnesses = set()
    for mvec in product(*(range(-(b - 1), b) for b in bounds)):
        w = [sum(map(mul, row, mvec)) for row in adj]
        if max(map(abs, w)) < size and any(w) and \
                all(sum(map(mul, col, w)) % det == 0 for col in rest):
            witnesses.add(canonical_class(w))
    if not witnesses:
        return EmbeddednessResult("embedded", None)

    def simplicity(u):
        support = tuple(i for i, x in enumerate(u) if x != 0)
        negatives = sum(1 for x in u if x < 0)
        return (len(support), support, negatives, u)

    best = min(witnesses, key=simplicity)
    return EmbeddednessResult("not_embedded", tuple(Fraction(x, size) for x in best))


# ---------------------------------------------------------------------------
# target-dimension reduction

def reduce_target_dimension(data: MatrixData) -> MatrixData:
    """Rewrite a verified homogeneous certificate on at most n(n+1)/2 classes.

    Q is kept, and the weights are those of `caratheodory_reduce` without its
    zeros, in the input's regime: P = Q^{-1}/n is kept exactly (for float
    weights, up to rounding each weight once), so the sphere dimension drops
    to 2N' - 1 <= n^2 + n - 1, the paper's bound.  An unverified certificate
    raises UnverifiedCertificate.
    """
    report = verify_matrix_data(data)
    if not report.verified:
        raise UnverifiedCertificate(f"certificate is {report.verdict}: {report.reason}")
    weights = caratheodory_reduce(data.y, data.weights)
    keep = [j for j, w in enumerate(weights) if w]
    meta = dict(data.metadata)
    meta["reduced_from_classes"] = data.big_n
    return MatrixData(q=data.q, y=[data.y[j] for j in keep],
                      weights=tuple(weights[j] for j in keep), metadata=meta)
