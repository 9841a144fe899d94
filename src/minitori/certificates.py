"""Immersion certificates: matrix data, eta-sets, the full equation system,
embeddedness and target-dimension reduction.

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

All equation systems are evaluated in Y-coordinates; correctness under the
generator change is the congruence invariance of the rank-one sums.  The
general system is checked in plain Python: the unit-norm residual is exact,
the others are float sums of products taken in a fixed order, and the PSD
margin comes from a cyclic Jacobi eigenvalue run on the assembled operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import AbstractSet, Optional, Sequence

from .lattices import canonical_class
from .optimize import Columns, HullPoint, as_columns, caratheodory_reduce
from .scalars import eliminate, exact_scalar
from .symmetric import SymMatrix, determinant, inverse, is_positive_definite, rank

DEFAULT_TOL = 1e-10


class UnverifiedCertificate(ValueError):
    """Raised when an operation requires a verified certificate."""


# ---------------------------------------------------------------------------
# matrix data (homogeneous certificates)

@dataclass(frozen=True)
class MatrixData:
    """Certificate {n, N, Q, Y, weights} of a homogeneous minimal immersion."""

    q: SymMatrix
    y: Columns
    weights: tuple
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "y", as_columns(self.y))
        if len(self.weights) != len(self.y):
            raise ValueError("one weight per column required")

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

@dataclass
class VerificationReport:
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

    # unit-norm equation for every column
    for c in data.y:
        record("unit_norm", data.q.quad_form(c) - 1)

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
# eta-sets

@dataclass(frozen=True)
class EtaSystem:
    """All +/- classes of frequency vectors Y_r +/- Y_s with their realizations.

    entries maps the sign-canonicalized eta (first nonzero entry positive) to
    the tuple of realizations (r, s, sigma) with Y_r + sigma Y_s = +/- eta.
    Every unordered pair r < s appears under exactly two keys.
    """

    entries: dict[tuple[int, ...], tuple[tuple[int, int, int], ...]]
    y: Columns

    def orientation(self, eta: tuple[int, ...], real: tuple[int, int, int]) -> int:
        """+1 when Y_r + sigma Y_s equals eta itself, -1 when it equals -eta."""
        r, s, sigma = real
        v = tuple(a + sigma * b for a, b in zip(self.y[r], self.y[s]))
        return 1 if v == eta else -1


def has_proportional_columns(y) -> bool:
    """True iff two columns are equal up to sign (the same +/- class)."""
    classes = [canonical_class(c) for c in y]
    return len(set(classes)) < len(classes)


def eta_sets(y) -> EtaSystem:
    """Group every sum/difference Y_r +/- Y_s (r < s) by the +/- class of its value."""
    cols = as_columns(y)
    nn = len(cols)
    if has_proportional_columns(cols):
        raise ValueError("columns must be pairwise non-proportional")
    out: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    for r in range(nn):
        for s in range(r + 1, nn):
            for sigma in (1, -1):
                v = tuple(a + sigma * b for a, b in zip(cols[r], cols[s]))
                key = canonical_class(v)
                out.setdefault(key, []).append((r, s, sigma))
    entries = {k: tuple(v) for k, v in sorted(out.items())}
    return EtaSystem(entries=entries, y=cols)


# ---------------------------------------------------------------------------
# general certificates: the coefficient operator A A^t

class GramOperator:
    """The 2N x 2N PSD coefficient operator of a (possibly non-homogeneous) immersion.

    Stored as the assembled float matrix, a tuple of rows of finite floats;
    diagonal 2x2 blocks must be scalar multiples of the identity (the
    structural constraint forced by the frequency-2Y_r modes).  Symmetry and
    the diagonal blocks are checked to 1e-12 relative to the largest entry.
    """

    __slots__ = ("N", "matrix")

    def __init__(self, matrix: Sequence[Sequence[float]]):
        arr = [[float(x) for x in row] for row in matrix]
        n2 = len(arr)
        if n2 % 2 or any(len(row) != n2 for row in arr):
            raise ValueError("expected a 2N x 2N matrix")
        # NaN would pass every tolerance test below (each comparison is False)
        if not all(math.isfinite(x) for row in arr for x in row):
            raise ValueError("matrix entries must be finite")
        tol = 1e-12 * max([1.0] + [abs(x) for row in arr for x in row])
        if any(abs(arr[i][j] - arr[j][i]) > tol for i in range(n2) for j in range(i)):
            raise ValueError("matrix must be symmetric")
        self.N = n2 // 2
        self.matrix = tuple(tuple(0.5 * (x + y) for x, y in zip(row, col))
                            for row, col in zip(arr, zip(*arr)))
        for r in range(self.N):
            (b00, b01), (b10, b11) = self.block(r, r)
            if abs(b00 - b11) > tol or abs(b01) > tol or abs(b10) > tol:
                raise ValueError(f"diagonal block {r} is not a scalar multiple of I2")

    @classmethod
    def from_blocks(cls, n_classes: int, diagonal: Sequence[float],
                    off_blocks: dict[tuple[int, int], Sequence[Sequence[float]]]
                    ) -> "GramOperator":
        m = [[0.0] * (2 * n_classes) for _ in range(2 * n_classes)]
        for r, a in enumerate(diagonal):
            m[2 * r][2 * r] = m[2 * r + 1][2 * r + 1] = float(a)
        for (r, s), blk in off_blocks.items():
            write_block(m, r, s, blk)
        return cls(m)

    def block(self, r: int, s: int) -> tuple[tuple[float, float], tuple[float, float]]:
        m = self.matrix
        return ((m[2 * r][2 * s], m[2 * r][2 * s + 1]),
                (m[2 * r + 1][2 * s], m[2 * r + 1][2 * s + 1]))

    def a(self, r: int) -> float:
        return self.matrix[2 * r][2 * r]

    def __eq__(self, other):
        if not isinstance(other, GramOperator):
            return NotImplemented
        return self.N == other.N and self.matrix == other.matrix


def write_block(m: list[list[float]], r: int, s: int, blk: Sequence[Sequence[float]]) -> None:
    """Write the 2x2 block (r, s) of the row lists m, and its transpose at (s, r)."""
    if len(blk) != 2 or any(len(row) != 2 for row in blk):
        raise ValueError("a block must be 2 x 2")
    if not (0 <= r < len(m) // 2 and 0 <= s < len(m) // 2):
        raise ValueError(f"block ({r}, {s}) is out of range")
    b = [[float(x) for x in row] for row in blk]
    for i in range(2):
        m[2 * r + i][2 * s:2 * s + 2] = b[i]
    for i in range(2):  # for r == s the transpose is written last
        for j in range(2):
            m[2 * s + j][2 * r + i] = b[i][j]


def is_homogeneous(gram: GramOperator, tol: float = DEFAULT_TOL) -> bool:
    """True iff every off-diagonal 2x2 block vanishes within tol."""
    return all(abs(x) <= tol for i, row in enumerate(gram.matrix)
               for j, x in enumerate(row) if i // 2 != j // 2)


def verify_full(gram: GramOperator, geometry: tuple[SymMatrix, Sequence],
                tol: float = DEFAULT_TOL) -> VerificationReport:
    """Verify the complete isometric-immersion system for a coefficient operator.

    Per +/- frequency class eta the Fourier expansion of |x|^2 - 1 and of the
    pullback metric gives, over all realizations Y_r + sigma Y_s = o * eta
    (o the orientation, B the (r,s) block of A A^t, K = Y_r Y_s^t + Y_s Y_r^t):

        norm, cos:    sum_{sigma=+1} (B11 - B22)    + sum_{sigma=-1} (B11 + B22)
        norm, sin:    sum_{sigma=+1} o (B12 + B21)  + sum_{sigma=-1} o (B21 - B12)
        metric, cos:  sum_{sigma=+1} -(B11 - B22) K + sum_{sigma=-1} (B11 + B22) K
        metric, sin:  sum_{sigma=+1} -o (B12+B21) K + sum_{sigma=-1} o (B21 - B12) K

    plus the zero-frequency equation sum_r a_r Y_r Y_r^t = Q^{-1}/n (the euta
    residual, compared within tol * max(1, max |(Q^{-1}/n)_ij|)), the unit
    norm of every class, and PSD of the assembled operator: psd_margin is its
    smallest eigenvalue.  Two columns equal up to sign falsify the certificate
    as "proportional_columns", as in `verify_matrix_data`.
    """
    q, y = geometry
    cols = as_columns(y)
    n = q.n
    if gram.N != len(cols):
        raise ValueError(f"operator has {gram.N} classes, geometry has {len(cols)}")
    residuals: dict[str, float] = {}

    # Q and Y are exact data (unless Q is a float matrix): no rounding here
    residuals["unit_norm"] = max(abs(float(q.quad_form(c) - 1)) for c in cols)
    try:
        # the exact inverse of the float Q, rounded once: 1.0/d for diagonal Q
        qinv = inverse(SymMatrix([[float(x) for x in row] for row in q.entries])).entries
    except ValueError:
        return VerificationReport("falsified", "singular_gram", residuals, None, tol)

    euta = [[0.0] * n for _ in range(n)]
    for r, c in enumerate(cols):
        a = gram.a(r)
        for i in range(n):
            for j in range(n):
                euta[i][j] += a * (c[i] * c[j])
    residuals["euta"] = max(abs(x - v / n) for row, vrow in zip(euta, qinv)
                            for x, v in zip(row, vrow))
    scales = {"euta": _entry_scale([[v / n for v in row] for row in qinv])}

    psd_margin = min(_jacobi_eigenvalues(gram.matrix))
    if has_proportional_columns(cols):
        # the frequency classes Y_r +/- Y_s are undefined: one of them is 0
        return _assemble_report(residuals, psd_margin, tol, "proportional_columns", None)
    coeffs = frequency_coefficients(gram, cols)
    residuals["eigen1"] = max((abs(v[0]) for v in coeffs.values()), default=0.0)
    residuals["eigen2"] = max((abs(v[1]) for v in coeffs.values()), default=0.0)
    residuals["iso1"] = max((_max_abs(v[2]) for v in coeffs.values()), default=0.0)
    residuals["iso2"] = max((_max_abs(v[3]) for v in coeffs.values()), default=0.0)
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

    Returns eta -> (e1, e2, i1, i2) where the squared norm and the pullback
    metric of the immersion decompose as

        |x(u)|^2            = sum_r a_r + sum_eta [e1 cos th + e2 sin th]
        metric matrix G(u)  = 4 pi^2 (sum_r a_r Y_r Y_r^t
                              + sum_eta [i1/2 cos th + i2/2 sin th])

    with th = 2 pi <eta, u>; i1 and i2 are n x n row lists.  All four vanish
    for every eta exactly when the operator solves the eigenfunction and
    isometry systems.
    """
    cols = as_columns(y)
    n = len(cols[0])
    system = eta_sets(cols)
    out = {}
    for eta, realizations in system.entries.items():
        s_e1 = s_e2 = 0.0
        m_i1 = [[0.0] * n for _ in range(n)]
        m_i2 = [[0.0] * n for _ in range(n)]
        for (r, s, sigma) in realizations:
            o = system.orientation(eta, (r, s, sigma))
            (b00, b01), (b10, b11) = gram.block(r, s)
            yr, ys = cols[r], cols[s]
            k = [[float(yr[i] * ys[j]) + float(yr[j] * ys[i]) for j in range(n)]
                 for i in range(n)]
            if sigma == 1:
                s_e1 += b00 - b11
                s_e2 += o * (b01 + b10)
                c1 = -(b00 - b11)
                c2 = -o * (b01 + b10)
            else:
                s_e1 += b00 + b11
                s_e2 += o * (b10 - b01)
                c1 = b00 + b11
                c2 = o * (b10 - b01)
            for i in range(n):
                for j in range(n):
                    m_i1[i][j] += c1 * k[i][j]
                    m_i2[i][j] += c2 * k[i][j]
        out[eta] = (s_e1, s_e2, m_i1, m_i2)
    return out


# ---------------------------------------------------------------------------
# embeddedness

@dataclass(frozen=True)
class EmbeddednessResult:
    status: str  # "embedded" | "not_embedded" | "unknown"
    witness: Optional[tuple[Fraction, ...]]
    certificate: Optional[str]


def embeddedness(y, exhaustive: bool = False) -> EmbeddednessResult:
    """Decide injectivity of the immersion determined by the columns of Y.

    The image of u under the angle map is (theta_j) = (Y_j . u); the
    immersion is embedded iff no nonzero u in (-1,1)^n has all angles
    integral.  A unimodular n x n minor certifies embeddedness; when N = n
    the condition is exactly |det Y| = 1 (Minkowski's convex body theorem).
    The exhaustive path enumerates integer angle vectors through an
    invertible column subset and reports a witness point on failure.
    """
    from itertools import combinations

    cols = as_columns(y)
    n = len(cols[0])
    nn = len(cols)
    if rank(cols) != n:
        raise ValueError("rank(Y) must equal n")
    basis_picks = None
    for picks in combinations(range(nn), n):
        d = determinant([cols[p] for p in picks])
        if d != 0 and basis_picks is None:
            basis_picks = picks
        if abs(d) == 1:
            return EmbeddednessResult("embedded", None,
                                      f"unimodular_minor{picks}")
    if nn == n:
        if not exhaustive:
            return EmbeddednessResult("not_embedded", None, "determinant")
    elif not exhaustive:
        return EmbeddednessResult("unknown", None, None)

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

    witnesses = []
    ranges = [range(-(b - 1), b) for b in bounds]

    def rec(idx, mvec):
        if idx == n:
            if all(v == 0 for v in mvec):
                return
            w = [sum(a * m for a, m in zip(row, mvec)) for row in adj]
            if any(abs(x) >= size for x in w):
                return
            for col in rest:
                if sum(y * x for y, x in zip(col, w)) % det:
                    return
            witnesses.append(tuple(Fraction(x, det) for x in w))
            return
        for v in ranges[idx]:
            rec(idx + 1, mvec + [v])

    rec(0, [])
    if not witnesses:
        return EmbeddednessResult("embedded", None, "exhaustive")

    def simplicity(u):
        support = tuple(i for i, x in enumerate(u) if x != 0)
        negatives = sum(1 for x in u if x < 0)
        return (len(support), support, negatives, u)

    cands = sorted({canonical_class(u) for u in witnesses}, key=simplicity)
    return EmbeddednessResult("not_embedded", cands[0], "exhaustive")


# ---------------------------------------------------------------------------
# target-dimension reduction

def reduce_target_dimension(data: MatrixData, tol: float = DEFAULT_TOL) -> MatrixData:
    """Deform a verified homogeneous certificate into at most n(n+1)/2 classes.

    Caratheodory reduction of the weight vector preserves Q and P = Q^{-1}/n
    exactly; the sphere dimension drops to 2N' - 1 <= n^2 + n - 1.
    """
    report = verify_matrix_data(data, tol)
    if not report.verified:
        raise UnverifiedCertificate(f"certificate is {report.verdict}: {report.reason}")
    point = HullPoint.from_weights(data.y, data.weights)
    reduced = caratheodory_reduce(point)
    keep = list(reduced.support)
    new_y = tuple(data.y[j] for j in keep)
    new_w = tuple(reduced.weights[j] for j in keep)
    meta = dict(data.metadata)
    meta["reduced_from_classes"] = data.big_n
    return MatrixData(q=data.q, y=new_y, weights=new_w, metadata=meta)
