"""Shared helpers: independent oracles and seeded random data generators."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from minitori.certificates import (DEFAULT_TOL, VerificationReport, _assemble_report,
                                   has_proportional_columns)
from minitori.scalars import exact_scalar
from minitori.symmetric import (FLOAT_PD_TOL, SymMatrix, inverse, is_positive_definite, rank,
                                solve)


def box_enumerate_norm(q: SymMatrix, target: Fraction):
    """Brute-force oracle: scan the full integer box given by the analytic
    per-coordinate bound |y_i| <= sqrt(target * (Q^{-1})_ii)."""
    n = q.n
    qinv = inverse(q)
    bounds = []
    for i in range(n):
        b2 = Fraction(target) * Fraction(qinv.entries[i][i])
        bounds.append(math.isqrt(b2.numerator // b2.denominator) + 1)
    found = set()

    def canon(v):
        for x in v:
            if x:
                return v if x > 0 else tuple(-y for y in v)
        return v

    def rec(i, cur):
        if i == n:
            if any(cur) and q.quad_form(cur) == target:
                found.add(canon(tuple(cur)))
            return
        for x in range(-bounds[i], bounds[i] + 1):
            rec(i + 1, cur + [x])

    rec(0, [])
    return tuple(sorted(found))


def box_ranges(q: SymMatrix, bound: Fraction) -> list:
    """Per coordinate, the range |y_i| <= sqrt(bound * (Q^{-1})_ii) (rounded up)."""
    qinv = inverse(q)
    ranges = []
    for i in range(q.n):
        b2 = Fraction(bound) * Fraction(qinv.entries[i][i])
        b = math.isqrt(b2.numerator // b2.denominator) + 1
        ranges.append(range(-b, b + 1))
    return ranges


def box_norm_counts(q: SymMatrix, bound: Fraction) -> dict:
    """Brute-force oracle: {value: number of +/- classes} over 0 < v^t Q v <= bound.

    Scans the same analytic box as box_enumerate_norm, counts every nonzero
    vector and halves the counts (v and -v share a value)."""
    counts = {}
    for v in itertools.product(*box_ranges(q, bound)):
        if any(v):
            val = q.quad_form(v)
            if val <= bound:
                counts[val] = counts.get(val, 0) + 1
    return {val: c // 2 for val, c in counts.items()}


def random_rational_pd(rng: random.Random, n: int, num_max: int = 5, den_max: int = 4,
                       box_cap: int = 30) -> SymMatrix:
    """Random rational PD matrix with small entries and a bounded search box."""
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))
                rows[i][j] = rows[j][i] = v
        for i in range(n):
            rows[i][i] = abs(rows[i][i]) + rng.randint(1, num_max)
        q = SymMatrix(rows)
        if is_positive_definite(q) is not True:
            continue
        qinv = inverse(q)
        worst = max(Fraction(qinv.entries[i][i]) for i in range(n))
        if worst <= box_cap:
            return q


def pythagorean_constraints_displayed(p: int, q: int, r: int):
    """The five diagonal constraints of the Pythagorean family in the displayed
    Fraction form: one balance row, then a_i + (...)/(2r^2) = 1/4."""
    r2 = Fraction(2 * r * r)
    pp, pm = Fraction(p * (p + r)), Fraction(p * (p - r))
    qp, qm = Fraction(q * (q + r)), Fraction(q * (q - r))
    terms = [
        {5: 1, 6: 1, 11: 1, 12: 1, 7: -1, 8: -1, 9: -1, 10: -1},
        {1: r2, 5: pp, 9: pp, 6: pm, 10: pm, 8: qp, 11: qp, 7: qm, 12: qm},
        {3: r2, 5: qp, 10: qp, 6: qm, 9: qm, 7: pp, 11: pp, 8: pm, 12: pm},
        {2: r2, 5: pm, 9: pm, 6: pp, 10: pp, 8: qm, 11: qm, 7: qp, 12: qp},
        {4: r2, 5: qm, 10: qm, 6: qp, 9: qp, 7: pm, 11: pm, 8: pp, 12: pp},
    ]
    rows = []
    for i, entries in enumerate(terms):
        row = [Fraction(0)] * 12
        for k, v in entries.items():
            row[k - 1] = Fraction(v) / (r2 if i else 1)
        rows.append(row)
    return rows, [Fraction(0)] + [Fraction(1, 4)] * 4


def centroid_by_subsystems(p: int, q: int, r: int) -> tuple:
    """Oracle: barycenter of the vertices of {a >= 0 : constraints}, found by
    solving all C(12, 5) = 792 square subsystems in Fractions (singular ones
    with free variables 0) and keeping the nonnegative solutions."""
    rows, rhs = pythagorean_constraints_displayed(p, q, r)
    vertices = set()
    for picks in itertools.combinations(range(12), 5):
        sol = solve([[row[j] for j in picks] for row in rows], rhs)
        if sol is None or any(x < 0 for x in sol):
            continue
        full = [Fraction(0)] * 12
        for j, v in zip(picks, sol):
            full[j] = v
        vertices.add(tuple(full))
    return tuple(sum(v[j] for v in vertices) / len(vertices) for j in range(12))


def numpy_float_pd(arr):
    """Oracle for the float positive definiteness test: the numpy pivoted LDL^t
    that `symmetric._float_pd` replaced.  True, False, or None when a pivot
    falls in the FLOAT_PD_TOL band relative to the largest diagonal entry."""
    a = np.array(arr, dtype=float)
    n = a.shape[0]
    scale = max(float(np.max(np.abs(np.diag(a)))), 1e-300)
    tol = FLOAT_PD_TOL * scale
    for k in range(n):
        j = k + int(np.argmax(np.diag(a)[k:]))
        if j != k:
            a[[k, j], :] = a[[j, k], :]
            a[:, [k, j]] = a[:, [j, k]]
        piv = a[k, k]
        if piv <= tol:
            if piv < -tol:
                return False
            if np.any(np.diag(a[k:, k:]) < -tol):
                return False
            return None
        c = a[k + 1:, k] / piv
        a[k + 1:, k + 1:] -= np.outer(c, a[k + 1:, k])
        a[k + 1:, k] = 0.0
        a[k, k + 1:] = 0.0
    return True


# minimal polynomials (low -> high) of the five irrational catalog fields, of
# degrees 2, 3, 4 and leading coefficients 1, 50, 675, 14700, each with an
# isolating interval of its generator
CATALOG_FIELDS = (
    ((-10801, 0, 1), (103, 104)),
    ((-553, 0, 1), (23, 24)),
    ((-33, 149, -160, 50), (Fraction(5, 16), Fraction(21, 64))),
    ((-253, -291, 765, 675), (Fraction(-33, 64), Fraction(-1, 2))),
    ((-1507, -10730, -1079, 23240, 14700), (Fraction(-5, 32), Fraction(-9, 64))),
)


# ---------------------------------------------------------------------------
# field arithmetic in Q(w) on Fraction coefficient lists (low -> high): an
# oracle for AlgebraicScalar, written coefficient by coefficient


def _trim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p, q):
    out = [Fraction(0)] * max(0, len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += Fraction(a) * Fraction(b)
    return _trim(out)


def _poly_sub(p, q):
    n = max(len(p), len(q))
    return _trim([Fraction(p[i] if i < len(p) else 0) - Fraction(q[i] if i < len(q) else 0)
                  for i in range(n)])


def _poly_divmod(p, q):
    p, q = _trim(p), _trim(q)
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q):
        s = p[-1] / q[-1]
        k = len(p) - len(q)
        quot[k] = s
        for i, c in enumerate(q):
            p[k + i] -= s * c
        p = _trim(p)
    return _trim(quot), p


def field_reduce(minpoly, coeffs) -> tuple:
    """The d coefficients of coeffs(w) with w a root of minpoly (degree d)."""
    d = len(minpoly) - 1
    c = [Fraction(x) for x in coeffs] + [Fraction(0)] * max(0, d - len(coeffs))
    for k in range(len(c) - 1, d - 1, -1):
        s = c[k] / minpoly[-1]
        for i in range(d):
            c[k - d + i] -= s * minpoly[i]
        c[k] = Fraction(0)
    return tuple(c[:d])


def field_mul(minpoly, a, b) -> tuple:
    return field_reduce(minpoly, _poly_mul(a, b))


def field_inverse(minpoly, a) -> tuple:
    """Extended Euclid: s a + t minpoly = gcd, a nonzero constant."""
    r0, r1 = _trim(minpoly), _trim(a)
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    assert len(r0) == 1
    return field_reduce(minpoly, [c / r0[0] for c in s0])


def field_pow(minpoly, a, k: int) -> tuple:
    if k < 0:
        return field_pow(minpoly, field_inverse(minpoly, a), -k)
    out = field_reduce(minpoly, [1])
    for _ in range(k):
        out = field_mul(minpoly, out, a)
    return out


class IntervalOracle:
    """Sign and approximation of field elements by Fraction interval Horner over
    a bisected isolating interval, kept apart from any AlgebraicField."""

    def __init__(self, minpoly, interval):
        self.minpoly = tuple(minpoly)
        self.lo, self.hi = Fraction(interval[0]), Fraction(interval[1])
        self.lo_positive = self._eval(self.lo) > 0

    def _eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.minpoly):
            acc = acc * x + c
        return acc

    def refine(self):
        mid = (self.lo + self.hi) / 2
        if (self._eval(mid) > 0) == self.lo_positive:
            self.lo = mid
        else:
            self.hi = mid

    def value(self, coeffs):
        acc = (Fraction(0), Fraction(0))
        for c in reversed(coeffs):
            products = [acc[0] * self.lo, acc[0] * self.hi, acc[1] * self.lo, acc[1] * self.hi]
            acc = (min(products) + c, max(products) + c)
        return acc

    def sign(self, coeffs) -> int:
        if all(c == 0 for c in coeffs):
            return 0
        if all(c == 0 for c in coeffs[1:]):
            return 1 if coeffs[0] > 0 else -1
        while True:
            vlo, vhi = self.value(coeffs)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            self.refine()

    def approx(self, coeffs, eps) -> Fraction:
        while True:
            vlo, vhi = self.value(coeffs)
            if vhi - vlo < eps:
                return (vlo + vhi) / 2
            self.refine()


# ---------------------------------------------------------------------------
# exact LP: the dense Fraction tableau that `exactlp` replaced by an integer one


def fraction_feasible_point(a_rows, b):
    """Oracle for `exactlp.feasible_point`: the phase-1 simplex with Bland's
    rule on a dense Fraction tableau, as it ran before the integer tableau."""
    m = len(a_rows)
    if m == 0:
        return []
    n = len(a_rows[0])
    A = [[Fraction(x) for x in row] for row in a_rows]
    rhs = [Fraction(x) for x in b]
    for i in range(m):
        if rhs[i] < 0:
            A[i] = [-x for x in A[i]]
            rhs[i] = -rhs[i]

    # tableau with artificial variables n..n+m-1; objective: minimize their sum
    ncols = n + m
    T = [A[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]]
         for i in range(m)]
    basis = [n + i for i in range(m)]
    # reduced-cost row for sum of artificials
    z = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        for j in range(ncols + 1):
            z[j] += T[i][j]

    def pivot(row: int, col: int) -> None:
        piv = T[row][col]
        T[row] = [x / piv for x in T[row]]
        for r in range(m):
            if r != row and T[r][col] != 0:
                f = T[r][col]
                T[r] = [x - f * y for x, y in zip(T[r], T[row])]
        f = z[col]
        if f != 0:
            for j in range(ncols + 1):
                z[j] -= f * T[row][j]
        basis[row] = col

    while True:
        enter = next((j for j in range(n) if z[j] > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for r in range(m):
            if T[r][enter] > 0:
                ratio = T[r][ncols] / T[r][enter]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave is None:
            break  # unbounded phase-1 direction cannot happen, but bail safely
        pivot(leave, enter)

    if z[ncols] != 0:
        return None
    # drive any artificial still in the basis (at zero level) out if possible
    for r in range(m):
        if basis[r] >= n:
            enter = next((j for j in range(n) if T[r][j] != 0), None)
            if enter is not None:
                pivot(r, enter)
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r][ncols]
    if any(v < 0 for v in x):
        return None
    return x


# ---------------------------------------------------------------------------
# real roots: the Fraction Sturm sequences and bisections that the integer
# root kernels of `scalars` replaced


def poly_eval(p, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def _poly_deriv(p):
    return _trim([i * Fraction(c) for i, c in enumerate(p)][1:])


def _poly_gcd(p, q):
    p, q = _trim(p), _trim(q)
    while q:
        p, q = q, _poly_divmod(p, q)[1]
    return [c / p[-1] for c in p] if p else p


def fraction_sturm_sequence(p):
    p = _trim(p)
    seq = [p, _poly_deriv(p)]
    while seq[-1]:
        rem = _poly_divmod(seq[-2], seq[-1])[1]
        if not rem:
            break
        seq.append([-c for c in rem])
    return [s for s in seq if s]


def fraction_sign_variations(seq, x) -> int:
    signs = [v > 0 for v in (poly_eval(s, x) for s in seq) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def fraction_count_real_roots(p, lo, hi) -> int:
    seq = fraction_sturm_sequence(p)
    return fraction_sign_variations(seq, Fraction(lo)) - fraction_sign_variations(seq, Fraction(hi))


def fraction_isolate_real_roots(p):
    p = _trim(p)
    if len(p) <= 1:
        return []
    g = _poly_gcd(p, _poly_deriv(p))
    if len(g) > 1:
        p = _poly_divmod(p, g)[0]
    seq = fraction_sturm_sequence(p)
    bound = 1 + max(abs(c) / abs(p[-1]) for c in p[:-1])
    out = []

    def split(a, b, count):
        if count == 0:
            return
        if count == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        while poly_eval(p, mid) == 0:
            mid = (a + mid) / 2
        left = fraction_sign_variations(seq, a) - fraction_sign_variations(seq, mid)
        split(a, mid, left)
        split(mid, b, count - left)

    split(-bound, bound, fraction_sign_variations(seq, -bound) - fraction_sign_variations(seq, bound))
    return sorted(out)


def fraction_refine_root(p, lo, hi, width):
    lo, hi, width = Fraction(lo), Fraction(hi), Fraction(width)
    flo = poly_eval(p, lo)
    if flo == 0:
        return lo, lo
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = poly_eval(p, mid)
        if fm == 0:
            return mid, mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# homogeneous verification as it ran before the inverse-free exact test


def reference_verify_matrix_data(data, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Oracle for `certificates.verify_matrix_data`: Q is always inverted, the
    weighted sum is accumulated one rank-one matrix at a time, and the
    positive definiteness test always runs."""
    n = data.n
    exact = data.is_exact()
    residuals: dict[str, float] = {}
    nonzero: set[str] = set()

    def record(key, diff):
        residuals[key] = max(residuals.get(key, 0.0), abs(float(diff)))
        if exact and diff:
            nonzero.add(key)

    structural = None
    if rank(data.y) != n:
        structural = "rank"
    if has_proportional_columns(data.y):
        structural = structural or "proportional_columns"

    for c in data.y:
        record("unit_norm", data.q.quad_form(c) - 1)

    try:
        qinv = inverse(data.q)
    except ValueError:
        return VerificationReport("falsified", "singular_gram", residuals, None, tol)
    acc = None
    for w, c in zip(data.weights, data.y):
        m = SymMatrix.rank_one(c)
        term = m.scale(w)
        acc = term if acc is None else acc + term
    target = qinv.scale(Fraction(1, n) if acc.is_exact() and qinv.is_exact() else 1.0 / n)
    for i in range(n):
        for j in range(n):
            record("flat", acc.entries[i][j] - target.entries[i][j])

    wsum = None
    for w in data.weights:
        wsum = w if wsum is None else wsum + w
    record("weight_sum", wsum - 1)

    borderline = None
    wmin_f = None
    for w in data.weights:
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

    pd = is_positive_definite(data.q)
    if pd is False:
        structural = structural or "gram_not_pd"
    elif pd is None:
        borderline = borderline or "gram_pd"
    return _assemble_report(residuals, None, tol, structural, borderline, nonzero)


@pytest.fixture
def rng():
    return random.Random(20260810)
