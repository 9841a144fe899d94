"""Shared helpers: independent oracles and seeded random data generators."""

import itertools
import math
import random
from fractions import Fraction
from typing import Union

import numpy as np
import pytest
import sympy
from hypothesis import strategies as st

from minitori.certificates import (DEFAULT_TOL, EmbeddednessResult, MatrixData,
                                   VerificationReport, _assemble_report,
                                   has_proportional_columns, verify_matrix_data)
from minitori.constructions import ConstructionError
from minitori.io import CertificateFormatError, _float, _integer, _list
from minitori.lattices import (_CLUSTER, EnumerationIncomplete, _fincke_pohst, _integer_gram,
                               _levels, _lines, canonical_class)
from minitori.optimize import (ConvergenceFailure, HullPoint, InfeasibleRegion,
                               _exact_newton_step, as_columns, exact_hull_weights)
from minitori.scalars import (AlgebraicField, AlgebraicScalar, _element, _factorize, _field_of,
                              _homogeneous_value, _polynomial_memo, _reduce_mod,
                              common_numerators, eliminate, exact_scalar, poly_content_primitive,
                              pseudo_divmod, sqrt_field, squarefree_part)
from minitori.symmetric import (FLOAT_PD_TOL, SymMatrix, determinant, inverse,
                                is_positive_definite, rank, rank_one_rows, solve,
                                trace_inner)


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


# The Fincke-Pohst kernel as it was before its innermost level ran inside
# its parent's loop: one recursive call per node at every level, one count
# per class in dict mode.  The oracle of the kernel's visiting order.
def reference_fincke_pohst(m: list[list[int]], lower: int, upper: int, box_bound: int,
                            out: Union[list, dict]) -> Union[list, dict]:
    """One vector per +/- class with lower <= v^t M v <= upper, M integral PD.

    A list `out` receives the canonical vectors in lexicographic order; a dict
    `out` receives, per value v^t M v, the number of classes attaining it.
    Results found before EnumerationIncomplete is raised stay in `out`.
    """
    levels = _levels(m)
    last = len(m) - 1
    vec = [0] * len(m)
    as_vectors = isinstance(out, list)
    lower = max(lower, 1)
    widest = 2 * box_bound + 1

    def level(k: int, done: int, free: bool) -> None:
        # coordinates 0..k-1 are fixed in vec; done = hi_k * (their share of v^t M v)
        lo, hi, row = levels[k]
        shift = 0
        for j in range(k):
            shift += row[j] * vec[j]
        s = math.isqrt(lo * (hi * upper - done))  # |hi x + shift| <= s
        xlo, xhi = -((s + shift) // hi), (s - shift) // hi
        if xhi - xlo > widest:
            raise EnumerationIncomplete(
                f"coordinate range at level {k} exceeds the box bound {box_bound}")
        if not free:  # all earlier coordinates are 0: keep the first nonzero one positive
            xlo = max(xlo, 0 if k < last else 1)
        if k < last:
            for x in range(xlo, xhi + 1):
                vec[k] = x
                t = hi * x + shift
                level(k + 1, (lo * done + t * t) // hi, free or x != 0)
            vec[k] = 0
            return
        # innermost level (lo = 1): v^t M v = (done + t^2) / hi >= lower needs |t| >= tmin
        spans = ((xlo, xhi),)
        need = hi * lower - done
        if need > 0:
            tmin = math.isqrt(need - 1) + 1
            spans = ((xlo, (-tmin - shift) // hi), (max(xlo, -((shift - tmin) // hi)), xhi))
        if as_vectors:
            prefix = tuple(vec[:last])
            for a, b in spans:
                out.extend([prefix + (x,) for x in range(a, b + 1)])
        else:
            for a, b in spans:
                t = hi * a + shift
                for _ in range(a, b + 1):
                    val = (done + t * t) // hi
                    out[val] = out.get(val, 0) + 1
                    t += hi

    if upper >= lower:
        level(0, 0, False)
    return out


def reference_distinct_norms(q: SymMatrix, count: int,
                             box_bound: int = 10**6) -> list[tuple[Fraction, int]]:
    """The search loop `lattices._distinct_norms` had before it started at the
    value-lattice bound: the radius starts at the smallest diagonal entry and
    doubles until `count` lines lie within it."""
    m, den = _integer_gram(q)
    cluster = q.regime == "float"
    bound = Fraction(min(m[i][i] for i in range(q.n)), den)
    counts: dict[int, int] = {}
    searched = 0
    while True:
        reach = bound + Fraction(max(1, bound), _CLUSTER) if cluster else bound
        upper = math.floor(reach * den)
        _fincke_pohst(m, searched + 1, upper, box_bound, counts)
        searched = upper
        lines = [line for line in _lines(counts, den, cluster) if line[0] <= bound]
        if len(lines) >= count:
            return lines[:count]
        bound = bound * 2


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


# ---------------------------------------------------------------------------
# numpy float oracles: the W maximizer of the pencil tests, and the LAPACK
# inverse and determinant and the numpy hull maximizer that the plain-Python
# float regime replaced

def as_array(m: SymMatrix) -> np.ndarray:
    """The entries of m as a float array."""
    return np.array([[float(x) for x in row] for row in m.entries], dtype=float)


def from_array(arr) -> SymMatrix:
    """The float SymMatrix of the symmetric part of an array."""
    arr = np.asarray(arr, dtype=float)
    return SymMatrix((0.5 * (arr + arr.T)).tolist())


def lapack_inverse(m: SymMatrix) -> SymMatrix:
    return from_array(np.linalg.inv(as_array(m)))


def lapack_determinant(m: SymMatrix) -> float:
    return float(np.linalg.det(as_array(m)))


def maximize_logdet_W(slice_w, tol: float = 1e-10, max_iter: int = 200,
                      initial=None) -> SymMatrix:
    """The maximizer of logdet on the slice by damped Newton in slice
    coordinates (closed-form gradient and Hessian of logdet), or raises.

    Stationarity is <Q*^{-1}, Q_i> = 0 for every basis direction.  Raises
    InfeasibleRegion when no PD point is found on the slice (a subgradient
    ascent on the smallest eigenvalue), and ConvergenceFailure when max_iter
    is exhausted.
    """
    s = slice_w.s
    if s == 0:
        if is_positive_definite(slice_w.q0) is True:
            return slice_w.q0
        raise InfeasibleRegion("the unique slice point is not positive definite")

    q0 = as_array(slice_w.q0)
    bases = [as_array(b) for b in slice_w.basis]
    t = np.zeros(s) if initial is None else np.asarray(initial, dtype=float)

    def qmat(tv):
        q = q0.copy()
        for ti, b in zip(tv, bases):
            q += ti * b
        return q

    def lammin(tv):
        return float(np.linalg.eigvalsh(qmat(tv)).min())

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
            lv = lammin(t)
            if lv > best_l:
                best_l, best_t = lv, t.copy()
            if lv > 1e-8:
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
            return from_array(q)
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


def lapack_kkt_gap(point: HullPoint) -> float:
    pinv = np.linalg.inv(as_array(point.p))
    return max(float(np.array(c) @ pinv @ np.array(c)) for c in point.y) - point.p.n


def numpy_maximize_logdet_C(y, tol: float = 1e-10, max_iter: int = 200) -> HullPoint:
    """The numpy hull maximizer: Frank-Wolfe with away steps and a bisection
    line search, float Newton on the support, then the exact Newton step."""
    cols = as_columns(y)
    n = len(cols[0])
    nn = len(cols)
    if rank(cols) != n:
        raise InfeasibleRegion("the hull contains no positive definite point")
    ms = [np.outer(c, c).astype(float) for c in cols]
    lam = np.full(nn, 1.0 / nn)
    p = sum(w * m for w, m in zip(lam, ms))
    switch_tol = max(tol, 1e-7)
    for _ in range(max_iter):
        pinv = np.linalg.inv(p)
        g = np.array([np.tensordot(pinv, m) for m in ms])
        s_idx = int(np.argmax(g))
        gap = g[s_idx] - n
        support = np.where(lam > 1e-14)[0]
        v_idx = int(support[np.argmin(g[support])])
        away_gap = n - g[v_idx]
        if gap <= switch_tol:
            break
        if gap >= away_gap or lam[v_idx] >= 1.0 - 1e-16:
            d, gamma_max, fw = ms[s_idx] - p, 1.0, True
        else:
            d, gamma_max, fw = p - ms[v_idx], lam[v_idx] / (1.0 - lam[v_idx]), False

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
            lam[v_idx] -= gamma
            if gamma >= gamma_max * (1 - 1e-12):
                lam[v_idx] = 0.0
        lam = np.clip(lam, 0.0, None)
        lam /= lam.sum()
        p = sum(w * m for w, m in zip(lam, ms))

    lam = _numpy_newton_on_support(cols, ms, lam)
    support = [j for j in range(nn) if lam[j] > 1e-12]
    ws = [Fraction(float(lam[j])).limit_denominator(10**15) for j in support]
    total = sum(ws)
    ws = [w / total for w in ws]

    def hull_point(wlist) -> HullPoint:
        full = [Fraction(0)] * nn
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
        if lapack_kkt_gap(cand) <= max(lapack_kkt_gap(point), tol):
            point = cand
    if lapack_kkt_gap(point) > tol:
        raise ConvergenceFailure(f"hull maximizer did not reach KKT gap <= {tol}")
    return point


def _numpy_newton_on_support(cols, ms, lam):
    """Equality-constrained float Newton on the face identified by Frank-Wolfe."""
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
        a = np.zeros((k + 1, k + 1))
        a[:k, :k] = -(cross ** 2)
        a[:k, k] = 1.0
        a[k, :k] = 1.0
        rhs = np.concatenate([-(g - n), [0.0]])
        try:
            delta = np.linalg.solve(a, rhs)[:k]
        except np.linalg.LinAlgError:
            break
        step = 1.0
        cur = lam[support]
        neg = delta < 0
        if np.any(neg):
            step = min(1.0, float(0.95 * np.min(-cur[neg] / delta[neg])))
        new = np.clip(cur + step * delta, 0.0, None)
        lam[:] = 0.0
        lam[support] = new
        total = lam.sum()
        if total <= 0:
            return lam
        lam /= total
        if np.linalg.norm(step * delta) < 1e-16:
            break
    return lam


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


def _reference_rational(text) -> Fraction:
    """A certificate's 'p/q' string as a Fraction; anything else is a format error."""
    if not isinstance(text, str):
        raise CertificateFormatError(f"rational scalars are 'p/q' strings, not {text!r}")
    try:
        s = text.strip()
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise CertificateFormatError(f"bad rational {text!r}: {exc}") from exc


def reference_decode_scalar(obj, field_cache: dict):
    """Oracle for `io._decode_scalar`: every 'p/q' through Fraction, the field
    cache keyed by the parsed (minpoly, lo, hi), the coefficients given to
    AlgebraicScalar as Fractions."""
    if isinstance(obj, str):
        return _reference_rational(obj)
    if isinstance(obj, (int, float)):
        return _float(obj)
    if isinstance(obj, dict):
        try:
            minpoly = tuple(_integer(c) for c in _list(obj["minpoly"]))
            lo, hi = (_reference_rational(x) for x in _list(obj["interval"], 2))
            coeffs = [_reference_rational(c) for c in _list(obj["coeffs"])]
        except (KeyError, ValueError) as exc:
            raise CertificateFormatError(f"bad algebraic scalar: {exc}") from exc
        key = (minpoly, lo, hi)
        if key not in field_cache:
            try:
                field_cache[key] = AlgebraicField(minpoly, (lo, hi))
            except ValueError as exc:
                raise CertificateFormatError(f"bad algebraic field: {exc}") from exc
        return AlgebraicScalar(field_cache[key], coeffs)
    raise CertificateFormatError(f"unsupported scalar encoding: {obj!r}")


# Q(sqrt 2), Q(sqrt 5) and the cubic and quartic catalog fields, each built
# afresh by its factory: sign queries narrow a field's interval in place
TEST_FIELDS = ((lambda: sqrt_field(2)), (lambda: sqrt_field(5)),
               *((lambda data=data: AlgebraicField(*data)) for data in CATALOG_FIELDS[2:]))


def draw_field_element(draw, field, nonnegative=False):
    """A hypothesis draw: an element of `field` with small rational
    coordinates, zero one time in four; its absolute value if `nonnegative`."""
    if draw(st.integers(0, 3)) == 0:
        return field.from_rational(0)
    x = field.element(draw(st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                                    min_size=field.degree, max_size=field.degree)))
    return abs(x) if nonnegative else x


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
# the rational route in Fraction arithmetic, as it ran before the integer one


def fraction_rational_points(q: SymMatrix, u0, count: int, seed: int,
                             max_denominator: int = 4, max_numerator: int = 4) -> list:
    """Oracle for `lattices.rational_points_on_ellipsoid`: each line's second
    quadric intersection u0 - 2 (u0^t Q delta) / (delta^t Q delta) delta,
    delta = u' - u0, in Fraction arithmetic, with the same draws."""
    if q.regime != "rational":
        raise TypeError("Q must be rational")
    n = q.n
    u0 = tuple(Fraction(x) for x in u0)
    if q.quad_form(u0) != 1:
        raise ValueError("u0 does not lie on the ellipsoid")
    axis = next(k for k in range(n) if u0[k] != 0)
    rng = random.Random(seed)
    points = []
    seen = {u0}
    tries = 0
    while len(points) < count:
        tries += 1
        if tries > 200 * count + 1000:
            raise RuntimeError("sampling did not produce enough distinct points")
        uprime = [Fraction(rng.randint(-max_numerator, max_numerator),
                           rng.randint(1, max_denominator)) for _ in range(n)]
        uprime[axis] = Fraction(0)
        delta = tuple(a - b for a, b in zip(uprime, u0))
        qd = q.quad_form(delta)
        if qd == 0:
            continue
        num = sum(u0[i] * sum(q.entries[i][j] * delta[j] for j in range(n)) for i in range(n))
        t = 2 * num / qd
        u = tuple(a - t * d for a, d in zip(u0, delta))
        if u in seen:
            continue
        seen.add(u)
        points.append(u)
    return points


def fraction_construct_rational(cfg) -> MatrixData:
    """Oracle for `constructions.construct_rational`: the points as Fraction
    tuples from `fraction_rational_points`, deduplicated by their +/- class
    and cleared to integer columns by the lcm mu of their denominators, one
    Fraction per coordinate, as the pipeline did before the integer route;
    the LP and verification are the package's."""
    q = cfg.q
    if q.regime != "rational":
        raise TypeError("the rational pipeline needs a rational Gram matrix")
    if is_positive_definite(q) is not True:
        raise ValueError("Gram matrix must be positive definite")
    n = q.n
    s = Fraction(q.entries[0][0])
    qs = q.scale(1 / s)
    e1 = tuple(Fraction(int(i == 0)) for i in range(n))
    points = [e1] + [tuple(Fraction(int(k == i)) for k in range(n))
                     for i in range(1, n) if qs.entries[i][i] == 1]
    try:
        points += fraction_rational_points(qs, e1, cfg.sample_count, cfg.seed)
    except RuntimeError as exc:
        raise ConstructionError(f"{exc}; retry with fewer samples or a different seed") from exc

    mu = 1
    kept = []
    seen = set()
    for pt in points:
        canon = canonical_class(pt)
        if canon in seen:
            continue
        new_mu = math.lcm(mu, *[x.denominator for x in pt])
        if new_mu > cfg.max_denominator:
            continue
        mu = new_mu
        seen.add(canon)
        kept.append(pt)

    cols = [tuple(x.numerator * (mu // x.denominator) for x in pt) for pt in kept]
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
    data = MatrixData(q=qs.scale(Fraction(1, mu * mu)),
                      y=tuple(col for col, w in zip(cols, lam) if w),
                      weights=tuple(w for w in lam if w),
                      metadata={"construction": "rational", "mu": mu,
                                "seed": cfg.seed, "scale": str(s)})
    report = verify_matrix_data(data)
    if not report.verified:
        raise ConstructionError(f"pipeline output failed verification: {report.reason}")
    return data


def sympy_rank(rows) -> int:
    """Oracle for `symmetric.rank`: sympy's exact rank of int, Fraction or
    float rows, each float lifted by `float.as_integer_ratio` (which raises
    on NaN and infinities)."""
    def lift(x):
        if isinstance(x, float):
            return sympy.Rational(*x.as_integer_ratio())
        return sympy.Rational(x.numerator, x.denominator)
    return sympy.Matrix([[lift(x) for x in row] for row in rows]).rank()


# ---------------------------------------------------------------------------
# exact LP: the dense Fraction tableau that `exactlp` replaced by an integer one


def fraction_feasible_point(a_rows, b):
    """Oracle for `exactlp.feasible_point`: the phase-1 simplex with Bland's
    rule on a dense Fraction tableau, as it ran before the integer tableau.
    A right-hand side in a field Q(w) runs through the same tableau in field
    arithmetic, its comparisons taking certified signs."""
    m = len(a_rows)
    if m == 0:
        return []
    n = len(a_rows[0])
    A = [[Fraction(x) for x in row] for row in a_rows]
    rhs = [x if isinstance(x, AlgebraicScalar) else Fraction(x) for x in b]
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


def reference_exact_hull_weights(cols, p):
    """Oracle for `optimize.exact_hull_weights`: the subset enumeration it
    replaced.  By Caratheodory for cones any conic representation of P is
    supported on a linearly independent subset of the Y_j Y_j^t, and every
    such subset extends to one of maximal rank; each is solved exactly and
    the first with every weight >= 0 (certified signs) is returned."""
    vec_cols = rank_one_rows(cols)
    target = p.upper()
    zero = target[0] - target[0]
    full = rank(vec_cols)
    for subset in itertools.combinations(range(len(cols)), full):
        sub = [vec_cols[j] for j in subset]
        if rank(sub) != full:
            continue
        lam = solve(list(zip(*sub)), target)
        if lam is not None and all(x >= 0 for x in lam):
            out = [zero] * len(cols)
            for j, x in zip(subset, lam):
                out[j] = x
            return out
    return None


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
# factoring over Q by divisor search, as it ran before the rational roots and
# the quartic split came from root isolation


def reference_divisors(n: int) -> list[int]:
    """The positive divisors of |n| in increasing order (none for 0)."""
    out = [1] if n else []
    for p, e in _factorize(abs(n)).items() if n else ():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def reference_rational_roots(p) -> list[Fraction]:
    """Rational roots by the rational root theorem: num | p_0 and den | p_d."""
    _, prim = poly_content_primitive(p)
    if not prim:
        return []
    roots = []
    if prim[0] == 0:
        roots.append(Fraction(0))
        while prim[0] == 0:
            prim = prim[1:]
        if len(prim) <= 1:
            return roots
    nums = reference_divisors(prim[0])
    for den in reference_divisors(prim[-1]):
        for num in nums:
            if math.gcd(num, den) != 1:
                continue
            for s in (num, -num):
                if _homogeneous_value(prim, s, den) == 0:
                    roots.append(Fraction(s, den))
    return sorted(roots)


def reference_quartic_quadratic_factors(p):
    """Integer quadratics (f, g) with f*g = p, or None (p primitive, degree 4),
    searched over the divisor pairs of the leading and constant coefficients."""
    a4, a3, a2, a1, a0 = p[4], p[3], p[2], p[1], p[0]

    def check(b2, b1, b0, c2, c1, c0):
        if (b0 * c1 + b1 * c0, b0 * c2 + b1 * c1 + b2 * c0, b1 * c2 + b2 * c1) == (a1, a2, a3):
            return (b0, b1, b2), (c0, c1, c2)
        return None

    b0_choices = reference_divisors(a0)
    for b2 in reference_divisors(a4):
        c2 = a4 // b2
        for b0 in b0_choices:
            for b0s in (b0, -b0):
                c0 = a0 // b0s
                # unknowns b1, c1:  c2*b1 + b2*c1 = a3 ;  c0*b1 + b0s*c1 = a1
                det = c2 * b0s - b2 * c0
                if det != 0:
                    b1, rb = divmod(a3 * b0s - b2 * a1, det)
                    c1, rc = divmod(c2 * a1 - a3 * c0, det)
                    if rb == 0 and rc == 0:
                        got = check(b2, b1, b0s, c2, c1, c0)
                        if got:
                            return got
                else:
                    # degenerate pair: b1 satisfies c2*b1^2 - a3*b1 + (a2 - b0s*c2 - b2*c0)*b2 = 0
                    if a1 * b2 != b0s * a3:
                        continue
                    qa, qb, qc = c2, -a3, (a2 - b0s * c2 - b2 * c0) * b2
                    disc = qb * qb - 4 * qa * qc
                    if disc < 0:
                        continue
                    s = math.isqrt(disc)
                    if s * s != disc:
                        continue
                    for num in (-qb + s, -qb - s):
                        if num % (2 * qa) == 0:
                            b1 = num // (2 * qa)
                            c1, rc = divmod(a3 - c2 * b1, b2)
                            if rc == 0:
                                got = check(b2, b1, b0s, c2, c1, c0)
                                if got:
                                    return got
    return None


def reference_irreducible_factors(p) -> list[tuple[int, ...]]:
    """`scalars.irreducible_factors` on the divisor-search kernels above."""
    _, prim = poly_content_primitive(p)
    deg = len(prim) - 1
    roots = reference_rational_roots(prim)
    if not roots:
        split = reference_quartic_quadratic_factors(prim) if deg == 4 else None
        return list(split) if split else [prim]
    factors = []
    work = prim
    for r in roots:
        lin = (-r.numerator, r.denominator)
        while len(work) > 1:
            q, rem = pseudo_divmod(work, lin)
            if rem:
                break
            factors.append(lin)
            _, work = poly_content_primitive(q)
    if len(work) > 1:
        factors.append(work)
    return factors


# ---------------------------------------------------------------------------
# the exhaustive embeddedness search as it ran before the flat box loop


def recursive_embeddedness(y) -> EmbeddednessResult:
    """Oracle for `certificates.embeddedness(y, exhaustive=True)`: the same
    unimodular-minor shortcut, then the box of integer angle vectors through
    the first invertible column subset, walked by a recursion that copies the
    partial vector at every level; the witness is the simplest canonical class."""
    cols = as_columns(y)
    n, nn = len(cols[0]), len(cols)
    if rank(cols) != n:
        raise ValueError("rank(Y) must equal n")
    basis_picks = None
    for picks in itertools.combinations(range(nn), n):
        d = determinant([cols[p] for p in picks])
        if d != 0 and basis_picks is None:
            basis_picks = picks
        if abs(d) == 1:
            return EmbeddednessResult("embedded", None)
    a = [list(cols[p]) + [int(i == j) for j in range(n)] for i, p in enumerate(basis_picks)]
    det = eliminate(a, n)[0][-1][1]
    adj = [row[n:] for row in a]
    size = abs(det)
    rest = [cols[j] for j in range(nn) if j not in basis_picks]
    ranges = [range(-(b - 1), b) for b in (sum(abs(x) for x in cols[p]) for p in basis_picks)]
    witnesses = []

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
        return EmbeddednessResult("embedded", None)

    def simplicity(u):
        support = tuple(i for i, x in enumerate(u) if x != 0)
        return (len(support), support, sum(1 for x in u if x < 0), u)

    return EmbeddednessResult("not_embedded",
                              min({canonical_class(u) for u in witnesses}, key=simplicity))


# ---------------------------------------------------------------------------
# homogeneous verification as it ran before the inverse-free exact test


def reference_verify_matrix_data(data, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Oracle for `certificates.verify_matrix_data`: the unit norms are
    `quad_form` one column at a time, Q is always inverted, the weighted sum
    is accumulated one rank-one matrix at a time, and the positive
    definiteness test always runs.  The float tolerance of the flat
    residual is relative, as in the function it checks."""
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
    # float data: the flat tolerance is relative to the largest entry of Q^{-1}/n
    scales = {} if exact else {
        "flat": max([1.0] + [abs(float(x)) for row in target.entries for x in row])}

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
    return _assemble_report(residuals, None, tol, structural, borderline, nonzero, scales)


# ---------------------------------------------------------------------------
# the field-element n Q W = I test that the integer numerator test replaced


def dot(xs, ys):
    """sum_j x_j y_j for exact scalars (ints, Fractions or elements of one field).

    The products are integer convolutions over the two common denominators,
    summed before one reduction modulo the minimal polynomial.
    """
    field = _field_of(list(xs) + list(ys))
    a, da = common_numerators(xs, field)
    b, db = common_numerators(ys, field)
    c = [0] * (1 if field is None else 2 * field.degree - 1)
    for u, v in zip(a, b):
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v, i):
                    c[j] += x * y
    if field is None:
        return Fraction(c[0], da * db)
    return _element(field, c, da * db * _reduce_mod(field.minpoly, c))


def matmul(a: SymMatrix, b: SymMatrix) -> list[list]:
    """Plain matrix product of exact matrices (generally not symmetric), as
    nested lists: each entry is `dot` of a row and a column (a row of the
    symmetric b).  A float operand raises TypeError."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    if not (a.is_exact() and b.is_exact()):
        raise TypeError("matmul needs exact matrices")
    return [[dot(row, col) for col in b.entries] for row in a.entries]


def matmul_verify_matrix_data(data, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Oracle for `certificates.verify_matrix_data`: exact data build W as
    field elements (`SymMatrix.rank_one_sum`) and test n Q W = I with
    `matmul`, every residual is approximated, zeros included, and the
    weight sum is accumulated one weight at a time.  Q is inverted, and the
    positive definiteness test runs, exactly when the function it checks
    does them."""
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

    for v in data.q.quad_forms(data.y):
        record("unit_norm", v - 1)

    acc = SymMatrix.rank_one_sum(data.y, data.weights) if exact else None
    inverse_free = acc is not None and all(
        x == (Fraction(1, n) if i == k else 0)
        for i, row in enumerate(matmul(data.q, acc)) for k, x in enumerate(row))
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
        if not exact:
            scales["flat"] = max([1.0] + [abs(float(x)) for row in target.entries for x in row])

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

    if not (inverse_free and structural is None):
        pd = is_positive_definite(data.q)
        if pd is False:
            structural = structural or "gram_not_pd"
        elif pd is None:
            borderline = borderline or "gram_pd"
    return _assemble_report(residuals, None, tol, structural, borderline, nonzero, scales)


# ---------------------------------------------------------------------------
# the closed-form 3 x 3 pencil maximizer that `optimize.pencil_maximize` replaced


def closed_form_pencil(slice_w):
    """Oracle for `optimize.pencil_maximize` on a 3 x 3 pencil Q0 + t Q1:
    (t0, Q*, degree), or InfeasibleRegion.

    det(Q0 + t Q1) = det(Q0) (1 + c1 t + c2 t^2 + c3 t^3) with c1 = tr(M),
    c2 = (tr(M)^2 - tr(M^2))/2, c3 = det(M), M = Q0^{-1} Q1 (Q0 first shifted
    along Q1 when singular).  The critical points solve c1 + 2 c2 t + 3 c3 t^2
    = 0; they are quadratic irrational exactly when (2 c2)^2 - 12 c3 c1 is
    not a rational square.
    """
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
    m = matmul(inverse(q0), q1)
    c1 = sum(m[i][i] for i in range(3))
    c2 = (c1 * c1 - sum(m[i][j] * m[j][i] for i in range(3) for j in range(3))) / 2
    c3 = Fraction(determinant(q1)) / Fraction(determinant(q0))
    disc = (2 * c2) ** 2 - 12 * c3 * c1

    def rational_sqrt(x):
        num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
        return Fraction(num, den) if num * num == x.numerator and den * den == x.denominator else None

    degree = 1
    if c3 != 0:
        if disc < 0:
            raise InfeasibleRegion("no real critical point")
        sq = rational_sqrt(disc)
        if sq is not None:
            roots = [(-2 * c2 + sq) / (6 * c3), (-2 * c2 - sq) / (6 * c3)]
        else:
            degree = 2
            d = squarefree_part(disc.numerator * disc.denominator)
            rho = rational_sqrt(disc / d)  # sqrt(disc) = rho * sqrt(d)
            w = sqrt_field(d).generator()
            roots = [(w * rho - 2 * c2) / (6 * c3), (w * (-rho) - 2 * c2) / (6 * c3)]
    elif c2 != 0:
        roots = [-c1 / (2 * c2)]
    elif c1 == 0:
        roots = [Fraction(0)]
    else:
        raise InfeasibleRegion("determinant is strictly monotone on the pencil")
    for t0 in roots:
        qc = q0 + q1.scale(t0)
        if is_positive_definite(qc) is True:
            return shift + t0, qc, degree
    raise InfeasibleRegion("no critical point of the pencil is positive definite")


# ---------------------------------------------------------------------------
# the affine slice as it ran before the upper-triangle coordinates: Fraction
# Gram-Schmidt in the trace inner product


def gram_schmidt_slice(cols):
    """Oracle for `optimize.build_slice`: (Q0, basis), or None when no
    hyper-ellipsoid passes through every vector.

    Q0 = sum c_k Y_k Y_k^t with Gram c = 1 in the trace inner product.  The
    basis orthogonalizes span{Y_j Y_j^t}, then the standard basis of Sym_n
    (row-major upper triangle) against it; each new direction is scaled to
    integer entries with content 1, the first nonzero upper-triangle entry
    positive.
    """
    n = len(cols[0])
    ms = [SymMatrix.rank_one(c) for c in cols]
    c = solve([[Fraction(trace_inner(a, b)) for b in ms] for a in ms], [1] * len(ms))
    if c is None:
        return None
    q0 = ms[0].scale(c[0])
    for ck, m in zip(c[1:], ms[1:]):
        q0 = q0 + m.scale(ck)

    def orthogonalize(w, against):
        for o in against:
            coeff = Fraction(trace_inner(w, o)) / Fraction(trace_inner(o, o))
            if coeff:
                w = w - o.scale(coeff)
        return w if any(x != 0 for row in w.entries for x in row) else None

    ortho = []
    for m in ms:
        w = orthogonalize(m, ortho)
        if w is not None:
            ortho.append(w)
    basis = []
    for i in range(n):
        for j in range(i, n):
            rows = [[Fraction(0)] * n for _ in range(n)]
            rows[i][j] = rows[j][i] = Fraction(1)
            w = orthogonalize(SymMatrix(rows), ortho)
            if w is None:
                continue
            ortho.append(w)
            entries = [w.entries[a][b] for a in range(n) for b in range(a, n)]
            den = math.lcm(*(x.denominator for x in entries))
            ints = [int(x * den) for x in entries]
            g = math.gcd(*ints)
            sign = 1 if next(v for v in ints if v) > 0 else -1
            basis.append(w.scale(Fraction(sign * den, g)))
    return q0, tuple(basis)


# 3 x N integer vector sets: the standard basis (times the scale) plus the
# listed columns; rank{Y_j Y_j^t} is 5 or 4, the extension degree 1 to 4.
PENCIL_SETS = {
    "rank5-deg1": (1, [(1, 1, 0), (0, 1, 1)]),
    "rank5-deg2": (1, [(6, 12, -15), (6, 9, -12)]),
    "rank4-deg2": (1, [(-3, 4, -3)]),
    "rank4-deg3": (4, [(-5, 2, -3)]),
    "rank4-deg4": (1, [(5, 7, 8)]),
}


def pencil_columns(name) -> list:
    scale, extra = PENCIL_SETS[name]
    return [tuple(scale if i == k else 0 for i in range(3)) for k in range(3)] + extra


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture(autouse=True)
def cold_polynomial_memo():
    """Each test starts with the polynomial memo of `scalars` empty, as a CLI
    process does, so no test depends on what an earlier test computed (a test
    that blocks a kernel would otherwise pass on a cached answer)."""
    _polynomial_memo.cache_clear()
