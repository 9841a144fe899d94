"""Lattices: Gram matrices, duals, torus spectra and exhaustive norm enumeration.

Norm enumeration is the Fincke-Pohst recursion (Math. Comp. 1985) run on
Python integers only.  The Gram Q is scaled to the integer matrix
M = den * Q (float entries are lifted exactly: binary floats are dyadic
rationals).  Bareiss's fraction-free elimination (Math. Comp. 1968), taken
from the last coordinate to the first, gives the positive minors
D_0 = 1, D_1, ..., D_n = det M of M's trailing principal blocks and integer
row numerators b_kj (j < k) with

    v^t M v = sum_k (D_{n-k} v_k + S_k)^2 / (D_{n-1-k} D_{n-k}),
    S_k = sum_{j<k} b_kj v_j.

So coordinate 0 is fixed first and each level's range is an integer
inequality |D_{n-k} v_k + S_k| <= isqrt(r_k) whose right side r_k is an
integer too: the share of v^t M v fixed by v_0..v_{k-1}, times D_{n-k}, is
the integer value of a Bareiss Schur complement.  `math.isqrt` and floor
division decide every range exactly, so no float enters and completeness is
certified for every rational or float Gram.  A lower bound on v^t M v cuts
the innermost level down to at most two short intervals (one more isqrt),
so a shell lower <= v^t Q v <= upper costs no more than its outer levels.

Vectors are reported one representative per +/- pair, the representative
having a positive leading nonzero entry, sorted lexicographically: while
v_0..v_{k-1} are all zero, v_k is kept >= 0 (> 0 at the innermost level),
and every level runs upwards, so no class is visited twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .scalars import Rat
from .symmetric import SymMatrix, inverse, is_positive_definite

FOUR_PI_SQ = 4 * math.pi * math.pi

DEFAULT_BOX_BOUND = 10**6

FLOAT_TOL = 1e-9  # float Grams: a norm shell's default slack is FLOAT_TOL * max(1, target)

_CLUSTER = 10**9  # float Grams: values within relative 1/_CLUSTER share a spectrum line


class EnumerationIncomplete(RuntimeError):
    """Raised when the coordinate cap was hit before the ellipsoid bound."""


@dataclass(frozen=True)
class Lattice:
    """Rank-n lattice given by a generator matrix of row vectors."""

    generator: tuple[tuple[Fraction, ...], ...]
    gram: SymMatrix

    @classmethod
    def from_generator(cls, rows: Sequence[Sequence[Rat]]) -> "Lattice":
        gen = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(gen)
        gram = SymMatrix([[sum(gen[i][k] * gen[j][k] for k in range(n)) for j in range(n)]
                          for i in range(n)])
        if is_positive_definite(gram) is not True:
            raise ValueError("generator rows are linearly dependent")
        return cls(gen, gram)

    @property
    def n(self) -> int:
        return self.gram.n


@dataclass(frozen=True)
class DualLattice:
    """Dual lattice: generator (L^{-1})^t, Gram matrix the inverse of the primal's."""

    generator: tuple[tuple[Fraction, ...], ...]
    gram: SymMatrix


def dual(lat: Lattice) -> DualLattice:
    # Q = L L^t, so the dual generator (L^{-1})^t = (L^t)^{-1} equals Q^{-1} L
    n = lat.n
    gram = inverse(lat.gram)
    gen = tuple(tuple(sum(gram.entries[i][k] * lat.generator[k][j] for k in range(n))
                      for j in range(n)) for i in range(n))
    return DualLattice(gen, gram)


@dataclass(frozen=True)
class NormClassList:
    """All integer vectors (one per +/- class) with v^t Q v equal to `target`."""

    target: Fraction
    classes: tuple[tuple[int, ...], ...]
    complete: bool = True

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)


def canonical_class(v: Sequence[Rat]) -> tuple[Rat, ...]:
    """Representative of the +/- class: first nonzero entry positive."""
    for x in v:
        if x != 0:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def _integer_gram(q: SymMatrix) -> tuple[list[list[int]], int]:
    """(M, den): the integer matrix M = den * Q, den the lcm of Q's denominators.

    Float entries are lifted exactly (binary floats are dyadic rationals).
    """
    if q.regime == "rational":
        grid = [[Fraction(x) for x in row] for row in q.entries]
    elif q.regime == "float":
        grid = [[Fraction(float(x)) for x in row] for row in q.entries]
    else:
        raise TypeError("enumeration over algebraic Gram matrices is not supported; "
                        "verify certificates instead")
    den = math.lcm(*(x.denominator for row in grid for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in grid], den


def _levels(m: list[list[int]]) -> list[tuple[int, int, list[int]]]:
    """Bareiss elimination of M from its last coordinate to its first.

    Entry k is (lo, hi, b): the minors D_{n-1-k} and D_{n-k} of M's trailing
    principal blocks and the integer numerators b_kj (j < k), so that
    v^t M v = sum_k (hi_k v_k + sum_{j<k} b_kj v_j)^2 / (lo_k hi_k).  A
    nonpositive minor means M is not positive definite (Sylvester).
    """
    n = len(m)
    a = [row[:] for row in m]
    levels: list = [None] * n
    prev = 1
    for k in range(n - 1, -1, -1):
        piv = a[k][k]
        if piv <= 0:
            raise ValueError("matrix is not positive definite")
        row = a[k][:k]
        levels[k] = (prev, piv, row)
        for i in range(k):
            ai, aik = a[i], a[i][k]
            for j in range(k):
                ai[j] = (piv * ai[j] - aik * row[j]) // prev
        prev = piv
    return levels


def _fincke_pohst(m: list[list[int]], lower: int, upper: int, box_bound: int,
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
        # coordinates 0..k-1 are fixed in vec; done = lo_k * (their share of v^t M v)
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


def _lines(counts: dict[int, int], den: int, cluster: bool) -> list[tuple[Fraction, int]]:
    """Distinct values counts-key/den, ascending, with their class counts.

    With `cluster`, a value within relative 1/_CLUSTER of a line's first value
    joins that line (exact lifting of binary floats would otherwise split
    equal eigenvalues).
    """
    lines: list[list[int]] = []
    for v in sorted(counts):
        if cluster and lines and _CLUSTER * (v - lines[-1][0]) <= max(den, lines[-1][0]):
            lines[-1][1] += counts[v]
        else:
            lines.append([v, counts[v]])
    return [(Fraction(v, den), c) for v, c in lines]


def _shell(q: SymMatrix, target: Fraction, den: int, float_tol: float) -> tuple[int, int]:
    """Bounds on v^t M v (M = den * Q) for v^t Q v = target.

    Exact for rational Q; for float Q the comparison allows an absolute
    slack of float_tol * max(1, target).
    """
    slack = Fraction(float_tol) * max(1, target) if q.regime == "float" else 0
    return math.ceil((target - slack) * den), math.floor((target + slack) * den)


def enumerate_norm(q: SymMatrix, target: Rat, box_bound: int = DEFAULT_BOX_BOUND,
                   float_tol: float = FLOAT_TOL) -> NormClassList:
    """All +/- classes of integer vectors with v^t Q v = target.

    Exact for rational Q.  For float Q the comparison allows an absolute
    slack of float_tol * max(1, target).
    """
    if is_positive_definite(q) is not True:
        raise ValueError("Gram matrix must be positive definite")
    target = Fraction(target)
    if target <= 0:
        raise ValueError("target must be positive")
    m, den = _integer_gram(q)
    found: list[tuple[int, ...]] = []
    complete = True
    try:
        _fincke_pohst(m, *_shell(q, target, den, float_tol), box_bound, found)
    except EnumerationIncomplete:
        complete = False
    return NormClassList(target=target, classes=tuple(found), complete=complete)


def shortest_vectors(q: SymMatrix, box_bound: int = DEFAULT_BOX_BOUND) -> tuple[Fraction, NormClassList]:
    """(lambda_1, classes attaining it): the minimal nonzero value of v^t Q v.

    One enumeration up to the smallest diagonal entry (lambda_1 is at most
    the value at some e_i) plus the float slack of `enumerate_norm`; the
    classes are those `enumerate_norm(q, lambda_1)` returns, in the same
    lexicographic order.  Hitting the box bound raises EnumerationIncomplete.
    """
    if is_positive_definite(q) is not True:
        raise ValueError("Gram matrix must be positive definite")
    m, den = _integer_gram(q)
    upper = _shell(q, Fraction(min(m[i][i] for i in range(q.n)), den), den, FLOAT_TOL)[1]
    found = _fincke_pohst(m, 1, upper, box_bound, [])
    values = [sum(v[i] * sum(m[i][j] * v[j] for j in range(q.n)) for i in range(q.n))
              for v in found]
    best = Fraction(min(values), den)
    lower, upper = _shell(q, best, den, FLOAT_TOL)
    classes = tuple(v for v, val in zip(found, values) if lower <= val <= upper)
    return best, NormClassList(target=best, classes=classes)


class SpectrumLine(NamedTuple):
    eigenvalue: float
    multiplicity: int
    norm: Fraction


def _distinct_norms(q: SymMatrix, count: int, box_bound: int) -> list[tuple[Fraction, int]]:
    """First `count` distinct nonzero values of v^t Q v with class counts.

    The search radius doubles from the shortest diagonal entry; each round
    enumerates only the new shell and keeps the values already found.  For
    float Grams values are clustered as in `_lines`, and a line is returned
    only once the search covers its whole cluster.
    """
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


def spectrum(q_dual: SymMatrix, count: int, box_bound: int = DEFAULT_BOX_BOUND) -> list[SpectrumLine]:
    """First `count` distinct Laplace eigenvalues 4 pi^2 |xi|^2 of the torus.

    q_dual is the Gram matrix of the dual lattice in integer coordinates.
    The zero eigenvalue (constants) opens the list with multiplicity 1;
    each nonzero eigenvalue has multiplicity 2 * (number of +/- classes).
    """
    if is_positive_definite(q_dual) is not True:
        raise ValueError("Gram matrix must be positive definite")
    if count < 1:
        raise ValueError("count must be >= 1")
    out = [SpectrumLine(0.0, 1, Fraction(0))]
    if count == 1:
        return out
    for norm, nclasses in _distinct_norms(q_dual, count - 1, box_bound):
        out.append(SpectrumLine(FOUR_PI_SQ * float(norm), 2 * nclasses, norm))
    return out


def eigenfunction_index(q_dual: SymMatrix, target: Union[Rat, float],
                        box_bound: int = DEFAULT_BOX_BOUND, tol: float = 1e-9) -> int:
    """1-based index of `target` among the distinct nonzero eigenvalues.

    A Fraction target is interpreted as the exact squared norm |xi|^2 and
    compared exactly; a float target is interpreted as the eigenvalue
    4 pi^2 |xi|^2 and compared within tol.  Lines are those of `spectrum`;
    one enumeration up to the goal (plus twice the tolerance for a float
    target) decides every line up to it, since a line's first value
    depends only on the smaller values.
    """
    exact = not isinstance(target, float)
    goal = Fraction(target) if exact else Fraction(target / FOUR_PI_SQ)
    reach = goal if exact else goal + 2 * Fraction(tol) * max(1, goal)
    m, den = _integer_gram(q_dual)
    counts = _fincke_pohst(m, 1, math.floor(reach * den), box_bound, {})
    for k, (nv, _) in enumerate(_lines(counts, den, q_dual.regime == "float"), start=1):
        if exact and nv == goal:
            return k
        if not exact and abs(float(nv) - float(goal)) <= tol * max(1.0, float(goal)):
            return k
    raise ValueError("target is not an eigenvalue of this torus")


def rational_points_on_ellipsoid(q: SymMatrix, u0: Sequence[Rat], count: int,
                                 seed: int, max_denominator: int = 4,
                                 max_numerator: int = 4) -> list[tuple[Fraction, ...]]:
    """Rational points on the quadric u^t Q u = 1, by projection through u0.

    A pseudo-random rational point u' on a coordinate hyperplane avoiding u0
    determines the line through u0 whose second quadric intersection

        u0 - 2 (u0^t Q (u'-u0)) / ((u'-u0)^t Q (u'-u0)) (u'-u0)

    is again rational.  Deterministic for a given seed; every output
    satisfies the quadric equation exactly.
    """
    import random

    if q.regime != "rational":
        raise TypeError("Q must be rational")
    n = q.n
    u0 = tuple(Fraction(x) for x in u0)
    if q.quad_form(u0) != 1:
        raise ValueError("u0 does not lie on the ellipsoid")
    axis = next((k for k in range(n) if u0[k] != 0), None)
    if axis is None:
        raise ValueError("u0 is the origin")
    rng = random.Random(seed)
    points: list[tuple[Fraction, ...]] = []
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
        # u0^t Q delta
        num = sum(u0[i] * sum(q.entries[i][j] * delta[j] for j in range(n)) for i in range(n))
        t = 2 * num / qd
        u = tuple(a - t * d for a, d in zip(u0, delta))
        if u in seen:
            continue
        seen.add(u)
        points.append(u)
    return points
