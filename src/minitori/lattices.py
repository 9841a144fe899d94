"""Lattices: torus spectra and exhaustive norm enumeration.

Norm enumeration is the Fincke-Pohst recursion (Math. Comp. 1985) run on
Python integers only.  The Gram Q is scaled to the integer matrix
M = den * Q (float entries are lifted exactly: binary floats are dyadic
rationals).  One fraction-free pass of the package's elimination kernel
(`scalars.eliminate`, where its exactness is argued), taken from the last
coordinate to the first, gives the positive minors
D_0 = 1, D_1, ..., D_n = det M of M's trailing principal blocks and integer
row numerators b_kj (j < k) with

    v^t M v = sum_k (D_{n-k} v_k + S_k)^2 / (D_{n-1-k} D_{n-k}),
    S_k = sum_{j<k} b_kj v_j.

So coordinate 0 is fixed first and each level's range is an integer
inequality |D_{n-k} v_k + S_k| <= isqrt(r_k) whose right side r_k is an
integer too: the share of v^t M v fixed by v_0..v_{k-1}, times D_{n-k}, is
the integer value of a fraction-free Schur complement.  `math.isqrt` and floor
division decide every range exactly, so no float enters and completeness is
certified for every rational or float Gram.  A lower bound on v^t M v cuts
the innermost level down to at most two short intervals (one more isqrt),
so a shell lower <= v^t Q v <= upper costs no more than its outer levels.
A one-value shell (lower = upper, every `enumerate_norm` on a rational
Gram) costs one isqrt and one square test per innermost node: the innermost
share must be a perfect square.

The innermost level is no recursive call: its parent runs it inside its own
loop (as Schnorr-Euchner, Math. Prog. 1994, close the last level in its
parent).  With v_0..v_{n-3} fixed, the innermost shift S_{n-1} = base +
b_{n-1,n-2} v_{n-2} is linear in the parent's coordinate, so each parent
value costs a few integer operations and emits its innermost spans whole.
Counts of values (the spectrum and `eigenfunction_index`) are collected per
span and tallied once, at the end of the enumeration.

Structured Grams (Z^n, A_n, diagonal and banded ones) repeat whole
subtrees, and each repeat is enumerated once.  Below a node of level k,
every range is fixed by the shell's bounds, by `done` (the share of v^t M v
fixed by v_0..v_{k-1}, times D_{n-k}), by `free` (whether one of them is
nonzero) and by the shifts S_k..S_last of the open levels.  The fixed
coordinates enter those shifts only as the v_j with j in
active[k] = {j < k : b_ij != 0 for some i >= k}.  So (k, done, free,
v_active) fixes the subtree: its suffixes v_k..v_last, its values and
whether its box bound trips.  Where active[k] has fewer than k members (all
b_kj are 0 for Z^n; only b_{k,k-1} survives for a tridiagonal Gram), level k
keeps, per state, the span of the output its first visit appended; a repeat
appends the same suffixes behind its own prefix, or the same values, and
searches nothing.  Where active[k] holds every earlier coordinate, the state
is the whole prefix, which the search visits once, so that level builds no
key and runs unchanged.  Nodes still come in the same order and a repeat
follows a complete first visit, so the output order, the counts and the
results left when a box bound trips are those of the full search.

A spectrum needs the first `count` distinct values, so it searches a
growing radius.  Every value of v^t M v is a multiple of the content
g = gcd(m_ii, 2 m_ij) of M, so the count-th distinct value lambda_count of
v^t Q v is at least count * g/den.  The radius starts at the larger of that
exact bound and the smallest diagonal entry, at most doubles per round, and
a round runs only while it is below lambda_count: the final radius is below
max(min diagonal, 2 lambda_count), or equal to the start.

Vectors are reported one representative per +/- pair, the representative
having a positive leading nonzero entry, sorted lexicographically: while
v_0..v_{k-1} are all zero, v_k is kept >= 0 (> 0 at the innermost level),
and every level runs upwards, so no class is visited twice.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence, Union

from .scalars import Rat, eliminate
from .symmetric import SymMatrix, is_positive_definite

FOUR_PI_SQ = 4 * math.pi * math.pi

DEFAULT_BOX_BOUND = 10**6

FLOAT_TOL = 1e-9  # float Grams: a norm shell's default slack is FLOAT_TOL * max(1, target)

_CLUSTER = 10**9  # float Grams: values within relative 1/_CLUSTER share a spectrum line


class EnumerationIncomplete(RuntimeError):
    """Raised when the coordinate cap was hit before the ellipsoid bound."""


class NormClassList:
    """All integer vectors (one per +/- class) with v^t Q v equal to `target`."""

    __slots__ = ("target", "classes", "complete")

    def __init__(self, target: Fraction, classes: tuple[tuple[int, ...], ...],
                 complete: bool = True):
        self.target, self.classes, self.complete = target, classes, complete

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
    """Fraction-free elimination of M from its last coordinate to its first.

    Entry k is (lo, hi, b): the minors D_{n-1-k} and D_{n-k} of M's trailing
    principal blocks and the integer numerators b_kj (j < k), so that
    v^t M v = sum_k (hi_k v_k + sum_{j<k} b_kj v_j)^2 / (lo_k hi_k), read
    from a Gauss pass without exchanges on M with its indices reversed: each
    pivot row keeps its values from its own step.  A nonpositive minor means
    M is not positive definite (Sylvester).
    """
    n = len(m)
    a = [row[::-1] for row in reversed(m)]
    pivots, _ = eliminate(a, n, jordan=False, exchange=False)
    if any(p <= 0 for _, p in pivots):
        raise ValueError("matrix is not positive definite")
    levels: list = [None] * n
    prev = 1
    for t, (_, piv) in enumerate(pivots):
        levels[n - 1 - t] = (prev, piv, a[t][:t:-1])
        prev = piv
    return levels


def _fincke_pohst(m: list[list[int]], lower: int, upper: int, box_bound: int,
                  out: Union[list, dict]) -> Union[list, dict]:
    """One vector per +/- class with lower <= v^t M v <= upper, M integral PD.

    A list `out` receives the canonical vectors in lexicographic order; a dict
    `out` receives, per value v^t M v, the number of classes attaining it.
    Results found before EnumerationIncomplete is raised stay in `out`.

    Levels 0..last-2 recurse, one call per node.  Level last-1 runs the
    innermost level inside its own loop: with v_0..v_{last-2} fixed, the
    innermost shift S_last = base + b_{last,last-1} x is linear in that
    level's coordinate x, so each x costs two isqrt and a few floor
    divisions, and the innermost coordinate's spans are emitted whole.  When
    lower == upper, a second inline loop runs instead: u = hi_in y + S_last
    must satisfy u^2 = need exactly, need = hi_in upper - done_x, so each x
    costs one isqrt s and the test s^2 == need, then keeps y = (+-s -
    S_last)/hi_in where hi_in divides; the box bound is tested only where
    s is large enough to break it, at the same node as in the general loop.
    A dict `out` gets its counts in bulk: the values found are collected in
    visiting order and counted once, when the enumeration ends or raises.

    Every shift sums only its nonzero b_kj.  A level k whose active set
    (module docstring) misses some of v_0..v_{k-1} memoizes its subtrees by
    (done, free, v_active): the first visit records the range (a, b) it
    appended to the list `out` or to the values, and a repeat appends
    prefix + v[k:] for v in out[a:b], or values[a:b].  Ranges, not copies,
    are stored: the memo holds a key and two indices per state, never a
    suffix.  A repeat comes only after its first visit ended without
    raising, and it appends exactly what that search would have, so a raise
    leaves the same partial results.  The recursive closure is a reference
    cycle; it is broken on return, so `values` and the memo are freed at
    once rather than by the cyclic collector.
    """
    levels = _levels(m)
    last = len(m) - 1
    vec = [0] * last
    as_vectors = isinstance(out, list)
    lower = max(lower, 1)
    widest = 2 * box_bound + 1
    _, hi_in, row_in = levels[last]  # the innermost level has lo = D_0 = 1
    hi_upper, hi_lower = hi_in * upper, hi_in * lower
    s_wide = hi_in * widest // 2  # s <= s_wide: |u| <= s spans at most widest values of y
    step = row_in[last - 1] if last else 0  # the innermost shift's slope in x
    values: list[int] = []  # dict mode: v^t M v of every class found, in visiting order
    found = out if as_vectors else values  # what a subtree appends to
    # per level, the nonzero terms (j, b_kj) of its shift; the innermost base
    # is S_last without its slope term
    terms = [[(j, b) for j, b in enumerate(row) if b] for _, _, row in levels]
    base_terms = [(j, b) for j, b in terms[last] if j < last - 1]
    # active[k]: the j < k with b_ij != 0 for some i >= k; a level with fewer
    # than k of them keeps, per state, the span of `found` its subtree appended
    active = [tuple(sorted({j for i in range(k, last + 1) for j, _ in terms[i] if j < k}))
              for k in range(last)]
    memos = [{} if len(act) < k else None for k, act in enumerate(active)]

    def innermost(lo: int, hi: int, xlo: int, xhi: int, shift: int, done: int, base: int,
                  head: tuple, free: bool) -> None:
        # the loop of level last-1 over xlo..xhi (minors lo, hi, shift
        # S_{last-1}, done and free of its node, head = v_0..v_{last-2}) with
        # the innermost level inline: its shift S_last = base + step x
        t = hi * xlo + shift
        inner = base + step * xlo
        lo_done = lo * done
        for x in range(xlo, xhi + 1):
            done_x = (lo_done + t * t) // hi
            t += hi
            s = math.isqrt(hi_upper - done_x)  # |hi_in y + inner| <= s
            ylo, yhi = -((s + inner) // hi_in), (s - inner) // hi_in
            if yhi - ylo > widest:
                raise EnumerationIncomplete(
                    f"coordinate range at level {last} exceeds the box bound {box_bound}")
            if not (free or x):  # all earlier coordinates are 0: keep y positive
                ylo = max(ylo, 1)
            # v^t M v = (done_x + u^2) / hi_in >= lower needs |u| >= tmin, u = hi_in y + inner
            need = hi_lower - done_x
            if need > 0:
                tmin = math.isqrt(need - 1) + 1
                spans = ((ylo, (-tmin - inner) // hi_in),
                         (max(ylo, -((inner - tmin) // hi_in)), yhi))
            else:
                spans = ((ylo, yhi),)
            for a, b in spans:
                if a <= b:
                    if as_vectors:
                        prefix = head + (x,) if last else head  # n = 1 has no coordinate last-1
                        out.extend([prefix + (y,) for y in range(a, b + 1)])
                    else:
                        values.extend([(done_x + u * u) // hi_in for u in
                                       range(hi_in * a + inner, hi_in * b + inner + 1, hi_in)])
            inner += step

    def innermost_one_value(lo: int, hi: int, xlo: int, xhi: int, shift: int, done: int,
                            base: int, head: tuple, free: bool) -> None:
        # `innermost` for lower == upper: v^t M v = upper needs u^2 = need
        # exactly (u = hi_in y + inner), so u = +-s with s = isqrt(need)
        t = hi * xlo + shift
        inner = base + step * xlo
        lo_done = lo * done
        for x in range(xlo, xhi + 1):
            need = hi_upper - (lo_done + t * t) // hi
            t += hi
            s = math.isqrt(need)
            if s > s_wide and (s - inner) // hi_in + (s + inner) // hi_in > widest:
                raise EnumerationIncomplete(
                    f"coordinate range at level {last} exceeds the box bound {box_bound}")
            if s * s == need:
                for u in (-s, s) if s else (0,):
                    y, r = divmod(u - inner, hi_in)
                    if not r and (free or x or y > 0):  # all earlier coordinates 0: y positive
                        if as_vectors:
                            out.append((head + (x,) if last else head) + (y,))
                        else:
                            values.append(upper)
            inner += step

    def level(k: int, done: int, free: bool) -> None:
        # coordinates 0..k-1 are fixed in vec; done = hi_k * (their share of v^t M v)
        memo = memos[k]
        if memo is not None:  # the subtree depends on vec only through vec[active[k]]
            key = (done, free, *[vec[j] for j in active[k]])
            span = memo.get(key)
            if span is not None:  # a repeat: the first visit's results, in its order
                a, b = span
                if as_vectors:
                    prefix = tuple(vec[:k])
                    out.extend([prefix + v[k:] for v in out[a:b]])
                else:
                    values.extend(values[a:b])
                return
            start = len(found)
        lo, hi, _ = levels[k]
        shift = 0
        for j, b in terms[k]:
            shift += b * vec[j]
        s = math.isqrt(lo * (hi * upper - done))  # |hi x + shift| <= s
        xlo, xhi = -((s + shift) // hi), (s - shift) // hi
        if xhi - xlo > widest:
            raise EnumerationIncomplete(
                f"coordinate range at level {k} exceeds the box bound {box_bound}")
        if not free:  # all earlier coordinates are 0: keep the first nonzero one positive
            xlo = max(xlo, 0)
        if k == last - 1:
            base = 0
            for j, b in base_terms:
                base += b * vec[j]
            run_innermost(lo, hi, xlo, xhi, shift, done, base, tuple(vec[:k]), free)
        else:
            for x in range(xlo, xhi + 1):
                vec[k] = x
                t = hi * x + shift
                level(k + 1, (lo * done + t * t) // hi, free or x != 0)
            vec[k] = 0
        if memo is not None:
            memo[key] = (start, len(found))

    run_innermost = innermost_one_value if lower == upper else innermost
    try:
        if upper >= lower:
            if last:
                level(0, 0, False)
            else:  # n = 1: a virtual coordinate last-1 with the one value 0
                run_innermost(1, 1, 0, 0, 0, 0, 0, (), False)
    finally:
        del level  # the recursive closure is a reference cycle: break it
        for val, c in Counter(values).items():
            out[val] = out.get(val, 0) + c
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


def _content(m: list[list[int]]) -> int:
    """g = gcd(m_ii, 2 m_ij): every value of v^t M v is a multiple of g."""
    n = len(m)
    return math.gcd(*(m[i][i] for i in range(n)),
                    *(2 * m[i][j] for i in range(n) for j in range(i + 1, n)))


def _distinct_norms(q: SymMatrix, count: int, box_bound: int) -> list[tuple[Fraction, int]]:
    """First `count` distinct nonzero values of v^t Q v with class counts.

    The radius starts at max(min diagonal, count * g/den), where
    count * g/den <= lambda_count (module docstring; for a float Gram the
    lines of `_lines` have distinct first values, so it bounds the count-th
    line too).  After a
    round that finds L < count lines the radius grows to min(2, count/L)
    times itself (2 when L = 0), rounded down to a multiple of g/den: never
    below the exact bound radius + (count - L) g/den, since L <= radius *
    den/g.  A round runs only while the radius is below lambda_count, so the
    final radius is the start or below 2 lambda_count.  Each round
    enumerates only the new shell and keeps the values already found.  A
    line is returned only once the search covers its reach (its whole
    cluster, for a float Gram), and lines form greedily from the smallest
    value up, so the lines returned do not depend on the radii searched.
    """
    m, den = _integer_gram(q)
    cluster = q.regime == "float"
    g = _content(m)
    steps = max(min(m[i][i] for i in range(q.n)) // g, count)  # the radius is steps * g/den
    counts: dict[int, int] = {}
    searched = 0
    while True:
        bound = Fraction(steps * g, den)
        reach = bound + Fraction(max(1, bound), _CLUSTER) if cluster else bound
        upper = math.floor(reach * den)
        _fincke_pohst(m, searched + 1, upper, box_bound, counts)
        searched = upper
        lines = [line for line in _lines(counts, den, cluster) if line[0] <= bound]
        if len(lines) >= count:
            return lines[:count]
        steps = min(2 * steps, steps * count // len(lines)) if lines else 2 * steps


def spectrum(q_dual: SymMatrix, count: int, box_bound: int = DEFAULT_BOX_BOUND) -> list[SpectrumLine]:
    """First `count` distinct Laplace eigenvalues 4 pi^2 |xi|^2 of the torus.

    q_dual is the Gram matrix of the dual lattice in integer coordinates.
    The zero eigenvalue (constants) opens the list with multiplicity 1;
    each nonzero eigenvalue has multiplicity 2 * (number of +/- classes).
    The search radius (`_distinct_norms`) starts at the larger of the
    smallest diagonal entry and (count - 1) * g/den, an exact lower bound on
    the last norm (g the content of den * q_dual), and ends at that start or
    below twice the last norm.
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
                                 max_numerator: int = 4) -> list[tuple[tuple[int, ...], int]]:
    """Rational points on the quadric u^t Q u = 1, by projection through u0.

    A pseudo-random rational point u' on the coordinate hyperplane of u0's
    first nonzero coordinate determines the line through u0 whose second
    quadric intersection is again rational.  The line runs in integers: with
    u0 = z0 / c (c the lcm of u0's denominators), M = den Q the integer Gram
    of `_integer_gram` and d = L (u' - u0) the integer direction (L the lcm
    of c and the denominators of u'), the intersection is

        u_k = (z0_k d^t M d - 2 (z0^t M d) d_k) / (c d^t M d),

    one integer quadratic form, one bilinear form and one gcd per sample
    (d with d^t M d = 0 is skipped).  Each point u is returned as the pair
    (numerators, den), u = numerators / den in lowest terms: den > 0 and
    gcd(den, *numerators) = 1, so den is the lcm of the denominators of u's
    coordinates and equal points are equal pairs.  Each coordinate of u' is
    drawn as randint(-max_numerator, max_numerator) then randint(1,
    max_denominator), the axis coordinate too before it is set to 0, so the
    points depend on the seed alone: the pair form takes the same draws in
    the same order as Fraction coordinates would, and Fraction(x, den) per
    numerator gives the same points.  Every output satisfies the quadric
    equation exactly.
    """
    import random

    if q.regime != "rational":
        raise TypeError("Q must be rational")
    n = q.n
    m, den = _integer_gram(q)
    u0 = tuple(Fraction(x) for x in u0)
    if len(u0) != n:
        raise ValueError(f"u0 has {len(u0)} coordinates, Q is {n} x {n}")
    c = math.lcm(*(x.denominator for x in u0))
    z0 = [x.numerator * (c // x.denominator) for x in u0]
    mz0 = [sum(map(mul, row, z0)) for row in m]
    if sum(map(mul, z0, mz0)) != den * c * c:
        raise ValueError("u0 does not lie on the ellipsoid")
    axis = next(k for k in range(n) if z0[k])
    rng = random.Random(seed)
    points: list[tuple[tuple[int, ...], int]] = []
    seen = {(tuple(z0), c)}  # lowest terms: c is the lcm of reduced denominators
    tries = 0
    while len(points) < count:
        tries += 1
        if tries > 200 * count + 1000:
            raise RuntimeError("sampling did not produce enough distinct points")
        draws = [(rng.randint(-max_numerator, max_numerator), rng.randint(1, max_denominator))
                 for _ in range(n)]
        draws[axis] = (0, 1)
        lcm = math.lcm(c, *(b for _, b in draws))
        step = lcm // c
        d = [a * (lcm // b) - step * z for (a, b), z in zip(draws, z0)]
        qd = sum(map(mul, d, [sum(map(mul, row, d)) for row in m]))
        if qd == 0:
            continue
        two_b = 2 * sum(map(mul, mz0, d))
        nums = [z * qd - two_b * x for z, x in zip(z0, d)]
        g = math.gcd(c * qd, *nums)
        g = -g if qd < 0 else g
        u = (tuple(x // g for x in nums), c * qd // g)
        if u in seen:
            continue
        seen.add(u)
        points.append(u)
    return points
