"""Shared helpers: independent oracles and seeded random data generators."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from minitori.symmetric import SymMatrix, inverse, is_positive_definite, solve


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


@pytest.fixture
def rng():
    return random.Random(20260810)
