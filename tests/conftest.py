"""Shared helpers: independent oracles and seeded random data generators."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from minitori.symmetric import SymMatrix, inverse, is_positive_definite


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


@pytest.fixture
def rng():
    return random.Random(20260810)
