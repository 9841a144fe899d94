"""Exact rational linear-programming feasibility (phase-1 simplex, Bland's rule).

Solves  find x >= 0 with A x = b  over the rationals.  Deterministic: Bland's
pivoting (lowest eligible index, ties in the ratio test to the lowest basic
index) guarantees termination and reproducibility.

The tableau runs in integers through the package's one elimination step,
`scalars.pivot` (Edmonds 1967; Bareiss, Math. Comp. 1968), where its
exactness is argued.  One lcm D clears every denominator of [A | I | b], and
the reduced costs of the sum of the artificials are held as row m of the
tableau.  The divisor d starts at 1; a pivot on p replaces each other row x,
row m included, by (p x - f y) / d, with y the pivot row and f its entry in
the pivot column, then sets d = p.  A row whose basic variable is its own
artificial is D d times the rational tableau's row, and every other row, like
the reduced-cost row up to the factor D, is d times it.  A pivot in the
drive-out phase can be negative; the whole tableau is then negated, so d
stays positive.  Each row is thus a positive multiple of the rational one, so
every sign, every ratio (compared by cross-multiplication) and so every basis
are those of the rational simplex, and the solution is x_j = T[r][-1] / d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .scalars import pivot


def feasible_point(a_rows: Sequence[Sequence[Fraction]],
                   b: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """A nonnegative basic solution of A x = b, or None if infeasible."""
    m = len(a_rows)
    if m == 0:
        return []
    n = len(a_rows[0])
    A = [[Fraction(x) for x in row] for row in a_rows]
    rhs = [Fraction(x) for x in b]
    D = math.lcm(*(x.denominator for row in A for x in row),
                 *(x.denominator for x in rhs))
    # tableau [D A | D I | D b] with artificial variables n..n+m-1, each row
    # signed so that its right-hand side is nonnegative; objective: minimize
    # the sum of the artificials
    ncols = n + m
    T = []
    for i in range(m):
        s = D if rhs[i] >= 0 else -D
        T.append([x.numerator * (s // x.denominator) for x in A[i]]
                 + [D if j == i else 0 for j in range(m)]
                 + [rhs[i].numerator * (s // rhs[i].denominator)])
    basis = [n + i for i in range(m)]
    # row m: the reduced costs of the sum of the artificials
    T.append([sum(col) for col in zip(*T)])
    d = 1

    def step(row: int, col: int) -> None:
        nonlocal d
        p = T[row][col]
        pivot(T, row, col, d, (r for r in range(m + 1) if r != row))
        if p < 0:
            # keep d > 0, so every row stays a positive multiple of its rational row
            T[:] = [[-x for x in r] for r in T]
            p = -p
        d = p
        basis[row] = col

    while True:
        enter = next((j for j in range(n) if T[m][j] > 0), None)
        if enter is None:
            break
        leave = None
        for r in range(m):
            t = T[r][enter]
            if t > 0:
                if leave is None:
                    leave = r
                    continue
                # ratio T[r][-1] / t against T[leave][-1] / T[leave][enter],
                # cross-multiplied (both entries are positive)
                ratio = T[r][ncols] * T[leave][enter]
                best = T[leave][ncols] * t
                if ratio < best or (ratio == best and basis[r] < basis[leave]):
                    leave = r
        # an entering column without a positive entry would make the phase-1
        # objective, a sum of artificials, unbounded below
        assert leave is not None, "a phase-1 objective is bounded below by 0"
        step(leave, enter)

    if T[m][ncols] != 0:
        return None
    # drive any artificial still in the basis (at zero level) out if possible
    for r in range(m):
        if basis[r] >= n:
            enter = next((j for j in range(n) if T[r][j] != 0), None)
            if enter is not None:
                step(r, enter)
    # Invariant: every right-hand side T[r][ncols] is >= 0.  The rows start
    # signed so; the ratio test picks each phase-1 pivot so that none turns
    # negative; a drive-out pivot is on a row whose right-hand side is 0 (its
    # artificial is basic at zero level), so it only rescales the others by
    # |p| / d > 0.  So with d > 0 the basic solution is nonnegative.
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(T[r][ncols], d)
    assert all(v >= 0 for v in x), "phase 1 kept every right-hand side nonnegative"
    return x
