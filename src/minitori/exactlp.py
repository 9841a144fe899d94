"""Exact rational linear-programming feasibility (phase-1 simplex, Bland's rule).

Solves  find x >= 0 with A x = b  over the rationals.  Deterministic: Bland's
pivoting (lowest eligible index, ties in the ratio test to the lowest basic
index) guarantees termination and reproducibility.

The tableau runs in integers by integer-preserving pivoting with one running
divisor (Edmonds 1967; Bareiss, Math. Comp. 1968).  One lcm D clears every
denominator of [A | I | b]; the divisor d starts at 1, and a pivot on p
replaces each other row x by (p x - f y) / d, with y the pivot row and f its
entry in the pivot column, then sets d = p.  Every entry stays an integer
minor of the initial matrix, so each division is exact.  A row whose basic
variable is its own artificial is D d times the rational tableau's row, and
every other row, like the reduced-cost row up to the factor D, is d times
it.  A pivot in the drive-out phase can be negative; the whole tableau is then
negated, so d stays positive.  Each row is thus a positive multiple of the
rational one, so every sign, every ratio (compared by cross-multiplication)
and so every basis are those of the rational simplex, and the solution is
x_j = T[r][-1] / d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


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
    # reduced-cost row for the sum of the artificials
    z = [sum(col) for col in zip(*T)]
    d = 1

    def pivot(row: int, col: int) -> None:
        nonlocal d, z
        p = T[row][col]
        prow = T[row]
        for r in range(m):
            if r != row:
                f = T[r][col]
                if f:
                    T[r] = [(p * x - f * y) // d for x, y in zip(T[r], prow)]
                elif p != d:
                    T[r] = [p * x // d for x in T[r]]
        f = z[col]
        if f:
            z = [(p * x - f * y) // d for x, y in zip(z, prow)]
        elif p != d:
            z = [p * x // d for x in z]
        if p < 0:
            # keep d > 0, so every row stays a positive multiple of its rational row
            for r in range(m):
                T[r] = [-x for x in T[r]]
            z = [-x for x in z]
            p = -p
        d = p
        basis[row] = col

    while True:
        enter = next((j for j in range(n) if z[j] > 0), None)
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
            x[basis[r]] = Fraction(T[r][ncols], d)
    if any(v < 0 for v in x):
        return None
    return x
