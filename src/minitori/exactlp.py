"""Exact linear-programming feasibility (phase-1 simplex, Bland's rule).

Solves  find x >= 0 with A x = b  for a rational A and a b over Q or over one
field Q(w) of degree k.  Deterministic: Bland's pivoting (lowest eligible
index, ties in the ratio test to the lowest basic index) guarantees
termination and reproducibility.

The tableau runs in integers through the package's one elimination step,
`scalars.pivot` (Edmonds 1967; Bareiss, Math. Comp. 1968), where its
exactness is argued.  b enters as k integer columns, its power-basis
coordinates (`scalars.common_numerators`; one column for a rational b).  One
lcm D clears every denominator of [A | b]; the tableau is [D A | D b], with
the reduced costs of the sum of the m artificials as row m.  No test reads an
artificial column, and a pivot (on a column of A) updates each column from
itself and the pivot column alone, so none is stored; an artificial basic in
row r is marked by basis[r] >= n.  The divisor d starts at 1; a pivot on p
replaces each other row x, row m included, by (p x - f y) / d, with y the
pivot row and f its entry in the pivot column, then sets d = p.  A row whose
basic variable is its own artificial is D d times its row of the exact tableau
B^-1 [A | b] (a pivot on another row maps D d times the old one to D p times
the new one), and every other row, like the reduced-cost row up to the factor
D, is d times it.  A pivot in the drive-out phase can be negative; the whole
tableau is then negated, so d stays positive.  Each row is thus a positive
multiple of the exact one.  The entering and drive-out choices read only the
columns of A; three decisions read the k columns of b as one field element:
the sign that orients each row, the cross-multiplied ratio test (both
certified by `AlgebraicScalar.sign`) and the phase-1 zero test (all k
coordinates zero).  So every basis is that of the simplex over the reals, and
the solution is x_j = T[r][n:] / d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from .scalars import AlgebraicScalar, Scalar, _element, common_numerators, pivot


def feasible_point(a_rows: Sequence[Sequence[Union[int, Fraction]]],
                   b: Sequence[Scalar]) -> Optional[list]:
    """A nonnegative basic solution of A x = b, or None if infeasible: Fractions,
    or elements of b's field, whose interval the certified signs may narrow.
    The entries of A are ints or Fractions."""
    m = len(a_rows)
    if m == 0:
        return []
    n = len(a_rows[0])
    field = next((x.field for x in b if isinstance(x, AlgebraicScalar)), None)
    rhs, den = common_numerators(b, field)
    D = math.lcm(den, *(x.denominator for row in a_rows for x in row))

    def sign(v: Sequence[int]) -> int:
        """The certified sign of the element with coordinates v."""
        return (v[0] > 0) - (v[0] < 0) if field is None else _element(field, v, 1).sign()

    # tableau [D A | D b] (artificials n..n+m-1 without columns), each row
    # signed so that its right-hand side is nonnegative; objective: minimize
    # the sum of the artificials
    T = []
    for i in range(m):
        s = D if sign(rhs[i]) >= 0 else -D
        T.append([x.numerator * (s // x.denominator) for x in a_rows[i]]
                 + [c * (s // den) for c in rhs[i]])
    basis = [n + i for i in range(m)]
    # row m: the reduced costs of the sum of the artificials
    T.append([sum(col) for col in zip(*T)])
    d = 1

    def step(row: int, col: int) -> None:
        nonlocal d
        p = T[row][col]
        pivot(T, row, col, d, (r for r in range(m + 1) if r != row))
        if p < 0:
            # keep d > 0, so every row stays a positive multiple of its exact row
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
                # ratio T[r][n:] / t against T[leave][n:] / T[leave][enter],
                # cross-multiplied (both entries are positive)
                q = T[leave][enter]
                diff = sign([u * q - v * t for u, v in zip(T[r][n:], T[leave][n:])])
                if diff < 0 or (diff == 0 and basis[r] < basis[leave]):
                    leave = r
        # an entering column without a positive entry would make the phase-1
        # objective, a sum of artificials, unbounded below
        assert leave is not None, "a phase-1 objective is bounded below by 0"
        step(leave, enter)

    if any(T[m][n:]):
        return None
    # drive any artificial still in the basis (at zero level) out if possible
    for r in range(m):
        if basis[r] >= n:
            enter = next((j for j in range(n) if T[r][j] != 0), None)
            if enter is not None:
                step(r, enter)
    # Invariant: every right-hand side T[r][n:] is >= 0.  The rows start
    # signed so; the ratio test picks each phase-1 pivot so that none turns
    # negative; a drive-out pivot is on a row whose right-hand side is 0 (its
    # artificial is basic at zero level), so it only rescales the others by
    # |p| / d > 0.  So with d > 0 the basic solution is nonnegative.
    x = [Fraction(0) if field is None else field.from_rational(0)] * n
    for r in range(m):
        if basis[r] < n:
            v = T[r][n:]
            x[basis[r]] = Fraction(v[0], d) if field is None else _element(field, v, d)
    # a field value's sign would be one more query that may narrow the interval
    assert field is not None or all(v >= 0 for v in x), \
        "phase 1 kept every right-hand side nonnegative"
    return x
