"""Symmetric matrices over the three scalar regimes, their upper-triangle
coordinates, and the package's one exact elimination kernel.

The space Sym_n carries <S, T> = tr(S T).  Matrices are stored densely and
immutably; the entry regime is one of ``rational`` (Fraction), ``algebraic``
(elements of one shared field) or ``float``.  Everything is plain Python: a
float `inverse` or `determinant` is the exact one of the float entries lifted
to Fractions, rounded once, and the float positive definiteness test is a
pivoted LDL^t.

Sym_n has one coordinate map, S -> (S_ik)_{i <= k} row by row: `SymMatrix.upper`
reads it, `SymMatrix.from_upper` builds a matrix from it, and `rank_one_rows`
gives the coordinates [v_i v_k]_{i <= k} of each v v^t, so a linear condition
on sums of rank-one matrices is a system on these rows.

All exact linear algebra, over Q or over one field Q(w), runs through one
Gauss-Jordan routine, `_gauss_jordan`, on row lists (int entries are lifted to
Fractions first).  `rank`, `solve` (free variables 0), `kernel` (one basis
vector per free column), `inverse` and `determinant` are thin functions over
it, and take SymMatrix rows or plain row lists.  A matrix has exactly one
reduced row echelon form, and the determinant is the signed product of the
pivots, so every result is the same as that of any other exact elimination.
The one exception to the routine is the integer kernel `scalars.bareiss`,
Bareiss's fraction-free elimination: it computes the determinant of an
all-int matrix (the integer minors of the embeddedness test), and the rank
of rows without algebraic entries, each row first scaled to integers by the
lcm of its denominators.
Zero tests are exact (Fraction or coefficient comparisons); no sign is taken,
so elimination never narrows a field's isolating interval.

`is_positive_definite` makes one pass without row exchanges: S is positive
definite iff every leading pivot d_k = D_k / D_{k-1} (D_k the k-th leading
principal minor) is > 0, which by Sylvester's criterion is the same test as
D_k > 0 for all k.  Algebraic pivots get certified signs.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Optional, Sequence, Union

from .scalars import (AlgebraicScalar, Rat, Scalar, bareiss, dot, exact_scalar,
                      integer_combinations)

FLOAT_PD_TOL = 1e-12


def _upper_pairs(n: int) -> list[tuple[int, int]]:
    """The index pairs (i, k), i <= k, of Sym_n's coordinates, row by row."""
    return [(i, k) for i in range(n) for k in range(i, n)]


def rank_one_rows(vectors: Sequence[Sequence[Rat]]) -> list[list[Rat]]:
    """[v_i v_k]_{i <= k} for each vector v: the coordinates of v v^t.

    ints for integer vectors, Fractions for rational ones.
    """
    pairs = _upper_pairs(len(vectors[0]))
    return [[v[i] * v[k] for i, k in pairs] for v in vectors]


class SymMatrix:
    """Immutable symmetric n x n matrix."""

    __slots__ = ("n", "entries", "_regime")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        n = len(rows)
        ent = []
        regime = "rational"
        field = None
        for i in range(n):
            if len(rows[i]) != n:
                raise ValueError("matrix is not square")
            row = []
            for j in range(n):
                x = rows[i][j]
                if isinstance(x, AlgebraicScalar):
                    regime = "algebraic"
                    field = x.field
                elif isinstance(x, float):
                    if regime != "algebraic":
                        regime = "float"
                elif isinstance(x, (int, Fraction)):
                    pass
                elif isinstance(x, numbers.Integral):  # another Integral type (an int64, say)
                    x = Fraction(int(x))
                elif isinstance(x, numbers.Real):
                    x = float(x)
                    if regime != "algebraic":
                        regime = "float"
                else:
                    raise TypeError(f"unsupported entry type {type(x)}")
                row.append(x)
            ent.append(row)
        if regime == "algebraic":
            if field is None:
                raise AssertionError
            for i in range(n):
                for j in range(n):
                    x = ent[i][j]
                    if isinstance(x, float):
                        raise TypeError("cannot mix float and algebraic entries")
                    if not isinstance(x, AlgebraicScalar):
                        ent[i][j] = field.from_rational(x)
        elif regime == "float":
            for i in range(n):
                for j in range(n):
                    ent[i][j] = float(ent[i][j])
        else:
            for i in range(n):
                for j in range(n):
                    ent[i][j] = Fraction(ent[i][j])
        for i in range(n):
            for j in range(i + 1, n):
                if ent[i][j] != ent[j][i]:
                    raise ValueError(f"asymmetric entries at ({i},{j})")
        self.n = n
        self.entries = tuple(tuple(row) for row in ent)
        self._regime = regime

    # -- constructors ---------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls([[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, values: Sequence[Scalar]) -> "SymMatrix":
        n = len(values)
        z = Fraction(0)
        return cls([[values[i] if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_upper(cls, values: Sequence[Scalar]) -> "SymMatrix":
        """The matrix whose coordinates (`upper`) are `values`."""
        n = (math.isqrt(8 * len(values) + 1) - 1) // 2
        rows: list[list] = [[None] * n for _ in range(n)]
        for (i, k), v in zip(_upper_pairs(n), values):
            rows[i][k] = rows[k][i] = v
        return cls(rows)

    @classmethod
    def rank_one(cls, v: Sequence[Rat]) -> "SymMatrix":
        """v v^t for an integer or rational vector v (rational regime)."""
        v = [x if isinstance(x, Fraction) else int(x) for x in v]
        return cls([[Fraction(a * b) for b in v] for a in v])

    @classmethod
    def rank_one_sum(cls, cols: Sequence[Sequence[int]], coeffs: Sequence[Scalar]) -> "SymMatrix":
        """sum_j c_j Y_j Y_j^t for integer vectors Y_j, built entry by entry.

        Entry (i, k) is the combination of the c_j with the integer weights
        (Y_j)_i (Y_j)_k.  Exact coefficients (ints, Fractions or elements of
        one field) go through `scalars.integer_combinations`.  Any other
        coefficients (floats) are multiplied by those integers and the terms
        added in j order, the float operations of summing the matrices
        rank_one(Y_j).scale(c_j) in that order, so the sums are bit-identical.
        """
        products = list(zip(*rank_one_rows(cols)))
        if all(exact_scalar(c) for c in coeffs):
            values = integer_combinations(coeffs, products)
        else:
            values = []
            for row in products:
                acc = None
                for c, t in zip(coeffs, row):
                    term = c * t
                    acc = term if acc is None else acc + term
                values.append(acc)
        return cls.from_upper(values)

    # -- basics ---------------------------------------------------------------
    @property
    def regime(self) -> str:
        return self._regime

    def is_exact(self) -> bool:
        return self._regime != "float"

    def upper(self) -> list[Scalar]:
        """The coordinates (S_ik)_{i <= k}, row by row."""
        return [self.entries[i][k] for i, k in _upper_pairs(self.n)]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SymMatrix({[[str(x) for x in row] for row in self.entries]})"

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_dim(other)
        return SymMatrix([[self.entries[i][j] + other.entries[i][j]
                           for j in range(self.n)] for i in range(self.n)])

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_dim(other)
        return SymMatrix([[self.entries[i][j] - other.entries[i][j]
                           for j in range(self.n)] for i in range(self.n)])

    def scale(self, s: Scalar) -> "SymMatrix":
        return SymMatrix([[s * self.entries[i][j] for j in range(self.n)] for i in range(self.n)])

    def _check_dim(self, other: "SymMatrix") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def matmul(self, other: "SymMatrix") -> list[list]:
        """Plain matrix product (generally not symmetric); returns nested lists.

        Exact entries: each one is `scalars.dot` of a row and a column (a row
        of the symmetric `other`), reduced once.
        """
        self._check_dim(other)
        if self.is_exact() and other.is_exact():
            return [[dot(row, col) for col in other.entries] for row in self.entries]
        n = self.n
        return [[sum(self.entries[i][k] * other.entries[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]

    def quad_form(self, v: Sequence) -> Scalar:
        """v^t S v."""
        n = self.n
        acc = None
        for i in range(n):
            if not v[i]:
                continue
            row = self.entries[i]
            part = sum(row[j] * v[j] for j in range(n) if v[j])
            term = v[i] * part
            acc = term if acc is None else acc + term
        if acc is None:
            acc = Fraction(0) if self._regime != "float" else 0.0
        return acc


# ---------------------------------------------------------------------------
# operations

def trace_inner(s1: SymMatrix, s2: SymMatrix) -> Scalar:
    """tr(S1 S2): the inner product on Sym_n (symmetric, bilinear)."""
    s1._check_dim(s2)
    n = s1.n
    acc = None
    for i in range(n):
        for j in range(n):
            term = s1.entries[i][j] * s2.entries[j][i]
            acc = term if acc is None else acc + term
    return acc


# ---------------------------------------------------------------------------
# exact elimination: one Gauss-Jordan kernel over Q or one field Q(w)

def _lift(rows) -> tuple[list[list], Scalar]:
    """Fresh row lists over one exact field, and that field's zero.

    Entries become Fractions (1/int would be a float), or elements of the
    field of the algebraic entries when there are any.
    """
    field = next((x.field for row in rows for x in row if isinstance(x, AlgebraicScalar)), None)
    if field is None:
        return ([[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows],
                Fraction(0))
    return ([[x if isinstance(x, AlgebraicScalar) else field.from_rational(x) for x in row]
             for row in rows], field.from_rational(0))


def _gauss_jordan(a: list[list], ncols: int, exchange: bool = True) -> tuple[list, int]:
    """Reduce the rows `a` in place to reduced row echelon form in columns < ncols.

    Returns the pivots as (column, value before scaling) pairs and the sign of
    the row permutation.  Each pivot row is scaled by one inverse of its
    pivot and then cleared from every other row.  A column's pivot is its
    first nonzero entry at or below the current row.  Without `exchange`,
    column k pivots on row k and a zero there ends the pass; it is returned
    as the last pivot value (the values are then the ratios of consecutive
    leading principal minors).
    """
    pivots: list = []
    sign = 1
    m = len(a)
    for col in range(ncols):
        top = len(pivots)
        if top == m:
            break
        if exchange:
            r = next((r for r in range(top, m) if a[r][col]), None)
            if r is None:
                continue
            if r != top:
                a[top], a[r] = a[r], a[top]
                sign = -sign
        p = a[top][col]
        pivots.append((col, p))
        if not p:
            break
        inv = 1 / p
        row = a[top] = [x * inv if x else x for x in a[top]]
        for r in range(m):
            f = a[r][col]
            if f and r != top:
                a[r] = [x - f * y if y else x for x, y in zip(a[r], row)]
    return pivots, sign


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of an exact matrix given by its rows (float rows are lifted exactly).

    Without algebraic entries each row is scaled by the lcm of its
    denominators, which keeps the rank, and `scalars.bareiss` eliminates the
    integer rows.
    """
    if any(isinstance(x, AlgebraicScalar) for row in rows for x in row):
        a, _ = _lift(rows)
        return len(_gauss_jordan(a, len(a[0]))[0])
    return bareiss([_integer_row(row) for row in rows])[0]


def _integer_row(row: Sequence) -> list[int]:
    """The row times the lcm of its entries' denominators."""
    if all(type(x) is int for x in row):
        return list(row)
    fr = [x if type(x) is Fraction else Fraction(x) for x in row]
    den = math.lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr]


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Optional[list]:
    """A solution x of rows . x = rhs with every free variable 0, or None.

    None means the system is inconsistent.  The entries of x are field
    elements whenever any input is algebraic, Fractions otherwise.
    """
    a, zero = _lift([list(row) + [b] for row, b in zip(rows, rhs)])
    ncols = len(a[0]) - 1
    pivots, _ = _gauss_jordan(a, ncols)
    if any(row[ncols] for row in a[len(pivots):]):
        return None
    x = [zero] * ncols
    for row, (col, _) in zip(a, pivots):
        x[col] = row[ncols]
    return x


def kernel(rows: Sequence[Sequence]) -> list[list]:
    """A basis of the kernel: one vector per free column, 1 at that column and
    0 at every other free column (none when the columns are independent)."""
    a, zero = _lift(rows)
    ncols = len(a[0])
    cols = [col for col, _ in _gauss_jordan(a, ncols)[0]]
    basis = []
    for free in (c for c in range(ncols) if c not in cols):
        z = [zero] * ncols
        z[free] = zero + 1
        for row, col in zip(a, cols):
            z[col] = -row[free]
        basis.append(z)
    return basis


def inverse(m: Union[SymMatrix, Sequence[Sequence]]):
    """Inverse of a SymMatrix, or of a square row list (returned as row lists).

    Computed exactly, float entries lifted exactly to Fractions; the inverse
    of a float SymMatrix is that exact inverse rounded once.
    """
    a, zero = _lift(m.entries if isinstance(m, SymMatrix) else m)
    n = len(a)
    one = zero + 1
    for i, row in enumerate(a):
        row.extend(one if j == i else zero for j in range(n))
    if len(_gauss_jordan(a, n)[0]) < n:
        raise ValueError("matrix is singular")
    inv = [row[n:] for row in a]
    if not isinstance(m, SymMatrix):
        return inv
    if m.regime == "float":
        inv = [[_round(x) for x in row] for row in inv]
    return SymMatrix(inv)


def determinant(m: Union[SymMatrix, Sequence[Sequence]]) -> Scalar:
    """Determinant of a SymMatrix or of a square row list; exact for exact entries.

    All-int entries give an int, by fraction-free elimination.  A float
    SymMatrix gives the exact determinant of its entries, rounded once.
    """
    if isinstance(m, SymMatrix):
        if m.regime == "float":
            return _round(determinant(m.entries))
        m = m.entries
    if all(type(x) is int for row in m for x in row):
        return bareiss([list(row) for row in m])[1]
    a, zero = _lift(m)
    pivots, sign = _gauss_jordan(a, len(a))
    if len(pivots) < len(a):
        return zero
    det = zero + sign
    for _, p in pivots:
        det = det * p
    return det


def _round(x: Fraction) -> float:
    """The float nearest x; beyond the float range, an infinity of x's sign."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def is_positive_definite(s: SymMatrix):
    """Positive definiteness test.

    Exact regimes: one elimination pass without row exchanges; S is positive
    definite iff every leading pivot (a ratio of consecutive leading
    principal minors) is > 0, with certified signs in the algebraic case.
    Float regime: pivoted Cholesky; pivots within FLOAT_PD_TOL relative to
    the largest diagonal entry are borderline and yield None (indeterminate).
    """
    if s.regime == "float":
        return _float_pd([list(row) for row in s.entries])
    a, _ = _lift(s.entries)
    return all(p > 0 for _, p in _gauss_jordan(a, s.n, exchange=False)[0])


def _float_pd(a: list[list[float]]):
    """Pivoted LDL^t of a float matrix, given by row lists that it overwrites.

    Each step takes the largest remaining diagonal entry as the pivot and
    subtracts c_i a_jk (c_i = a_ik / pivot) from every entry of the trailing
    block, both triangles, one rounding for the product and one for the
    difference.
    """
    n = len(a)
    scale = max(max((abs(a[i][i]) for i in range(n)), default=0.0), 1e-300)
    tol = FLOAT_PD_TOL * scale
    for k in range(n):
        # diagonal pivoting: the first index of the largest diagonal entry
        j = max(range(k, n), key=lambda i: a[i][i])
        if j != k:
            a[k], a[j] = a[j], a[k]
            for row in a:
                row[k], row[j] = row[j], row[k]
        piv = a[k][k]
        if piv <= tol:
            if piv < -tol:
                return False
            # pivot in the uncertainty band: remaining block decides nothing
            if any(a[i][i] < -tol for i in range(k, n)):
                return False
            return None
        col = [a[i][k] for i in range(k + 1, n)]
        for i, x in zip(range(k + 1, n), col):
            c = x / piv
            row = a[i]
            for j, y in zip(range(k + 1, n), col):
                row[j] -= c * y
    return True
