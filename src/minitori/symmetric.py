"""Symmetric matrices over the three scalar regimes, their upper-triangle
coordinates, and exact linear algebra on row lists.

The space Sym_n carries <S, T> = tr(S T).  Matrices are stored densely and
immutably; the entry regime is one of ``rational`` (Fraction), ``algebraic``
(elements of one shared field) or ``float``.  Everything is plain Python: a
float `inverse` or `determinant` is the exact one of the float entries lifted
to Fractions, rounded once, and the float positive definiteness test is a
pivoted LDL^t with a tolerance.

Sym_n has one coordinate map, S -> (S_ik)_{i <= k} row by row: `SymMatrix.upper`
reads it, `SymMatrix.from_upper` builds a matrix from it, and `rank_one_rows`
gives the coordinates [v_i v_k]_{i <= k} of each v v^t, so a linear condition
on sums of rank-one matrices is a system on these rows.

`rank`, `solve` (free variables 0), `kernel` (one basis vector per free
column), `inverse`, `determinant` and the exact `is_positive_definite` are
thin functions over the kernel `scalars.eliminate`, where exactness is
argued; they take SymMatrix rows or plain row lists.  Rows with an algebraic
entry are eliminated over its field; any other row is scaled to integers by
the lcm of its denominators (floats lifted exactly), which keeps the rank,
the solutions, the kernel and the signs of the leading minors.  A matrix has
one reduced row echelon form, so every result is that of any other exact
elimination.

`is_positive_definite` makes one pass without row exchanges: S is positive
definite iff every pivot is > 0, a ratio D_k / D_{k-1} of leading principal
minors over a field and the scaled D_k over the integers, so both are
Sylvester's test D_k > 0 for all k.  Algebraic pivots get certified signs.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .scalars import (AlgebraicField, AlgebraicScalar, Rat, Scalar, dot, eliminate,
                      exact_scalar, integer_combinations)

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
        """Plain matrix product of exact matrices (generally not symmetric), as
        nested lists: each entry is `scalars.dot` of a row and a column (a row
        of the symmetric `other`), reduced once.  A float operand raises
        TypeError.
        """
        self._check_dim(other)
        if not (self.is_exact() and other.is_exact()):
            raise TypeError("matmul needs exact matrices")
        return [[dot(row, col) for col in other.entries] for row in self.entries]

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

    def quad_forms(self, cols: Sequence[Sequence[int]]) -> list[Scalar]:
        """[v^t S v for v in cols], for integer vectors v.

        For exact S, one `scalars.integer_combinations` pass over the
        coordinates (`upper`) for all vectors: S_ik is weighted by v_i v_k,
        doubled off the diagonal, so no field product is taken.  A float S
        runs `quad_form` per vector, the same float operations in the same
        order and so the same bits, as `rank_one_sum` keeps its float path.
        """
        if self._regime == "float":
            return [self.quad_form(v) for v in cols]
        pairs = [(i, k, 1 if i == k else 2) for i, k in _upper_pairs(self.n)]
        return integer_combinations(self.upper(), [[t * v[i] * v[k] for i, k, t in pairs]
                                                   for v in cols])


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
# exact linear algebra over the kernel `scalars.eliminate`

def _kernel_rows(rows) -> tuple[list[list], Optional[AlgebraicField], int, bool]:
    """Fresh rows for `eliminate`: elements of the field of an algebraic entry,
    else each row times the lcm of its denominators (field None, and the
    scale is the product of those lcms); and whether every entry is an int.
    One pass reads the entry types of each row."""
    out, scale, ints = [], 1, True
    for row in rows:
        types = set(map(type, row))
        if types <= {int}:
            out.append(list(row))
            continue
        if AlgebraicScalar in types:
            field = next(x.field for x in row if isinstance(x, AlgebraicScalar))
            return ([[x if isinstance(x, AlgebraicScalar) else field.from_rational(x)
                      for x in r] for r in rows], field, 1, False)
        ints = False
        fr = [x if type(x) is Fraction else Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in fr))
        out.append([x.numerator * (den // x.denominator) for x in fr])
        scale *= den
    return out, None, scale, ints


def _reduced(rows, ncols: int) -> tuple[list[list], list[int], Scalar, Callable]:
    """A Gauss-Jordan pass: the rows, their pivot columns, the zero, and the map
    from an entry of a pivot row to its value over the pivot (field pivots
    are 1; integer rows hold the last pivot t, and x stands for x / t)."""
    a, field, _, _ = _kernel_rows(rows)
    pivots, _ = eliminate(a, ncols)
    cols = [col for col, _ in pivots]
    if field is not None:
        return a, cols, field.from_rational(0), lambda x: x
    t = pivots[-1][1] if pivots else 1
    return a, cols, Fraction(0), lambda x: Fraction(x, t)


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of an exact matrix given by its rows (float rows are lifted exactly)."""
    a = _kernel_rows(rows)[0]
    return len(eliminate(a, len(a[0]) if a else 0, jordan=False)[0])


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Optional[list]:
    """A solution x of rows . x = rhs with every free variable 0, or None.

    None means the system is inconsistent.  The entries of x are field
    elements whenever any input is algebraic, Fractions otherwise.
    """
    ncols = len(rows[0])
    a, cols, zero, over = _reduced([list(row) + [b] for row, b in zip(rows, rhs)], ncols)
    if any(row[ncols] for row in a[len(cols):]):
        return None
    x = [zero] * ncols
    for row, col in zip(a, cols):
        x[col] = over(row[ncols])
    return x


def kernel(rows: Sequence[Sequence]) -> list[list]:
    """A basis of the kernel: one vector per free column, 1 at that column and
    0 at every other free column (none when the columns are independent)."""
    ncols = len(rows[0])
    a, cols, zero, over = _reduced(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in cols):
        z = [zero] * ncols
        z[free] = zero + 1
        for row, col in zip(a, cols):
            z[col] = -over(row[free])
        basis.append(z)
    return basis


def inverse(m: Union[SymMatrix, Sequence[Sequence]]):
    """Inverse of a SymMatrix, or of a square row list (returned as row lists).

    Computed exactly, float entries lifted exactly to Fractions; the inverse
    of a float SymMatrix is that exact inverse rounded once.
    """
    rows = m.entries if isinstance(m, SymMatrix) else m
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    a, cols, _, over = _reduced([list(row) + [int(i == j) for j in range(n)]
                                 for i, row in enumerate(rows)], n)
    if len(cols) < n:
        raise ValueError("matrix is singular")
    inv = [[over(x) for x in row[n:]] for row in a]
    if not isinstance(m, SymMatrix):
        return inv
    if m.regime == "float":
        inv = [[_round(x) for x in row] for row in inv]
    return SymMatrix(inv)


def determinant(m: Union[SymMatrix, Sequence[Sequence]]) -> Scalar:
    """Determinant of a SymMatrix or of a square row list; exact for exact entries.

    The signed product of the field pivots, or the signed last integer pivot
    over the scale, so all-int entries give an int.  A float SymMatrix gives
    the exact determinant of its entries, rounded once.
    """
    if isinstance(m, SymMatrix):
        if m.regime == "float":
            return _round(determinant(m.entries))
        m = m.entries
    a, field, scale, ints = _kernel_rows(m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    pivots, sign = eliminate(a, n, jordan=False)
    if field is not None:
        det = field.from_rational(sign if len(pivots) == n else 0)
        for _, p in pivots:
            det = det * p
        return det
    if len(pivots) < n:
        det = 0
    else:
        det = sign * pivots[-1][1] if n else 1
    return det if ints else Fraction(det, scale)


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
    a = _kernel_rows(s.entries)[0]
    return all(p > 0 for _, p in eliminate(a, s.n, jordan=False, exchange=False)[0])


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
