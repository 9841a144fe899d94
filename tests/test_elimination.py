"""The one exact elimination kernel (`scalars.pivot`, `scalars.eliminate`) and
everything routed through it, against sympy's domain matrices.

Rows are int, Fraction, float (lifted exactly) or Q(sqrt d) entries, of any
shape from empty to 5 x 5, often rank deficient.  The oracle works in sympy's
QQ or QQ<sqrt(d)>, whose arithmetic and row reduction are independent of the
package's.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from minitori.certificates import embeddedness
from minitori.lattices import _levels
from minitori.scalars import AlgebraicField, AlgebraicScalar, eliminate, sqrt_field
from minitori.symmetric import (FLOAT_PD_TOL, SymMatrix, determinant, inverse,
                                is_positive_definite, kernel, rank, solve)
from conftest import CATALOG_FIELDS

SQRT_DS = (2, 3, 5)
SMALL = st.integers(-4, 4)
RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
FLOATS = st.one_of(st.integers(-4, 4).map(float), st.floats(-4, 4, allow_nan=False, width=32))


def _entries(regime):
    """The entry strategy of a regime and the sympy domain of the oracle."""
    if regime == "int":
        return SMALL, sympy.QQ
    if regime == "fraction":
        return st.one_of(SMALL, RATIONALS), sympy.QQ
    if regime == "float":
        return FLOATS, sympy.QQ
    d = int(regime[4:])
    w = sqrt_field(d).generator()
    # plain ints among the field elements: rows are lifted to the field
    return (st.one_of(SMALL, st.builds(lambda a, b: a + b * w, RATIONALS, SMALL)),
            sympy.QQ.algebraic_field(sympy.sqrt(d)))


REGIMES = ("int", "fraction", "float") + tuple(f"sqrt{d}" for d in SQRT_DS)


def _to_sympy(x):
    if isinstance(x, AlgebraicScalar):
        d = -x.field.minpoly[0]
        return sum(sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(d) ** i
                   for i, c in enumerate(x.coeffs))
    if isinstance(x, float):
        return sympy.Rational(*x.as_integer_ratio())
    return sympy.Rational(x.numerator, x.denominator)


def _domain(rows, ncols, dom) -> DomainMatrix:
    return DomainMatrix([[dom.from_sympy(_to_sympy(x)) for x in row] for row in rows],
                        (len(rows), ncols), dom)


def _same(got, want, dom) -> bool:
    """A package scalar equals an element of the oracle's domain."""
    return dom.from_sympy(_to_sympy(got)) == want


def _result_type(rows):
    return AlgebraicScalar if any(isinstance(x, AlgebraicScalar) for row in rows
                                  for x in row) else Fraction


@st.composite
def systems(draw, square=False, min_rows=0, min_cols=0):
    """(rows, ncols, domain): r x c rows of one regime, half of them a product
    through k <= min(r, c), so often rank deficient."""
    entry, dom = _entries(draw(st.sampled_from(REGIMES)))
    r = draw(st.integers(min_rows, 5))
    c = r if square else draw(st.integers(min_cols, 5))
    if r and c and draw(st.booleans()):
        k = draw(st.integers(1, min(r, c)))
        left = [[draw(entry) for _ in range(k)] for _ in range(r)]
        right = [[draw(entry) for _ in range(c)] for _ in range(k)]
        rows = [[sum((x * y for x, y in zip(row, col)), 0) for col in zip(*right)]
                for row in left]
    else:
        rows = [[draw(entry) for _ in range(c)] for _ in range(r)]
    return rows, c, dom


def _rref(rows, ncols, dom):
    """sympy's reduced rows and pivot columns."""
    if not rows or not ncols:
        return [], ()
    red, cols = _domain(rows, ncols, dom).rref()
    return red.to_list(), cols


def _diagonal_pivots(rows) -> list[Fraction]:
    """The pivots of the float rows lifted exactly, in the order of the float
    LDL^t of `is_positive_definite` (`symmetric._float_pd`): each step takes
    the first largest remaining diagonal entry, and the last pivot taken is
    the first one <= 0."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, pivots = len(a), []
    for k in range(n):
        j = max(range(k, n), key=lambda i: a[i][i])
        a[k], a[j] = a[j], a[k]
        for row in a:
            row[k], row[j] = row[j], row[k]
        pivots.append(a[k][k])
        if a[k][k] <= 0:
            break
        for i in range(k + 1, n):
            c = a[i][k] / a[k][k]
            for m in range(k + 1, n):
                a[i][m] -= c * a[k][m]
    return pivots


class TestKernelAgainstSympy:
    @settings(max_examples=100, deadline=None)
    @given(systems())
    def test_rank(self, case):
        rows, ncols, dom = case
        assert rank(rows) == len(_rref(rows, ncols, dom)[1])

    @settings(max_examples=150, deadline=None)
    @given(systems(square=True))
    def test_determinant(self, case):
        rows, n, dom = case
        got = determinant(rows)
        want = _domain(rows, n, dom).det() if n else dom.one
        assert _same(got, want, dom)
        if all(type(x) is int for row in rows for x in row):
            assert type(got) is int
        else:
            assert type(got) is _result_type(rows)

    @settings(max_examples=60, deadline=None)
    @given(systems(square=True))
    def test_inverse(self, case):
        rows, n, dom = case
        if n and _domain(rows, n, dom).rank() < n:
            with pytest.raises(ValueError):
                inverse(rows)
            return
        got = inverse(rows)
        want = _domain(rows, n, dom).inv().to_list() if n else []
        assert len(got) == n
        assert all(_same(x, y, dom) and type(x) is _result_type(rows)
                   for grow, wrow in zip(got, want) for x, y in zip(grow, wrow))

    @settings(max_examples=150, deadline=None)
    @given(systems(min_rows=1), st.data())
    def test_solve(self, case, data):
        rows, ncols, dom = case
        entry, _ = _entries("fraction")
        rhs = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        aug = [list(row) + [b] for row, b in zip(rows, rhs)]
        red, cols = _rref(aug, ncols + 1, dom)
        x = solve(rows, rhs)
        if ncols in cols:  # a pivot in the right-hand side: inconsistent
            assert x is None
            return
        want = [dom.zero] * ncols
        for row, col in zip(red, cols):
            want[col] = row[ncols]
        assert len(x) == ncols
        assert all(_same(v, w, dom) and type(v) is _result_type(aug) for v, w in zip(x, want))

    @settings(max_examples=150, deadline=None)
    @given(systems(min_rows=1))
    def test_kernel(self, case):
        rows, ncols, dom = case
        red, cols = _rref(rows, ncols, dom)
        want = []
        for free in (c for c in range(ncols) if c not in cols):
            z = [dom.zero] * ncols
            z[free] = dom.one
            for row, col in zip(red, cols):
                z[col] = -row[free]
            want.append(z)
        got = kernel(rows)
        assert len(got) == len(want)
        assert all(_same(v, w, dom) and type(v) is _result_type(rows)
                   for gz, wz in zip(got, want) for v, w in zip(gz, wz))

    @settings(max_examples=100, deadline=None)
    @given(systems(square=True, min_rows=1))
    # float rows that symmetrize to the singular [[2, 2], [2, 2]] and [[6, 0], [0, 0]]
    @example(([[-2.0, 0.0], [2.0, -2.0]], 2, sympy.QQ))
    @example(([[0.0, 0.0], [0.0, -3.0]], 2, sympy.QQ))
    def test_positive_definite(self, case):
        rows, n, dom = case
        # symmetrize, and shift the diagonal so that both verdicts occur
        rows = [[rows[i][j] + rows[j][i] + (3 * n if i == j else 0) for j in range(n)]
                for i in range(n)]
        got = is_positive_definite(SymMatrix(rows))
        if got is None:
            # the borderline verdict of float rows: the exact rows must have a
            # pivot within FLOAT_PD_TOL of 0 relative to their largest diagonal
            assert SymMatrix(rows).regime == "float"
            scale = max(abs(Fraction(rows[i][i])) for i in range(n))
            assert any(abs(p) <= FLOAT_PD_TOL * scale for p in _diagonal_pivots(rows))
            return
        want = all(dom.to_sympy(_domain([r[:k] for r in rows[:k]], k, dom).det()).is_positive
                   for k in range(1, n + 1))
        assert got is want

    def test_shapes(self):
        assert rank([]) == rank([[]]) == rank([[], []]) == 0
        assert determinant([]) == 1 and type(determinant([])) is int
        assert inverse([]) == []
        assert solve([[], []], [0, 0]) == [] and solve([[], []], [0, 1]) is None
        assert kernel([[0, 0]]) == [[1, 0], [0, 1]]
        assert determinant([[Fraction(1, 2), 0], [0, 4]]) == 2
        assert type(determinant([[Fraction(1, 2), 0], [0, 4]])) is Fraction
        for rows in ([[1, 2, 3], [4, 5, 6]], [[Fraction(1, 2), 0, 1], [0, 4, 1]], [[1], [2]]):
            for f in (determinant, inverse):
                with pytest.raises(ValueError, match="not square"):
                    f(rows)


class TestIntegerAdjugate:
    """A fraction-free Gauss-Jordan pass on [B | I] leaves [t I | t B^-1] with
    t = +/- det B, so t B^-1 is the adjugate of B up to the same sign."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_against_sympy(self, rows):
        n = len(rows)
        a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
        pivots, sign = eliminate(a, n)
        b = sympy.Matrix(rows)
        det = b.det()
        if det == 0:
            assert len(pivots) < n
            return
        t = pivots[-1][1]
        assert t == sign * det
        assert [row[:n] for row in a] == [[t * int(i == j) for j in range(n)] for i in range(n)]
        assert sympy.Matrix([row[n:] for row in a]) == sign * b.adjugate()

    def test_embeddedness_witness(self):
        # Y = e1, e2, (1, 1, 2) has det 2; u = (0, 0, 1/2) has integral angles
        # (0, 0, 1), so the exhaustive search, which solves the angle system
        # through this adjugate, must report a witness of that kind
        y = [(1, 0, 0), (0, 1, 0), (1, 1, 2)]
        res = embeddedness(y, exhaustive=True)
        assert res.status == "not_embedded"
        u = res.witness
        assert all(abs(x) < 1 for x in u) and any(u)
        assert all(sum(c * x for c, x in zip(col, u)).denominator == 1 for col in y)


FIELDS = [sqrt_field(d) for d in SQRT_DS] + [AlgebraicField(mp, iv) for mp, iv in CATALOG_FIELDS]


class TestFieldInverse:
    """AlgebraicScalar.inverse against sympy's inverse modulo the minimal
    polynomial, on Q(sqrt d) and the five catalog fields (degrees 2 to 4,
    monic and not)."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(range(len(FIELDS))), st.data())
    def test_against_sympy_invert(self, index, data):
        field = FIELDS[index]
        deg = field.degree
        coeffs = data.draw(st.lists(RATIONALS, min_size=deg, max_size=deg))
        if not any(coeffs):
            return
        x = sympy.Symbol("x")
        f = sum(sympy.Rational(c.numerator, c.denominator) * x ** i for i, c in enumerate(coeffs))
        g = sum(c * x ** i for i, c in enumerate(field.minpoly))
        want = sympy.Poly(sympy.invert(f, g), x).all_coeffs()[::-1]
        want += [0] * (deg - len(want))
        got = field.element(coeffs).inverse().coeffs
        assert [sympy.Rational(c.numerator, c.denominator) for c in got] == want


@st.composite
def integer_grams(draw):
    """Symmetric integer matrices n = 1..5, B B^t plus a diagonal shift that
    may leave them indefinite or singular."""
    n = draw(st.integers(1, 5))
    b = [[draw(SMALL) for _ in range(n)] for _ in range(n)]
    shift = draw(st.integers(-2, 3))
    return [[sum(x * y for x, y in zip(bi, bj)) + (shift if i == j else 0)
             for j, bj in enumerate(b)] for i, bi in enumerate(b)]


class TestLevels:
    """The Fincke-Pohst levels against sympy's trailing principal minors."""

    @settings(max_examples=150, deadline=None)
    @given(integer_grams(), st.lists(SMALL, min_size=5, max_size=5))
    def test_trailing_minors(self, m, v):
        n = len(m)
        minors = [sympy.Matrix(m)[k:, k:].det() if k < n else 1 for k in range(n + 1)]
        if any(d <= 0 for d in minors[:n]):
            with pytest.raises(ValueError):
                _levels(m)
            return
        levels = _levels(m)
        for k, (lo, hi, b) in enumerate(levels):
            assert (lo, hi) == (minors[k + 1], minors[k])
            assert len(b) == k
        v = v[:n]
        qv = sum(v[i] * m[i][j] * v[j] for i in range(n) for j in range(n))
        assert qv == sum(Fraction((hi * v[k] + sum(x * y for x, y in zip(b, v))) ** 2, lo * hi)
                         for k, (lo, hi, b) in enumerate(levels))

    def test_not_positive_definite(self):
        for m in ([[1, 2], [2, 1]], [[0]], [[1, 1], [1, 1]], [[-1]]):
            with pytest.raises(ValueError):
                _levels(m)


def test_field_rows_keep_the_isolating_interval():
    """Elimination tests zeros exactly and takes no sign: a Gauss-Jordan pass
    over Q(sqrt 2) leaves the field's interval as it was."""
    f = sqrt_field(2)
    w = f.generator()
    before = f.interval
    rows = [[1 + w, 2, w], [w, 3 - w, 1], [2 + 2 * w, 4, 2 * w]]
    assert rank(rows) == 2
    assert kernel(rows) and solve(rows, [1, w, 2]) is not None
    assert inverse([r[:2] for r in rows[:2]]) and determinant([r[:2] for r in rows[:2]])
    assert f.interval == before
