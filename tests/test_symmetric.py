import math
import random
from fractions import Fraction

import numpy as np
import pytest

from minitori.scalars import sqrt_field
from minitori.symmetric import SymMatrix, determinant, inverse, is_positive_definite, trace_inner
from conftest import matmul, random_rational_pd, sympy_rank


class TestTraceInner:
    def test_identity(self):
        i3 = SymMatrix.identity(3)
        assert trace_inner(i3, i3) == 3

    def test_inverse_pairing(self, rng):
        for n in (2, 3, 4):
            q = random_rational_pd(rng, n)
            assert trace_inner(q, inverse(q)) == n

    def test_diag_against_offdiag(self):
        d = SymMatrix.diag([1, 2])
        off = SymMatrix([[0, 1], [1, 0]])
        # tr(diag(1,2) . offdiag) expands to 0 by hand
        assert trace_inner(d, off) == 0

    def test_bilinearity(self, rng):
        for _ in range(10):
            a = random_rational_pd(rng, 3)
            b = random_rational_pd(rng, 3)
            c = random_rational_pd(rng, 3)
            al = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            be = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            lhs = trace_inner(a.scale(al) + b.scale(be), c)
            rhs = al * trace_inner(a, c) + be * trace_inner(b, c)
            assert lhs == rhs

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_inner(SymMatrix.identity(2), SymMatrix.identity(3))


class TestPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(SymMatrix.identity(3)) is True

    def test_indefinite_diag(self):
        assert is_positive_definite(SymMatrix.diag([1, -1])) is False

    def test_degenerate_half_matrix(self):
        # diagonal 1, off-diagonal -1/2: determinant zero by cofactor expansion
        h = Fraction(-1, 2)
        m = SymMatrix([[1, h, h], [h, 1, h], [h, h, 1]])
        assert determinant(m) == 0
        assert is_positive_definite(m) is False

    def test_float_borderline_indeterminate(self):
        eps = 1e-16
        m = SymMatrix([[1.0, 1.0], [1.0, 1.0 + eps]])
        assert is_positive_definite(m) is None

    def test_float_clear_cases(self):
        assert is_positive_definite(SymMatrix([[2.0, 0.1], [0.1, 3.0]])) is True
        assert is_positive_definite(SymMatrix([[1.0, 2.0], [2.0, 1.0]])) is False

    def test_algebraic_certified(self):
        w = sqrt_field(2).generator()
        f = w.field
        m = SymMatrix([[f.from_rational(2), w], [w, f.from_rational(2)]])  # eigs 2 +- sqrt2
        assert is_positive_definite(m) is True
        m2 = SymMatrix([[f.from_rational(1), w], [w, f.from_rational(1)]])  # det = 1 - 2 < 0
        assert is_positive_definite(m2) is False


class TestInverse:
    def test_diag(self):
        assert inverse(SymMatrix.diag([1, 4])) == SymMatrix.diag([1, Fraction(1, 4)])

    def test_random_multiply_oracle(self, rng):
        for _ in range(5):
            q = random_rational_pd(rng, 4)
            prod = matmul(q, inverse(q))
            for i in range(4):
                for j in range(4):
                    assert prod[i][j] == (1 if i == j else 0)

    def test_matmul_refuses_floats(self):
        exact = SymMatrix.identity(2)
        floats = SymMatrix([[1.0, 0.5], [0.5, 1.0]])
        for a, b in ((floats, exact), (exact, floats)):
            with pytest.raises(TypeError):
                matmul(a, b)

    def test_involution(self, rng):
        q = random_rational_pd(rng, 3)
        assert inverse(inverse(q)) == q

    def test_singular(self):
        with pytest.raises(ValueError):
            inverse(SymMatrix([[1, 1], [1, 1]]))

    def test_algebraic_inverse_round_trip(self):
        from minitori.constructions import catalog
        data = catalog("quadratic-s9")
        qinv = inverse(data.q)
        prod = matmul(data.q, qinv)
        for i in range(3):
            for j in range(3):
                want = 1 if i == j else 0
                assert (prod[i][j] - want).is_zero()
        # unit norms survive the round trip far below 1e-10
        for c in data.y:
            assert abs(float(data.q.quad_form(c)) - 1.0) <= 1e-15


# ---------------------------------------------------------------------------
# the exact elimination kernel, against sympy

import sympy  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from minitori.symmetric import kernel, rank, solve  # noqa: E402

RATIONALS = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


def _rows(r: int, c: int):
    return st.lists(st.lists(RATIONALS, min_size=c, max_size=c), min_size=r, max_size=r)


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def matrices(draw, square: bool = False):
    """Rational row lists, often rank deficient (a product through k <= min(r, c))."""
    r = draw(st.integers(1, 5))
    c = r if square else draw(st.integers(1, 5))
    if draw(st.booleans()):
        return draw(_rows(r, c))
    k = draw(st.integers(1, min(r, c)))
    return _product(draw(_rows(r, k)), draw(_rows(k, c)))


def _sym(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def _frac(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


class TestEliminationKernel:
    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_rank(self, rows):
        assert rank(rows) == _sym(rows).rank()

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.data())
    def test_solve(self, rows, data):
        rhs = data.draw(st.lists(RATIONALS, min_size=len(rows), max_size=len(rows)))
        a = _sym(rows)
        b = _sym([[x] for x in rhs])
        x = solve(rows, rhs)
        if a.rank() < a.row_join(b).rank():
            assert x is None
            return
        assert all(type(v) is Fraction for v in x)
        assert _product(rows, [[v] for v in x]) == [[v] for v in rhs]
        _, pivots = a.rref()
        assert all(x[j] == 0 for j in range(len(x)) if j not in pivots)  # free variables 0

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_kernel_vector(self, rows):
        basis = kernel(rows)
        # sympy's basis vectors are 1 at their own free column, 0 at the others
        assert basis == [[_frac(v) for v in z] for z in _sym(rows).nullspace()]
        for z in basis:
            assert _product(rows, [[v] for v in z]) == [[0]] * len(rows)

    @settings(max_examples=60, deadline=None)
    @given(matrices(square=True))
    def test_determinant(self, rows):
        assert determinant(rows) == _frac(_sym(rows).det())

    @settings(max_examples=60, deadline=None)
    @given(matrices(square=True))
    def test_inverse(self, rows):
        a = _sym(rows)
        if a.det() == 0:
            with pytest.raises(ValueError):
                inverse(rows)
            return
        assert inverse(rows) == [[_frac(v) for v in row] for row in a.inv().tolist()]

    def test_integer_entries_are_lifted(self):
        assert determinant([[1, 2], [3, 4]]) == -2
        assert solve([[2, 0], [0, 3]], [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]
        assert inverse([[2, 0], [0, 4]]) == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]


def _sqrt2_matrix(rng: random.Random, n: int):
    f = sqrt_field(2)
    w = f.generator()
    return [[rng.randint(-3, 3) + rng.randint(-3, 3) * w for _ in range(n)] for _ in range(n)]


class TestEliminationOverSqrt2:
    def test_inverse_round_trip(self, rng):
        done = 0
        while done < 10:
            a = _sqrt2_matrix(rng, rng.randint(1, 4))
            if not determinant(a):
                continue
            n = len(a)
            for p in (_product(a, inverse(a)), _product(inverse(a), a)):
                assert all(not (p[i][j] - (1 if i == j else 0))
                           for i in range(n) for j in range(n))
            done += 1

    def test_determinant_is_multiplicative(self, rng):
        for _ in range(10):
            n = rng.randint(1, 4)
            a, b = _sqrt2_matrix(rng, n), _sqrt2_matrix(rng, n)
            assert determinant(_product(a, b)) == determinant(a) * determinant(b)

    def test_solve_returns_field_elements(self):
        w = sqrt_field(2).generator()
        x = solve([[1, 0], [0, 1]], [w, 3 + 0 * w])
        assert x == [w, 3] and all(isinstance(v, type(w)) for v in x)


ENTRIES = {
    "int": st.integers(-6, 6),
    "fraction": RATIONALS,
    "float": st.floats(-8, 8, allow_nan=False, allow_infinity=False),
    "mixed": st.one_of(st.integers(-6, 6), RATIONALS),
}


@st.composite
def rank_rows(draw):
    """int, Fraction, float or mixed rows, possibly empty, often rank
    deficient: a product through k <= min(r, c), with zero and repeated rows."""
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    rows = [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)]
    if r and c and draw(st.booleans()):
        k = draw(st.integers(1, min(r, c)))
        rows = _product([draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(r)],
                        [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(k)])
    for _ in range(draw(st.integers(0, 2)) if r else 0):
        row = rows[draw(st.integers(0, r - 1))]
        if draw(st.booleans()):
            rows.append([x * 0 for x in row])
        else:
            rows.append([x * draw(entry) for x in row])
    return rows


class TestRankOracle:
    """The fraction-free integer rank against sympy's exact rank."""

    @settings(max_examples=150, deadline=None)
    @given(rank_rows())
    def test_matches_sympy(self, rows):
        assert rank(rows) == sympy_rank(rows)

    def test_shapes(self):
        assert rank([]) == rank([[]]) == rank([[], []]) == 0
        assert rank([[0, 0], [0.0, Fraction(0)]]) == 0
        assert rank([[10**40, 1], [10**40 + 1, 1]]) == 2
        assert rank([[0.1, 0.3], [1, 3]]) == 2  # binary 0.3 is not 3 * 0.1
        assert rank([[0.1, 0.2], [1, 2]]) == 1  # binary 0.2 is 2 * 0.1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_floats_raise_as_before(self, bad):
        rows = [[1.0, bad], [2.0, 3.0]]
        with pytest.raises(Exception) as got:
            rank(rows)
        with pytest.raises(Exception) as want:
            sympy_rank(rows)
        assert (got.type, str(got.value)) == (want.type, str(want.value))


class TestPositiveDefiniteLeadingMinors:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_matches_sympy_leading_minors(self, n, data):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = data.draw(RATIONALS)
        for i in range(n):
            rows[i][i] += data.draw(st.integers(0, 3))
        a = _sym(rows)
        want = all(a[:k, :k].det() > 0 for k in range(1, n + 1))
        assert is_positive_definite(SymMatrix(rows)) is want


class TestIntegerDeterminant:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_bareiss_matches_sympy(self, rows):
        d = determinant(rows)
        assert type(d) is int
        assert d == sympy.Matrix(rows).det()

    def test_rank_deficient_and_row_exchange(self):
        assert determinant([[0, 1], [1, 0]]) == -1
        assert determinant([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 0
        assert determinant([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30


# ---------------------------------------------------------------------------
# the float regime without numpy

from conftest import numpy_float_pd  # noqa: E402
from minitori.symmetric import FLOAT_PD_TOL  # noqa: E402

FLOAT_ENTRIES = st.one_of(st.integers(-3, 3).map(float),
                          st.floats(-4, 4, allow_nan=False, allow_infinity=False))


@st.composite
def float_grams(draw):
    """Symmetric float row lists, n = 1..6, scaled by 10^-8, 1 or 10^8.

    Either B B^t for an n x k matrix B, rank deficient when k < n, with the
    diagonal shifted by a multiple of FLOAT_PD_TOL times its largest entry (so
    pivots land inside, at the edge of or just outside the band), or any
    symmetric matrix.
    """
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        b = [[draw(FLOAT_ENTRIES) for _ in range(k)] for _ in range(n)]
        rows = [[sum((x * y for x, y in zip(bi, bj)), 0.0) for bj in b] for bi in b]
        big = max(abs(rows[i][i]) for i in range(n)) or 1.0
        shift = draw(st.sampled_from((0.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 10.0)))
        for i in range(n):
            rows[i][i] += shift * FLOAT_PD_TOL * big
    else:
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(FLOAT_ENTRIES)
    scale = draw(st.sampled_from((1e-8, 1.0, 1e8)))
    return [[x * scale for x in row] for row in rows]


class TestFloatPositiveDefinite:
    @settings(max_examples=400, deadline=None)
    @given(float_grams())
    def test_matches_the_numpy_ldlt(self, rows):
        assert is_positive_definite(SymMatrix(rows)) is numpy_float_pd(rows)

    def test_every_verdict_occurs(self):
        band = 0.5 * FLOAT_PD_TOL
        for rows, verdict in (([[1e8, 0.0], [0.0, 1e8 * band]], None),
                              ([[1e-8, 1e-8], [1e-8, 1e-8]], None),
                              ([[1.0, 2.0], [2.0, 1.0]], False),
                              ([[2e-8, 1e-8], [1e-8, 2e-8]], True)):
            assert numpy_float_pd(rows) is verdict
            assert is_positive_definite(SymMatrix(rows)) is verdict


class TestNumpyScalars:
    """numpy scalars are recognised through the numbers ABCs."""

    def test_integers_give_the_rational_regime(self):
        m = SymMatrix([[np.int64(2), np.int64(-1)], [np.int64(-1), np.int64(3)]])
        assert m.regime == "rational"
        assert m == SymMatrix([[2, -1], [-1, 3]])
        assert all(type(x) is Fraction for row in m.entries for x in row)

    def test_floats_give_the_float_regime(self):
        for t in (np.float64, np.float32):
            m = SymMatrix([[t(2.5), t(1.0)], [t(1.0), t(3.0)]])
            assert m.regime == "float"
            assert m == SymMatrix([[2.5, 1.0], [1.0, 3.0]])
            assert all(type(x) is float for row in m.entries for x in row)


# ---------------------------------------------------------------------------
# float inverse and determinant: the exact ones rounded once

from conftest import lapack_determinant, lapack_inverse  # noqa: E402


def _rounded(x) -> float:
    """A sympy rational rounded once to a float (int / int rounds correctly),
    an infinity beyond the float range."""
    try:
        return int(x.p) / int(x.q)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _sympy_lift(rows):
    return sympy.Matrix([[sympy.Rational(*x.as_integer_ratio()) for x in row] for row in rows])


@st.composite
def well_conditioned_grams(draw):
    """Symmetric float row lists, n = 1..6, with a diagonal that dominates
    every row by at least 1, scaled by 10^-8, 1 or 10^8."""
    n = draw(st.integers(1, 6))
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.floats(-1, 1, allow_nan=False))
    for i in range(n):
        rows[i][i] = draw(st.sampled_from((1.0, -1.0))) * (
            sum(map(abs, rows[i])) + 1 + draw(st.floats(0, 2, allow_nan=False)))
    scale = draw(st.sampled_from((1e-8, 1.0, 1e8)))
    return [[x * scale for x in row] for row in rows]


class TestFloatInverseDeterminant:
    @settings(max_examples=150, deadline=None)
    @given(float_grams())
    def test_the_exact_lift_rounded_once(self, rows):
        m = SymMatrix(rows)
        exact = _sympy_lift(rows)
        det = exact.det()
        assert determinant(m) == _rounded(det)
        if det == 0:
            with pytest.raises(ValueError):
                inverse(m)
            return
        inv = exact.inv()
        assert inverse(m) == SymMatrix([[_rounded(inv[i, j]) for j in range(m.n)]
                                        for i in range(m.n)])

    @settings(max_examples=150, deadline=None)
    @given(well_conditioned_grams())
    def test_agrees_with_lapack(self, rows):
        m = SymMatrix(rows)
        ref = lapack_determinant(m)
        assert abs(determinant(m) - ref) <= 1e-12 * abs(ref)
        got, want = inverse(m), lapack_inverse(m)
        big = max(abs(x) for row in want.entries for x in row)
        assert all(abs(x - y) <= 1e-12 * big for row, wrow in zip(got.entries, want.entries)
                   for x, y in zip(row, wrow))

    def test_beyond_the_float_range(self):
        assert determinant(SymMatrix([[1e200, 0.0], [0.0, -1e200]])) == -math.inf
        assert inverse(SymMatrix([[1e-320]])) == SymMatrix([[math.inf]])
