import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (PENCIL_SETS, TEST_FIELDS, as_array, closed_form_pencil,
                      draw_field_element, fraction_feasible_point, gram_schmidt_slice,
                      maximize_logdet_W, numpy_maximize_logdet_C, pencil_columns,
                      reference_exact_hull_weights)
from minitori.lattices import enumerate_norm
from minitori.optimize import (AffineSliceW, ConvergenceFailure, InfeasibleRegion,
                               NoCommonEllipsoid, build_slice, caratheodory_reduce,
                               exact_hull_weights, kkt_gap, maximize_logdet_C, pencil_maximize,
                               rank4_chart, rank4_lagrange, rank4_maximize, rank4_point,
                               rank4_quartic)
from minitori.scalars import isolate_real_roots, sqrt_field
from minitori.symmetric import (SymMatrix, determinant, inverse, is_positive_definite, rank,
                                rank_one_rows, trace_inner)

RANK5_Y = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (6, 12, -15), (6, 9, -12))
QUARTIC_Y = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (5, 7, 8))


def feasible_random_sets(seed, count, n=3, extra=1, want_s=None):
    """Seeded integer vector sets on which the slice has a PD point."""
    rng = random.Random(seed)
    out = []
    tries = 0
    while len(out) < count and tries < 3000:
        tries += 1
        cols = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        for _ in range(extra):
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if sum(abs(x) for x in v) < 2:
                break
            cols.append(v)
        if len(cols) != n + extra:
            continue
        if len({tuple(c) for c in cols} | {tuple(-x for x in c) for c in cols}) < 2 * len(cols):
            continue
        try:
            sl = build_slice(cols)
            if want_s is not None and sl.s != want_s:
                continue
            maximize_logdet_W(sl)
        except (InfeasibleRegion, NoCommonEllipsoid, ConvergenceFailure, ValueError):
            continue
        out.append(tuple(cols))
    return out


def spanning_sets(seed):
    """Seeded integer vector sets spanning Q^n, n = 2..5: six per n, half of
    them with n(n+1)/2 - 1 vectors (generically a one-dimensional slice)."""
    rng = random.Random(seed)
    out = []
    for n in range(2, 6):
        dim = n * (n + 1) // 2
        for k in range(6):
            count = dim - 1 if k % 2 == 0 else rng.randint(n, dim + 1)
            cols = []
            while len(cols) < count or rank(cols) < n:
                if len(cols) == count:
                    cols = []
                cols.append(tuple(rng.randint(-3, 3) for _ in range(n)))
            out.append(cols)
    return out + [pencil_columns(name) for name in sorted(PENCIL_SETS)]


SLICE_SETS = spanning_sets(20261018)


class TestBuildSlice:
    def test_matches_the_gram_schmidt_oracle(self):
        ones = 0
        for cols in SLICE_SETS:
            want = gram_schmidt_slice(cols)
            if want is None:
                with pytest.raises(NoCommonEllipsoid):
                    build_slice(cols)
                continue
            sl = build_slice(cols)
            assert sl.q0 == want[0]
            assert sl.s == len(want[1])
            if sl.s == 1:  # the primitive generator is unique up to sign
                ones += 1
                assert sl.basis == want[1]
        assert ones >= 12

    def test_basis_is_a_primitive_integer_kernel_basis(self):
        for cols in SLICE_SETS:
            try:
                sl = build_slice(cols)
            except NoCommonEllipsoid:
                continue
            n = sl.n
            ms = [SymMatrix.rank_one(c) for c in cols]
            span = rank([[trace_inner(a, b) for b in ms] for a in ms])
            assert sl.s == n * (n + 1) // 2 - span
            for b in sl.basis:
                coords = [b.entries[i][k] for i in range(n) for k in range(i, n)]
                assert all(x.denominator == 1 for x in coords)
                assert math.gcd(*(x.numerator for x in coords)) == 1
                assert next(x for x in coords if x) > 0
                assert all(b.quad_form(c) == 0 for c in cols)
            flat = [[x for row in b.entries for x in row] for b in sl.basis]
            assert not flat or rank(flat) == sl.s

    def test_standard_basis(self):
        sl = build_slice([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert sl.q0 == SymMatrix.identity(3)
        assert sl.s == 3

    def test_rank5_matches_published_matrices(self):
        sl = build_slice(RANK5_Y)
        q0 = SymMatrix([[1, Fraction(-343, 1233), Fraction(397, 1233)],
                        [Fraction(-343, 1233), 1, Fraction(1048, 1233)],
                        [Fraction(397, 1233), Fraction(1048, 1233), 1]])
        q1 = SymMatrix([[0, 10, 6], [10, 0, 1], [6, 1, 0]])
        assert sl.q0 == q0
        assert sl.basis == (q1,)

    def test_rank6_unique_solution_oracle(self, rng):
        found = 0
        attempts = 0
        while found < 3 and attempts < 200:
            attempts += 1
            cols = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(7)]
            ms = [SymMatrix.rank_one(c) for c in cols]
            try:
                sl = build_slice(cols)
            except (NoCommonEllipsoid, ValueError):
                continue
            if sl.s != 0:
                continue
            found += 1
            for m in ms:
                assert trace_inner(sl.q0, m) == 1

    def test_constraints_hold(self):
        for y in (RANK5_Y, QUARTIC_Y):
            sl = build_slice(y)
            for c in y:
                m = SymMatrix.rank_one(c)
                assert trace_inner(sl.q0, m) == 1
                for b in sl.basis:
                    assert trace_inner(b, m) == 0

    def test_inconsistent_system(self):
        # e1 appears with two different required norms via 2*e1
        with pytest.raises(NoCommonEllipsoid):
            build_slice([(1, 0), (2, 0), (0, 1)])

    def test_rank_deficient_y(self):
        with pytest.raises(ValueError):
            build_slice([(1, 0, 0), (0, 1, 0), (1, 1, 0)])


class TestMaximizeW:
    def test_identity_slice(self):
        sl = build_slice([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        q = maximize_logdet_W(sl)
        assert np.allclose(as_array(q), np.eye(3), atol=1e-12)

    def test_quartic_matches_catalog(self):
        from minitori.constructions import catalog
        ref = as_array(catalog("quartic-s7").q)
        got = as_array(maximize_logdet_W(build_slice(QUARTIC_Y)))
        assert np.max(np.abs(got - ref)) <= 1e-8

    def test_degenerate_pattern_infeasible(self):
        y = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
        sl = build_slice(y)
        assert sl.s == 0
        assert determinant(sl.q0) == 0
        with pytest.raises(InfeasibleRegion):
            maximize_logdet_W(sl)

    def test_multistart_uniqueness(self):
        rng = np.random.default_rng(17)
        for y in feasible_random_sets(seed=100, count=4):
            sl = build_slice(y)
            base = as_array(maximize_logdet_W(sl))
            for _ in range(5):
                init = rng.normal(scale=0.1, size=sl.s)
                other = as_array(maximize_logdet_W(sl, initial=init))
                assert np.max(np.abs(other - base)) <= 1e-8

    def test_stationarity(self):
        for y in (RANK5_Y, QUARTIC_Y):
            sl = build_slice(y)
            q = maximize_logdet_W(sl)
            qinv = np.linalg.inv(as_array(q))
            for b in sl.basis:
                assert abs(np.tensordot(qinv, as_array(b))) <= 1e-9


class TestMaximizeC:
    def test_clifford(self):
        hp = maximize_logdet_C([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert hp.weights == (Fraction(1, 3),) * 3
        assert hp.p == SymMatrix.identity(3).scale(Fraction(1, 3))

    def test_rank5_weights_match_catalog(self):
        from minitori.constructions import catalog
        data = catalog("quadratic-s9")
        hp = maximize_logdet_C(RANK5_Y, tol=1e-10, max_iter=500)
        for got, want in zip(hp.weights, data.weights):
            assert abs(float(got) - float(want)) <= 1e-8
        qinv3 = inverse(data.q).scale(data.q.entries[0][0].field.from_rational(Fraction(1, 3)))
        for i in range(3):
            for j in range(3):
                assert abs(float(hp.p.entries[i][j]) - float(qinv3.entries[i][j])) <= 1e-8

    def test_kkt_certificate_random(self, rng):
        for _ in range(10):
            n = rng.choice([2, 3])
            cols = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
            for _ in range(rng.randint(1, 3)):
                cols.append(tuple(rng.randint(-3, 3) for _ in range(n)))
            if any(not any(c) for c in cols):
                continue
            try:
                hp = maximize_logdet_C(cols, tol=1e-10, max_iter=400)
            except InfeasibleRegion:
                continue
            assert kkt_gap(hp) <= 1e-8
            # support points land on the hyper-ellipsoid of (n P)^{-1}
            pinv = np.linalg.inv(as_array(hp.p))
            for j in hp.support:
                v = np.array(hp.support and cols[j])
                assert abs(v @ pinv @ v - n) <= 1e-6

    def test_grid_oracle_n2(self):
        cols = ((1, 0), (0, 1), (2, 1))
        hp = maximize_logdet_C(cols, tol=1e-12, max_iter=500)
        # dense simplex grid with step 1e-3 (independent oracle)
        ms = [np.outer(c, c).astype(float) for c in cols]
        step = 1000
        best, best_det = None, -1.0
        for i in range(step + 1):
            for j in range(step + 1 - i):
                k = step - i - j
                p = (i * ms[0] + j * ms[1] + k * ms[2]) / step
                d = p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]
                if d > best_det:
                    best_det, best = d, (i / step, j / step, k / step)
        got = [float(w) for w in hp.weights]
        assert max(abs(a - b) for a, b in zip(got, best)) <= 1e-3 + 1e-4
        assert float(determinant(hp.p)) >= best_det - 1e-9

    def test_rank_deficient_hull(self):
        with pytest.raises(InfeasibleRegion):
            maximize_logdet_C([(1, 0), (2, 0)])

    def test_duality_consistency(self):
        for y in (RANK5_Y, QUARTIC_Y, ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            qstar = as_array(maximize_logdet_W(build_slice(y)))
            hp = maximize_logdet_C(y, tol=1e-10, max_iter=500)
            assert np.max(np.abs(as_array(hp.p) - np.linalg.inv(qstar) / 3)) <= 1e-8


class TestHullMaximizerOracle:
    """The plain-Python hull maximizer against the numpy one it replaced."""

    def test_matches_the_numpy_maximizer(self):
        rng = random.Random(41)
        compared = 0
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            cols = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
            cols += [tuple(rng.randint(-3, 3) for _ in range(n))
                     for _ in range(rng.randint(1, 2 * n))]
            if any(not any(c) for c in cols):
                continue
            hp = maximize_logdet_C(cols, tol=1e-10, max_iter=400)
            assert kkt_gap(hp) <= 1e-10
            try:
                ref = numpy_maximize_logdet_C(cols, tol=1e-10, max_iter=400)
            except (ConvergenceFailure, np.linalg.LinAlgError):
                continue  # the numpy maximizer fails on 2 of the 57 sets
            assert np.max(np.abs(as_array(hp.p) - as_array(ref.p))) <= 1e-8
            compared += 1
        assert compared >= 50

    def test_one_class_twice_in_the_support(self):
        # (1, 0) and (-1, 0) are one +- class: the split of its weight is not
        # unique and the bordered Newton system is singular
        hp = maximize_logdet_C([(1, 0), (0, 1), (-1, 0), (1, 1)])
        assert kkt_gap(hp) <= 1e-10
        assert abs(float(hp.weights[0] + hp.weights[2]) - 1 / 3) <= 1e-9


def pencil_sets(seed, count, n):
    """Seeded one-dimensional slices through the standard basis plus vectors
    from {-1, 0, 1}^n on which `pencil_maximize` finds a maximizer."""
    rng = random.Random(seed)
    out = []
    for _ in range(300):
        cols = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        cols += [tuple(rng.randint(-1, 1) for _ in range(n))
                 for _ in range(n * (n + 1) // 2 - 1 - n)]
        try:
            sl = build_slice(cols)
        except ValueError:  # NoCommonEllipsoid, or rank(Y) < n
            continue
        if sl.s != 1:
            continue
        try:
            out.append((sl, pencil_maximize(sl)))
        except InfeasibleRegion:
            continue
        if len(out) == count:
            break
    return out


class TestPencil:
    def test_trivial_line(self):
        q1 = SymMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        sl = AffineSliceW(q0=SymMatrix.identity(3), basis=(q1,),
                          y=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        res = pencil_maximize(sl)
        assert res.t0 == 0
        assert res.degree == 1

    def test_rank5_exact(self):
        res = pencil_maximize(build_slice(RANK5_Y))
        f = res.t0.field
        assert tuple(f.minpoly) == (-10801, 0, 1)
        w = f.generator()
        want = (Fraction(39337) - 137 * w) / 443880
        assert (res.t0 - want).is_zero()
        assert res.degree == 2
        assert is_positive_definite(res.qstar) is True

    def test_matches_the_closed_form(self):
        sets = feasible_random_sets(seed=302, count=10, extra=2, want_s=1)
        assert len(sets) == 10
        degrees = set()
        for y in sets:
            sl = build_slice(y)
            res = pencil_maximize(sl)
            assert (res.t0, res.qstar, res.degree) == closed_form_pencil(sl)
            degrees.add(res.degree)
        assert degrees == {1, 2}

    def test_cross_check_with_newton(self):
        sets = feasible_random_sets(seed=300, count=4, extra=2, want_s=1)
        assert len(sets) >= 2
        for y in sets:
            sl = build_slice(y)
            res = pencil_maximize(sl)
            qn = as_array(maximize_logdet_W(sl, tol=1e-12, max_iter=400))
            qa = as_array(sl.q0) + float(res.t0) * as_array(sl.basis[0])
            assert np.max(np.abs(qa - qn)) <= 1e-9

    def test_n4_pencils_match_newton(self):
        sets = pencil_sets(seed=10, count=4, n=4)
        assert {res.degree for _, res in sets} == {1, 2, 3}  # a cubic factor of p' too
        compared = 0
        for sl, res in sets:
            assert is_positive_definite(res.qstar) is True
            try:
                qn = as_array(maximize_logdet_W(sl, tol=1e-12, max_iter=400))
            except np.linalg.LinAlgError:  # a singular Newton system on some n = 4 slices
                continue
            qa = as_array(sl.q0) + float(res.t0) * as_array(sl.basis[0])
            assert np.max(np.abs(qa - qn)) <= 1e-9
            compared += 1
        assert compared >= 3

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            pencil_maximize(build_slice(QUARTIC_Y))  # s = 2


def _stationary(r, a, b, c) -> bool:
    """det [[1,a,b],[a,1,c],[b,c,1]] is stationary on the slice through r:
    its gradient (bc - a, ac - b, ab - c), halved, is parallel to the
    slice normal (r1 r2, r1 r3, r2 r3), and the point lies on the slice."""
    g = (b * c - a, a * c - b, a * b - c)
    nv = (r[0] * r[1], r[0] * r[2], r[1] * r[2])
    cross = (g[1] * nv[2] - g[2] * nv[1], g[2] * nv[0] - g[0] * nv[2],
             g[0] * nv[1] - g[1] * nv[0])
    on_slice = sum(x * x for x in r) + 2 * (a * nv[0] + b * nv[1] + c * nv[2]) - 1
    return all(x == 0 for x in cross) and on_slice == 0


def rank4_sets():
    """Four integer vectors in [-4, 4]^3 with rank{Y_j Y_j^t} = 4 (s = 2)."""
    vectors = st.tuples(*[st.integers(-4, 4)] * 3)
    return st.lists(vectors, min_size=4, max_size=4).filter(
        lambda cols: rank(rank_one_rows(cols)) == 4)


class TestRank4:
    def test_block_diagonal_branch(self):
        r = (Fraction(1), Fraction(0), Fraction(1))
        assert tuple(rank4_lagrange(r)) == (0,)
        point = rank4_point(r, Fraction(0))
        assert point == (0, Fraction(-1, 2), 0)
        assert _stationary(r, *point)

    def test_known_point_among_candidates(self):
        from minitori.constructions import catalog
        ref = catalog("quartic-s7").q
        r = (Fraction(5), Fraction(7), Fraction(8))
        hits = [(a, b, c) for a, b, c in (rank4_point(r, a) for a in rank4_lagrange(r))
                if SymMatrix([[1, a, b], [a, 1, c], [b, c, 1]]) == ref]
        assert len(hits) == 1
        a = hits[0][0]
        assert a.field.minpoly == rank4_quartic(r)
        assert abs(float(a) - (-0.149201)) <= 1e-6

    def test_quartic_coefficients_scale(self):
        # the stationarity polynomial for (5,7,8) equals the published example
        # polynomial up to sign normalization (content 1, positive leading)
        q = rank4_quartic((5, 7, 8))
        paper = (1507, 10730, 1079, -23240, -14700)
        assert q == tuple(-x for x in paper)

    def test_random_candidates_are_stationary(self, rng):
        checked = 0
        for _ in range(6):
            r = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(3))
            roots = tuple(rank4_lagrange(r))
            assert len(roots) == len(isolate_real_roots(rank4_quartic(r)))
            assert [float(a) for a in roots] == sorted(float(a) for a in roots)
            for a in roots:
                assert _stationary(r, *rank4_point(r, a))
                checked += 1
        assert checked

    def test_requires_nonzero_r1_r3(self):
        with pytest.raises(ValueError):
            rank4_lagrange((0, 1, 1))

    @settings(max_examples=40, deadline=None)
    @given(rank4_sets())
    def test_at_most_one_candidate_is_positive_definite(self, cols):
        # logdet is strictly concave on the positive definite part of the
        # slice, so the first positive definite candidate is the only one
        chart = rank4_chart(cols)
        try:
            roots = rank4_lagrange(chart.r)
        except ValueError:  # a degenerate stationarity polynomial
            return
        pd = [a for a in roots if is_positive_definite(chart.at(a)) is True]
        assert len(pd) <= 1
        if pd:
            crit = rank4_maximize(chart)
            assert (crit.t0, crit.qstar) == (pd[0], chart.at(pd[0]))
            for c in cols:
                assert crit.qstar.quad_form(c) == 1


def _check_reduction(cols, weights) -> list:
    """`caratheodory_reduce(cols, weights)`, checked: nonnegative weights, at
    most n(n+1)/2 of them nonzero, with the same sum P = sum w_j Y_j Y_j^t,
    and for N > n(n+1)/2 a basic solution (its Y_j Y_j^t linearly
    independent); for N <= n(n+1)/2 the weights themselves.  Float weights
    come back as the exact reduction of the lifted weights, each rounded
    once."""
    n = len(cols[0])
    bound = n * (n + 1) // 2
    out = caratheodory_reduce(cols, weights)
    if any(isinstance(w, float) for w in weights):
        weights = [Fraction(w) for w in weights]
        exact = caratheodory_reduce(cols, weights)
        assert out == [float(w) for w in exact]
        out = exact
    keep = [j for j, w in enumerate(out) if w]
    assert all(out[j] > 0 for j in keep)
    assert len(keep) <= bound
    assert _weighted_sum(cols, out) == _weighted_sum(cols, weights)
    if len(cols) > bound:
        assert rank(rank_one_rows([cols[j] for j in keep])) == len(keep)
    else:
        assert out == list(weights)
    return out


@st.composite
def reduction_problems(draw):
    """A full shell of Z^n (norm 1, 2 or 3) or random integer Y (n ..
    n(n+1)/2 + 4 nonzero vectors), spanning, n = 2 .. 5, with positive weights:
    rationals, elements of Q(sqrt 2) or floats."""
    n = draw(st.integers(2, 5))
    vector = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    shell = st.integers(1, 3).map(lambda k: enumerate_norm(SymMatrix.identity(n), k).classes)
    cols = draw((shell | st.lists(vector, min_size=n, max_size=n * (n + 1) // 2 + 4))
                .filter(lambda c: c and rank(c) == n))  # Z^2 has no class of norm 3
    kind = draw(st.sampled_from(["rational", "sqrt2", "float"]))
    if kind == "float":
        return cols, draw(st.lists(st.floats(1e-3, 1e3), min_size=len(cols),
                                   max_size=len(cols)))
    ratio = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
    weights = draw(st.lists(ratio, min_size=len(cols), max_size=len(cols)))
    if kind == "sqrt2":  # the simplex takes certified signs in Q(sqrt 2)
        root2 = sqrt_field(2).generator()
        weights = [root2 * w + draw(ratio) for w in weights]
    return cols, weights


class TestCaratheodory:
    def test_already_small(self):
        weights = [Fraction(1, 2), Fraction(1, 2)]
        assert _check_reduction(((1, 0), (0, 1)), weights) == weights

    def test_spec_n2_example(self):
        _check_reduction(((1, 0), (0, 1), (1, 1), (1, -1)), [Fraction(1, 4)] * 4)

    def test_pythagorean_homogeneous(self):
        from minitori.constructions import pythagorean_columns
        out = _check_reduction(pythagorean_columns(3, 4, 5),
                               [Fraction(1, 8)] * 4 + [Fraction(1, 16)] * 8)
        assert sum(out) == 1  # every Y_j Y_j^t lies on <Q, .> = 1

    @settings(max_examples=60, deadline=None)
    @given(reduction_problems())
    def test_basic_solution_with_the_same_sum(self, problem):
        _check_reduction(*problem)

    def test_never_grows_support(self, rng):
        for _ in range(5):
            cols = [tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(6)]
            cols = [c for c in cols if any(c)]
            _check_reduction(cols, [Fraction(1, len(cols))] * len(cols))


@st.composite
def hull_problems(draw):
    """Integer Y (n = 2, 3; N = n .. n(n+1)/2 + 3 nonzero vectors) and a
    target P over a field Q(w): sum c_j Y_j Y_j^t with c_j >= 0 (some zero, so
    P is often on a face of the cone); that sum with one coordinate shifted
    by a field element (either verdict); or with P_11 set to a negative
    element, outside the positive semidefinite cone and so infeasible."""
    n = draw(st.integers(2, 3))
    size = draw(st.integers(n, n * (n + 1) // 2 + 3))
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    cols = tuple(tuple(v) for v in draw(st.lists(vector, min_size=size, max_size=size)))
    field = draw(st.sampled_from(TEST_FIELDS))()
    coeffs = [draw_field_element(draw, field, nonnegative=True) for _ in cols]
    values = SymMatrix.rank_one_sum(cols, coeffs).upper()
    kind = draw(st.sampled_from(["combination", "shifted", "negative"]))
    if kind == "shifted":
        i = draw(st.integers(0, len(values) - 1))
        values[i] = values[i] + draw_field_element(draw, field)
    elif kind == "negative":
        values[0] = -abs(draw_field_element(draw, field)) - field.from_rational(Fraction(1, 7))
    return cols, SymMatrix.from_upper(values), kind


class TestExactHullWeights:
    """One integer LP decides hull membership for a rational or an algebraic
    P, against the subset enumeration it replaced (`conftest`)."""

    @settings(max_examples=150, deadline=None)
    @given(hull_problems())
    def test_against_the_subset_enumeration(self, problem):
        cols, p, kind = problem
        lam = exact_hull_weights(cols, p)
        ref = reference_exact_hull_weights(cols, p)
        assert (lam is None) == (ref is None)
        if kind == "combination":
            assert lam is not None
        if kind == "negative":
            assert lam is None
        if lam is None:
            return
        assert SymMatrix.rank_one_sum(cols, lam) == p
        assert all(x.sign() >= 0 for x in lam)
        if rank(rank_one_rows(cols)) == len(cols):
            assert lam == ref  # independent rank-one rows: the weights are unique

    @settings(max_examples=100, deadline=None)
    @given(hull_problems(), st.integers(1, 6))
    def test_rational_target_is_the_fraction_tableau(self, problem, den):
        cols, p, _ = problem
        q = SymMatrix.from_upper([Fraction(round(float(x) * den), den) for x in p.upper()])
        want = fraction_feasible_point(list(zip(*rank_one_rows(cols))), q.upper())
        assert exact_hull_weights(cols, q) == want

    def test_float_target_raises(self):
        with pytest.raises(TypeError):
            exact_hull_weights(((1, 0), (0, 1)), SymMatrix([[0.5, 0.0], [0.0, 0.5]]))


def _weighted_sum(cols, weights):
    acc = None
    for w, c in zip(weights, cols):
        term = SymMatrix.rank_one(c).scale(w)
        acc = term if acc is None else acc + term
    return acc
