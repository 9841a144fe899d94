import math
import random
from fractions import Fraction

import numpy as np
import pytest

from minitori.optimize import (AffineSliceW, ConvergenceFailure, HullPoint,
                               InfeasibleRegion, NoCommonEllipsoid,
                               build_slice, caratheodory_reduce, columns_from_matrix,
                               kkt_gap, maximize_logdet_C, maximize_logdet_W,
                               pencil_maximize, rank4_lagrange, rank4_quartic)
from minitori.scalars import sqrt_field
from minitori.symmetric import SymMatrix, determinant, inverse, is_positive_definite, trace_inner

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


class TestBuildSlice:
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
        assert np.allclose(q.to_numpy(), np.eye(3), atol=1e-12)

    def test_quartic_matches_catalog(self):
        from minitori.constructions import catalog
        ref = catalog("quartic-s7").q.to_numpy()
        got = maximize_logdet_W(build_slice(QUARTIC_Y)).to_numpy()
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
            base = maximize_logdet_W(sl).to_numpy()
            for _ in range(5):
                init = rng.normal(scale=0.1, size=sl.s)
                other = maximize_logdet_W(sl, initial=init).to_numpy()
                assert np.max(np.abs(other - base)) <= 1e-8

    def test_stationarity(self):
        for y in (RANK5_Y, QUARTIC_Y):
            sl = build_slice(y)
            q = maximize_logdet_W(sl)
            qinv = np.linalg.inv(q.to_numpy())
            for b in sl.basis:
                assert abs(np.tensordot(qinv, b.to_numpy())) <= 1e-9


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
            pinv = np.linalg.inv(hp.p.to_numpy())
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
            qstar = maximize_logdet_W(build_slice(y)).to_numpy()
            hp = maximize_logdet_C(y, tol=1e-10, max_iter=500)
            assert np.max(np.abs(hp.p.to_numpy() - np.linalg.inv(qstar) / 3)) <= 1e-8


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

    def test_cross_check_with_newton(self):
        sets = feasible_random_sets(seed=300, count=4, extra=2, want_s=1)
        assert len(sets) >= 2
        for y in sets:
            sl = build_slice(y)
            res = pencil_maximize(sl)
            qn = maximize_logdet_W(sl, tol=1e-12, max_iter=400).to_numpy()
            qa = sl.q0.to_numpy() + float(res.t0) * sl.basis[0].to_numpy()
            assert np.max(np.abs(qa - qn)) <= 1e-9

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            pencil_maximize(build_slice(QUARTIC_Y))  # s = 2


class TestRank4:
    def test_block_diagonal_branch(self):
        crit = rank4_lagrange((1, 0, 1))
        assert crit.degree1
        (a, b, c), = crit.candidates
        assert (a, c) == (0.0, 0.0)
        assert abs(b - (-0.5)) < 1e-15

    def test_known_point_among_candidates(self):
        from minitori.constructions import catalog
        ref = catalog("quartic-s7").q.to_numpy()
        crit = rank4_lagrange((5, 7, 8))
        hits = [cand for cand in crit.candidates
                if abs(cand[0] - ref[0, 1]) <= 1e-8
                and abs(cand[1] - ref[0, 2]) <= 1e-8
                and abs(cand[2] - ref[1, 2]) <= 1e-8]
        assert len(hits) == 1

    def test_quartic_coefficients_scale(self):
        # the stationarity polynomial for (5,7,8) equals the published example
        # polynomial up to sign normalization (content 1, positive leading)
        q = rank4_quartic((5, 7, 8))
        paper = (1507, 10730, 1079, -23240, -14700)
        assert q == tuple(-x for x in paper)

    def test_random_candidates_are_stationary(self, rng):
        # exact-rational finite differences along the constraint tangents:
        # roundoff-free, so the 1e-9 bound reflects true stationarity
        from minitori.scalars import isolate_real_roots, refine_root

        def det(a, b, c):
            return 2 * a * b * c - a * a - b * b - c * c + 1

        for _ in range(6):
            r = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(3))
            crit = rank4_lagrange(r)
            if crit.degree1:
                continue
            g = (2 * r[0] * r[1], 2 * r[0] * r[2], 2 * r[1] * r[2])
            gg = sum(x * x for x in g)
            tangents = []
            for i in range(3):
                e = [Fraction(0)] * 3
                e[i] = Fraction(1)
                proj = g[i]
                d = tuple(e[k] - g[k] * proj / gg for k in range(3))
                if any(d):
                    tangents.append(d)
            eps = Fraction(1, 10**9)
            for lo, hi in isolate_real_roots(crit.quartic):
                lo2, hi2 = refine_root(crit.quartic, lo, hi, Fraction(1, 10**30))
                a = (lo2 + hi2) / 2
                den = 2 * a * r[0] * r[1] + r[0] ** 2 + r[1] ** 2
                if den == 0:
                    continue
                b, c = crit.b_of(a), crit.c_of(a)
                for d in tangents:
                    up = det(a + eps * d[0], b + eps * d[1], c + eps * d[2])
                    dn = det(a - eps * d[0], b - eps * d[1], c - eps * d[2])
                    assert abs((up - dn) / (2 * eps)) <= Fraction(1, 10**9)

    def test_requires_nonzero_r1_r3(self):
        with pytest.raises(ValueError):
            rank4_lagrange((0, 1, 1))


class TestCaratheodory:
    def test_already_small(self):
        hp = HullPoint.from_weights([(1, 0), (0, 1)], [Fraction(1, 2), Fraction(1, 2)])
        red = caratheodory_reduce(hp)
        assert red.weights == hp.weights

    def test_spec_n2_example(self):
        hp = HullPoint.from_weights([(1, 0), (0, 1), (1, 1), (1, -1)], [Fraction(1, 4)] * 4)
        red = caratheodory_reduce(hp)
        assert len(red.support) <= 3
        assert _weighted_sum(red) == hp.p

    def test_pythagorean_homogeneous(self):
        from minitori.constructions import pythagorean_columns
        cols = pythagorean_columns(3, 4, 5)
        w = [Fraction(1, 8)] * 4 + [Fraction(1, 16)] * 8
        hp = HullPoint.from_weights(cols, w)
        red = caratheodory_reduce(hp)
        assert len(red.support) <= 6
        assert _weighted_sum(red) == hp.p
        assert sum(red.weights) == 1

    def test_never_grows_support(self, rng):
        for _ in range(5):
            cols = [tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(6)]
            cols = [c for c in cols if any(c)]
            w = [Fraction(1, len(cols))] * len(cols)
            hp = HullPoint.from_weights(cols, w)
            red = caratheodory_reduce(hp)
            assert len(red.support) <= len(hp.support)
            assert _weighted_sum(red) == hp.p


def _weighted_sum(point):
    acc = None
    for w, c in zip(point.weights, point.y):
        term = SymMatrix.rank_one(c).scale(w)
        acc = term if acc is None else acc + term
    return acc
