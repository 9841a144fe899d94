import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minitori.lattices import (FOUR_PI_SQ, Lattice, dual, eigenfunction_index,
                               enumerate_norm, rational_points_on_ellipsoid,
                               shortest_vectors, spectrum)
from minitori.symmetric import SymMatrix
from conftest import box_enumerate_norm, box_norm_counts, box_ranges, random_rational_pd

SEEDS = st.integers(0, 2**32 - 1).map(random.Random)  # seeded data generators
BOX_CAP = 4000  # most integer points the brute-force oracles may scan


def _box_size(q, bound):
    return math.prod(len(r) for r in box_ranges(q, bound))


def _gram(rnd, n, den_max=4):
    return random_rational_pd(rnd, n, den_max=den_max, box_cap=30 if n <= 3 else 1)


def _to_float(q):
    return SymMatrix([[float(x) for x in row] for row in q.entries])


def _attained_target(q, rnd):
    """v^t Q v for a random small v (else a basis vector) in a box the oracle can scan."""
    v = [0] * q.n
    while not any(v):
        v = [rnd.randint(-1, 1) for _ in range(q.n)]
    target = q.quad_form(v)
    if _box_size(q, target) > BOX_CAP:
        target = min(q.entries[i][i] for i in range(q.n))
    assume(_box_size(q, target) <= BOX_CAP)
    return target


class TestDual:
    def test_identity(self):
        lat = Lattice.from_generator([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert dual(lat).gram == SymMatrix.identity(3)

    def test_diag(self):
        lat = Lattice.from_generator([[1, 0], [0, 2]])
        assert dual(lat).gram == SymMatrix.diag([1, Fraction(1, 4)])

    def test_random_exact_pairing(self, rng):
        for _ in range(5):
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
                    for _ in range(3)]
            rows[0][0] += 5
            rows[1][1] += 5
            rows[2][2] += 5
            lat = Lattice.from_generator(rows)
            d = dual(lat)
            prod = lat.gram.matmul(d.gram)
            for i in range(3):
                for j in range(3):
                    assert prod[i][j] == (1 if i == j else 0)
            # dual of dual
            dd = dual(Lattice.from_generator(d.generator))
            assert dd.gram == lat.gram


class TestEnumerate:
    def test_identity_target_one(self):
        got = enumerate_norm(SymMatrix.identity(3), 1)
        assert got.classes == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert got.complete

    def test_pythagorean_twelve_classes(self):
        q = SymMatrix.diag([Fraction(1, 3), Fraction(2, 75), Fraction(2, 75)])
        got = enumerate_norm(q, 1)
        assert len(got) == 12
        want = {(1, 5, 0), (1, -5, 0), (1, 0, 5), (1, 0, -5),
                (1, 3, 4), (1, -3, -4), (1, -4, 3), (1, 4, -3),
                (1, 3, -4), (1, -3, 4), (1, 4, 3), (1, -4, -3)}
        assert set(got.classes) == {c if c[0] > 0 else tuple(-x for x in c) for c in want}

    def test_box_oracle_small_random(self, rng):
        for n in (2, 3, 4):
            for _ in range(6):
                q = random_rational_pd(rng, n)
                got = enumerate_norm(q, 1)
                assert got.complete
                assert got.classes == box_enumerate_norm(q, Fraction(1))

    def test_incomplete_flag(self):
        # enormous ellipsoid bound against a tiny cap
        q = SymMatrix.diag([Fraction(1, 10**14), 1])
        got = enumerate_norm(q, 1, box_bound=10)
        assert not got.complete

    def test_float_gram(self):
        got = enumerate_norm(SymMatrix([[1.0, 0.0], [0.0, 1.0]]), 1.0)
        assert got.classes == ((0, 1), (1, 0))

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError):
            enumerate_norm(SymMatrix.diag([1, -1]), 1)


class TestShortest:
    def test_identity(self):
        lam, classes = shortest_vectors(SymMatrix.identity(4))
        assert lam == 1
        assert len(classes) == 4

    def test_diag(self):
        lam, classes = shortest_vectors(SymMatrix.diag([4, 1]))
        assert lam == 1
        assert classes.classes == ((0, 1),)

    def test_random_against_oracle(self, rng):
        for _ in range(6):
            q = random_rational_pd(rng, 3)
            lam, classes = shortest_vectors(q)
            assert classes.classes == box_enumerate_norm(q, lam)
            # nothing shorter in the oracle box
            for m in range(1, 50):
                t = lam * Fraction(m, 50)
                if box_enumerate_norm(q, t):
                    assert t == lam
                    break


class TestSpectrum:
    def test_identity_two_lines(self):
        lines = spectrum(SymMatrix.identity(2), 2)
        assert lines[0].eigenvalue == 0.0 and lines[0].multiplicity == 1
        assert abs(lines[1].eigenvalue - FOUR_PI_SQ) < 1e-12
        assert lines[1].multiplicity == 4

    def test_clifford_multiplicity(self):
        for n in (3, 4):
            lines = spectrum(SymMatrix.identity(n), 2)
            # 4 pi^2 eigenvalue scaled by n/(4 pi^2) equals n, multiplicity 2n
            assert abs(lines[1].eigenvalue * n / FOUR_PI_SQ - n) < 1e-12
            assert lines[1].multiplicity == 2 * n

    def test_monotone_and_even(self, rng):
        q = random_rational_pd(rng, 3)
        lines = spectrum(q, 5)
        vals = [l.eigenvalue for l in lines]
        assert vals == sorted(vals)
        assert all(l.multiplicity % 2 == 0 for l in lines[1:])
        assert all(l.multiplicity > 0 for l in lines)

    def test_float_cluster_not_cut_by_search_radius(self):
        # 2+5e-10 and 2+2.2e-9 form one line; the first search shell past 2
        # ends at 2+2e-9, between them
        q = SymMatrix([[1.0, 0.0, 0.0], [0.0, 2 + 5e-10, 0.0], [0.0, 0.0, 2 + 2.2e-9]])
        assert [l.multiplicity for l in spectrum(q, 3)] == [1, 2, 4]
        assert [l.multiplicity for l in spectrum(q, 4)] == [1, 2, 4, 8]

    def test_quadratic_catalog_norm_one_multiplicity(self):
        from minitori.constructions import catalog
        q = catalog("quadratic-s9").q.to_float()
        k = eigenfunction_index(q, FOUR_PI_SQ)
        lines = spectrum(q, k + 1)
        hit = lines[k]
        assert abs(float(hit.norm) - 1.0) < 1e-7
        assert hit.multiplicity >= 10


class TestEigenfunctionIndex:
    def test_identity(self):
        assert eigenfunction_index(SymMatrix.identity(3), FOUR_PI_SQ) == 1

    def test_diag_by_enumeration_oracle(self):
        q = SymMatrix.diag([1, 4])
        # norms: 1 (e1), 4 (e2, 2e1), 2? -> (1,?): y1^2+4 y2^2: values 1,4,5,8,9,...
        assert eigenfunction_index(q, Fraction(1)) == 1
        assert eigenfunction_index(q, Fraction(4)) == 2
        assert eigenfunction_index(q, Fraction(5)) == 3

    def test_scaled_torus_index_grows(self):
        ks = []
        for mu in (1, 2, 3):
            q = SymMatrix.identity(3).scale(Fraction(1, mu * mu))
            ks.append(eigenfunction_index(q, Fraction(1)))
        assert ks[0] < ks[1] < ks[2]

    def test_missing_value(self):
        with pytest.raises(ValueError):
            eigenfunction_index(SymMatrix.identity(2), Fraction(3))


class TestKernelProperties:
    """The integer half-space kernel against brute-force box scans."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), SEEDS)
    def test_enumerate_matches_box_oracle(self, n, rnd):
        q = _gram(rnd, n)
        target = _attained_target(q, rnd)
        got = enumerate_norm(q, target)
        assert got.complete
        assert got.classes == box_enumerate_norm(q, target)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), SEEDS)
    def test_float_gram_matches_rational_oracle(self, n, rnd):
        # denominators 3, 5, 6, 7 make the float entries non-dyadic roundings;
        # distinct rational values differ by far more than the float slack
        q = _gram(rnd, n, den_max=7)
        target = _attained_target(q, rnd)
        got = enumerate_norm(_to_float(q), target)
        assert got.complete
        assert got.classes == box_enumerate_norm(q, target)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 8), SEEDS)
    def test_classes_canonical_and_unique(self, n, k, rnd):
        q = _gram(rnd, n)
        for line in spectrum(q, k)[1:]:
            classes = enumerate_norm(q, line.norm).classes
            assert len(set(classes)) == len(classes) == line.multiplicity // 2
            assert list(classes) == sorted(classes)
            assert all(next(x for x in c if x) > 0 for c in classes)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 5), SEEDS)
    def test_spectrum_matches_box_counts(self, n, k, rnd):
        q = _gram(rnd, n)
        lines = spectrum(q, k)
        assume(_box_size(q, lines[-1].norm) <= BOX_CAP)
        want = sorted(box_norm_counts(q, lines[-1].norm).items())
        assert [(l.norm, l.multiplicity) for l in lines[1:]] == [(v, 2 * c) for v, c in want]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 6), st.booleans(), SEEDS)
    def test_eigenfunction_index_is_spectrum_position(self, n, k, as_float, rnd):
        q = _gram(rnd, n, den_max=7)
        if as_float:
            q = _to_float(q)
        lines = spectrum(q, k)
        for pos, line in enumerate(lines[1:], start=1):
            assert eigenfunction_index(q, line.norm) == pos
            assert eigenfunction_index(q, line.eigenvalue) == pos


class TestRationalPoints:
    def test_circle(self):
        q = SymMatrix.identity(2)
        pts = rational_points_on_ellipsoid(q, (1, 0), 12, seed=5)
        assert len(set(pts)) == 12
        for x, y in pts:
            assert x * x + y * y == 1
            # classical parameterization: any rational point != (-1, 0) has
            # x = (t^2-1)/(t^2+1), y = 2t/(t^2+1) or its mirror
            if (x, y) != (-1, 0) and y != 0:
                t = (1 + x) / y
                assert (x, y) == ((t * t - 1) / (t * t + 1), 2 * t / (t * t + 1))

    def test_sphere_exact(self):
        q = SymMatrix.identity(3)
        pts = rational_points_on_ellipsoid(q, (0, 0, 1), 10, seed=1)
        for p in pts:
            assert sum(x * x for x in p) == 1

    def test_ellipse_exact(self):
        q = SymMatrix.diag([Fraction(1, 4), 1])
        pts = rational_points_on_ellipsoid(q, (2, 0), 8, seed=9)
        for x, y in pts:
            assert x * x / 4 + y * y == 1

    def test_deterministic(self):
        q = SymMatrix.identity(3)
        a = rational_points_on_ellipsoid(q, (0, 0, 1), 6, seed=3)
        b = rational_points_on_ellipsoid(q, (0, 0, 1), 6, seed=3)
        assert a == b

    def test_rejects_off_quadric(self):
        with pytest.raises(ValueError):
            rational_points_on_ellipsoid(SymMatrix.identity(2), (1, 1), 3, seed=0)
