import math
import random
from copy import copy
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minitori import lattices
from minitori.lattices import (FOUR_PI_SQ, eigenfunction_index,
                               enumerate_norm, rational_points_on_ellipsoid,
                               shortest_vectors, spectrum)
from minitori.symmetric import SymMatrix
from conftest import (box_enumerate_norm, box_norm_counts, box_ranges, fraction_rational_points,
                      random_rational_pd, reference_distinct_norms, reference_fincke_pohst)

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


def _contents(out):
    """The classes of a list `out`; the (value, count) pairs of a dict, in order."""
    return list(out) if isinstance(out, list) else list(out.items())


def _run_kernel(kernel, m, lower, upper, box_bound, out):
    """(message of EnumerationIncomplete or None, `_contents` of `out` afterwards)."""
    try:
        kernel(m, lower, upper, box_bound, out)
    except lattices.EnumerationIncomplete as exc:
        return str(exc), _contents(out)
    return None, _contents(out)


class TestKernelAgainstReference:
    """`_fincke_pohst`, its innermost level run inside its parent's loop,
    against the recursive kernel with one call per node it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([1, 2, 4, 7]),
           st.sampled_from(["list", "dict", "dict with counts"]),
           st.sampled_from([0, 1, 2, 3, 5, 10**6]), SEEDS)
    def test_matches_the_recursive_kernel(self, n, den_max, mode, box_bound, rnd):
        q = random_rational_pd(rnd, n, num_max=5 if n <= 3 else 2, den_max=den_max,
                               box_cap=30 if n <= 3 else 1)
        m, _ = lattices._integer_gram(q)
        d = min(m[i][i] for i in range(n))
        upper = rnd.randint(0, 3 * d)
        lower = rnd.randint(-d, upper + d)  # at most 0, inside the shell, or above upper
        # list mode: every class, in lexicographic order; dict mode: every count,
        # added to those already there, keys in the order of first appearance.
        # A box bound that cuts the search: the same message and partial `out`
        out = {"list": [], "dict": {}, "dict with counts": {upper + 1: 5, 1: 1}}[mode]
        want = _run_kernel(reference_fincke_pohst, m, lower, upper, box_bound, copy(out))
        assert _run_kernel(lattices._fincke_pohst, m, lower, upper, box_bound, copy(out)) == want
        if want[0] is not None:
            # the raise comes before the first class: a level's range is widest,
            # up to one, at its all-zero prefix, which is visited first, and that
            # range is even, so it passes the odd bound 2 box_bound + 1 only if
            # every other range of the level does
            assert want[1] == _contents(out)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([1, 2, 4, 7]),
           st.sampled_from(["list", "dict", "dict with counts"]),
           st.sampled_from([0, 1, 2, 3, 5, 10**6]), st.booleans(), SEEDS)
    def test_one_value_shell_matches_the_recursive_kernel(self, n, den_max, mode, box_bound,
                                                          attained, rnd):
        # lower == upper runs the one-value innermost loop: one isqrt and one
        # square test per node, the box bound checked only where it can bite
        q = random_rational_pd(rnd, n, num_max=5 if n <= 3 else 2, den_max=den_max,
                               box_cap=30 if n <= 3 else 1)
        m, _ = lattices._integer_gram(q)
        d = min(m[i][i] for i in range(n))
        value = rnd.randint(-1, 3 * d)  # also 0 and -1, below the lower cut at 1
        if attained:
            v = [rnd.randint(-2, 2) for _ in range(n)]
            value = sum(v[i] * m[i][j] * v[j] for i in range(n) for j in range(n))
        out = {"list": [], "dict": {}, "dict with counts": {value + 1: 5, value: 2}}[mode]
        want = _run_kernel(reference_fincke_pohst, m, value, value, box_bound, copy(out))
        assert _run_kernel(lattices._fincke_pohst, m, value, value, box_bound, copy(out)) == want

    @pytest.mark.parametrize("m, lower, upper, count", [
        ([[1]], 4, 4, 1),  # n = 1: one node of the innermost loop
        ([[1]], -2, 100, 10),
        ([[3]], 13, 26, 0),
    ])
    def test_one_dimension(self, m, lower, upper, count):
        for out in ([], {}):
            got = lattices._fincke_pohst(m, lower, upper, 10**6, out)
            assert got == reference_fincke_pohst(m, lower, upper, 10**6, type(out)())
            assert (len(got) if isinstance(got, list) else sum(got.values())) == count


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
        q = _to_float(catalog("quadratic-s9").q)
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


def _check_search_radii(q, k):
    """`spectrum` against the doubling loop it replaced, and the radii it searched:
    the first is max(min diagonal, count * g/den), which is at most
    lambda_count, and the last is that start or below 2 lambda_count.
    Returns the largest v^t M v of each round."""
    count = k - 1
    with mock.patch.object(lattices, "_fincke_pohst", wraps=lattices._fincke_pohst) as fp:
        lines = spectrum(q, k)
    uppers = [call.args[2] for call in fp.call_args_list]
    want = reference_distinct_norms(q, count)
    assert [(l.norm, l.multiplicity) for l in lines[1:]] == [(v, 2 * c) for v, c in want]
    assert [l.eigenvalue for l in lines[1:]] == [FOUR_PI_SQ * float(v) for v, _ in want]
    m, den = lattices._integer_gram(q)
    g = math.gcd(*(m[i][j] * (1 if i == j else 2) for i in range(q.n) for j in range(i, q.n)))
    lam = want[-1][0]
    assert Fraction(count * g, den) <= lam  # the value-lattice bound is a lower bound

    def upper(bound):  # the largest v^t M v a round with this radius enumerates
        if q.regime == "float":
            bound += Fraction(max(1, bound), lattices._CLUSTER)
        return math.floor(bound * den)

    start = max(Fraction(min(m[i][i] for i in range(q.n)), den), Fraction(count * g, den))
    assert uppers[0] == upper(start) >= count * g
    assert uppers == sorted(set(uppers))
    assert uppers[-1] == upper(start) or uppers[-1] < upper(2 * lam)
    return uppers


class TestSearchRadius:
    """`_distinct_norms` starts at the value-lattice bound; its lines are those
    of the doubling search from the smallest diagonal entry."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 81), st.sampled_from([1, 2, 4, 7]), st.booleans(),
           SEEDS)
    def test_matches_the_doubling_search(self, n, k, den_max, as_float, rnd):
        q = random_rational_pd(rnd, n, den_max=den_max, box_cap=30 if n <= 3 else 4)
        _check_search_radii(_to_float(q) if as_float else q, k)

    @pytest.mark.parametrize("rows, k, rounds", [
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 80, 1),  # every integer
        ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]], 40, 1),  # A4, g = 2
        ([[1.0, 0.25, 0.0], [0.25, 1.5, 0.125], [0.0, 0.125, 2.0]], 40, 2),
        ([[Fraction(3, 2), 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, Fraction(5, 2), 0, 0],
          [0, 0, 0, 3, 0], [0, 0, 0, 0, Fraction(7, 2)]], 61, 2),
        ([[10, 9], [9, 10]], 2, 1),  # the start is the diagonal, above 2 lambda_1 = 4
        ([[1.0, 0.0, 0.0], [0.0, 2 + 5e-10, 0.0], [0.0, 0.0, 2 + 2.2e-9]], 4, 3),
    ])
    def test_benchmark_and_edge_grams(self, rows, k, rounds):
        assert len(_check_search_radii(SymMatrix(rows), k)) == rounds


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

    @pytest.mark.parametrize("u0", [(1,), (1, 0, 0)])
    def test_rejects_a_wrong_length(self, u0):
        with pytest.raises(ValueError, match="coordinates"):
            rational_points_on_ellipsoid(SymMatrix.identity(2), u0, 3, seed=0)


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as exc:  # the same exception, with the same message
        return type(exc).__name__, str(exc)


@st.composite
def quadrics(draw):
    """(Q, u0): a rational PD Gram scaled so that u0, a random rational vector
    or e_1, lies on u^t Q u = 1; sometimes u0 off the quadric or Q in floats."""
    n = draw(st.integers(2, 6))
    rng = draw(SEEDS)
    q = random_rational_pd(rng, n, box_cap=10**9)
    if draw(st.booleans()):
        u0 = [Fraction(1)] + [Fraction(0)] * (n - 1)
    else:
        u0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        if not any(u0):
            u0[rng.randrange(n)] = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    q = q.scale(1 / q.quad_form(u0))
    kind = draw(st.sampled_from(["on", "on", "on", "off", "float"]))
    if kind == "off":
        u0 = [2 * x for x in u0]
    elif kind == "float":
        q = SymMatrix([[float(x) for x in row] for row in q.entries])
    return q, u0


class TestRationalPointsOracle:
    """The integer closed form against the Fraction sampler it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(quadrics(), st.integers(0, 24), st.integers(0, 2**32 - 1),
           st.integers(1, 6), st.integers(0, 6))
    def test_matches_fraction_sampler(self, quadric, count, seed, max_den, max_num):
        q, u0 = quadric
        args = (q, u0, count, seed, max_den, max_num)
        assert _outcome(rational_points_on_ellipsoid, *args) == \
            _outcome(fraction_rational_points, *args)

