import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CATALOG_FIELDS, IntervalOracle, field_inverse, field_mul, field_pow,
                      field_reduce, fraction_count_real_roots, fraction_isolate_real_roots,
                      fraction_refine_root, fraction_sturm_sequence, poly_eval)
from minitori.scalars import (AlgebraicField, AlgebraicScalar, count_real_roots, dot,
                              factor_min_poly, format_rational, integer_combinations,
                              irreducible_degree_le4, irreducible_factors,
                              is_rational_square,
                              isolate_real_roots, parse_rational, poly_gcd,
                              pseudo_divmod, rational_roots, refine_root, sqrt_field,
                              squarefree_part, sturm_sequence)


class TestRationalWire:
    def test_round_trip(self):
        for s in ("3", "-7/2", "0", "10801/443880"):
            assert format_rational(parse_rational(s)) == s

    def test_whole_numbers_drop_denominator(self):
        assert format_rational(Fraction(8, 4)) == "2"

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_parse_format_identity(self, p, q):
        x = Fraction(p, q)
        assert parse_rational(format_rational(x)) == x


class TestSquares:
    def test_examples(self):
        assert is_rational_square(Fraction(9, 4))
        assert not is_rational_square(Fraction(2))
        assert not is_rational_square(Fraction(-1))

    def test_squarefree_part(self):
        assert squarefree_part(10801 * 36) == 10801
        assert squarefree_part(553) == 553
        assert squarefree_part(-12) == -3
        assert squarefree_part(1) == 1


class TestIrreducibility:
    def test_published_cubic(self):
        assert irreducible_degree_le4([-33, 149, -160, 50])

    def test_published_quartic(self):
        # -14700 x^4 - 23240 x^3 + 1079 x^2 + 10730 x + 1507
        assert irreducible_degree_le4([1507, 10730, 1079, -23240, -14700])

    def test_biquadratic_splits(self):
        assert not irreducible_degree_le4([-1, 0, 0, 0, 1])  # x^4 - 1

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            irreducible_degree_le4([1, 0, 0, 0, 0, 1])

    def test_quadratic_pair_split_detected(self):
        # (x^2 + x + 1)(x^2 - x + 1) = x^4 + x^2 + 1, no rational roots
        assert not irreducible_degree_le4([1, 0, 1, 0, 1])

    def test_against_sympy(self, rng):
        x = sp.symbols("x")
        for _ in range(120):
            deg = rng.randint(1, 4)
            coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 6)]
            ours = irreducible_degree_le4(coeffs)
            theirs = sp.Poly(sum(c * x**i for i, c in enumerate(coeffs)), x).is_irreducible
            assert ours == theirs, coeffs

    def test_rational_roots(self):
        assert rational_roots([-33, 149, -160, 50]) == []
        assert set(rational_roots([-2, 1, -2, 1])) == {Fraction(2)}  # (x-2)(x^2+1)


class TestRootIsolation:
    def test_isolates_all_real_roots(self, rng):
        for _ in range(40):
            deg = rng.randint(2, 4)
            coeffs = [rng.randint(-8, 8) for _ in range(deg)] + [rng.randint(1, 8)]
            import numpy as np
            real = sorted(r.real for r in np.roots(list(reversed(coeffs)))
                          if abs(r.imag) < 1e-9)
            # collapse numerically repeated roots; isolation reports distinct ones
            distinct = []
            for r in real:
                if not distinct or abs(r - distinct[-1]) > 1e-6:
                    distinct.append(r)
            intervals = isolate_real_roots(coeffs)
            assert len(intervals) == len(distinct)
            for (lo, hi), r in zip(intervals, distinct):
                assert float(lo) - 1e-6 <= r <= float(hi) + 1e-6

    def test_refine(self):
        (lo, hi), = [iv for iv in isolate_real_roots([-2, 0, 1]) if iv[1] > 0]
        lo2, hi2 = refine_root([-2, 0, 1], lo, hi, Fraction(1, 10**12))
        assert abs(float((lo2 + hi2) / 2) - math.sqrt(2)) < 1e-11

    def test_count_real_roots(self):
        assert count_real_roots([-2, 0, 1], 0, 2) == 1
        assert count_real_roots([-2, 0, 1], -2, 2) == 2

    def test_factor_min_poly(self):
        # x^4 - 1: the root in (1/2, 3/2) is 1, minpoly x - 1
        assert factor_min_poly([-1, 0, 0, 0, 1], Fraction(1, 2), Fraction(3, 2)) == (-1, 1)
        # x^4 - 4: root sqrt(2) has minpoly x^2 - 2
        assert factor_min_poly([-4, 0, 0, 0, 1], Fraction(1), Fraction(2)) == (-2, 0, 1)


def _poly_from_roots(roots, lead, quadratic=(1,)):
    """lead * quadratic(x) * prod (x - r) for rational roots r, low -> high."""
    p = [Fraction(lead) * c for c in quadratic]
    for r in roots:
        p = [Fraction(0)] + p
        for i in range(len(p) - 1):
            p[i] -= r * p[i + 1]
    return p


# rational polynomials of degree 1 to 6: rational linear factors (a repeat is
# a squared factor; dyadic roots such as 0, 1/2 or -3/4 can fall exactly on
# bisection midpoints) times at most one integer quadratic, which may have
# irrational roots or none
rational_polys = st.builds(
    _poly_from_roots,
    st.lists(st.sampled_from([Fraction(k, d) for k in range(-6, 7) for d in (1, 2, 3, 4, 8)]),
             min_size=1, max_size=4),
    st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 7), Fraction(-5, 4)]),
    st.one_of(st.just((1,)), st.tuples(st.integers(-9, 9), st.integers(-9, 9),
                                       st.integers(1, 5))))


class TestRootKernelsAgainstFractionOracle:
    """The integer Sturm sequences and bisections give the very Fractions of
    the Fraction code they replaced (kept in conftest as the oracle)."""

    @settings(max_examples=100, deadline=None)
    @given(rational_polys)
    def test_sturm_terms_are_positive_multiples(self, p):
        got, want = sturm_sequence(p), fraction_sturm_sequence(p)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert all(type(c) is int for c in g) and math.gcd(*g) == 1
            ratio = Fraction(g[-1]) / w[-1]
            assert ratio > 0 and list(g) == [ratio * c for c in w]

    @settings(max_examples=150, deadline=None)
    @given(rational_polys)
    def test_isolate_real_roots(self, p):
        assert 1 <= len(p) - 1 <= 6
        assert isolate_real_roots(p) == fraction_isolate_real_roots(p)

    @settings(max_examples=100, deadline=None)
    @given(rational_polys, st.integers(-40, 40), st.integers(0, 40), st.integers(1, 8))
    def test_count_real_roots(self, p, lo, width, den):
        lo, hi = Fraction(lo, den), Fraction(lo + width, den)
        assert count_real_roots(p, lo, hi) == fraction_count_real_roots(p, lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(rational_polys, st.sampled_from([Fraction(1, 10**6), Fraction(1, 10**18),
                                            Fraction(3, 1000), Fraction(2)]))
    def test_refine_root(self, p, width):
        for lo, hi in fraction_isolate_real_roots(p):
            got = refine_root(p, lo, hi, width)
            assert got == fraction_refine_root(p, lo, hi, width)
            assert all(type(x) is Fraction for x in got)

    def test_midpoint_roots_move_the_split(self):
        # x (x - 1): the first midpoint 0 of the Cauchy interval (-2, 2) is a
        # root and moves to -1; x (x + 1): it moves twice, to -1, then -3/2
        p = _poly_from_roots([Fraction(0), Fraction(1)], 1)
        assert isolate_real_roots(p) == [(-1, Fraction(1, 2)), (Fraction(1, 2), 2)]
        p = _poly_from_roots([Fraction(0), Fraction(-1)], 1)
        assert isolate_real_roots(p) == [(Fraction(-3, 2), Fraction(-5, 8)),
                                         (Fraction(-5, 8), Fraction(1, 4))]

    def test_refine_stops_on_a_midpoint_root(self):
        p = [Fraction(-1, 4), 0, 1]  # roots +-1/2
        assert refine_root(p, 0, 1, Fraction(1, 10**6)) == (Fraction(1, 2), Fraction(1, 2))
        assert refine_root(p, Fraction(1, 2), 1, Fraction(1, 10)) == (Fraction(1, 2),) * 2


class TestAlgebraicScalar:
    def test_sqrt_two_arithmetic(self):
        f = sqrt_field(2)
        w = f.generator()
        assert (w * w).as_fraction() == 2
        assert ((1 + w) * (1 - w)).as_fraction() == -1
        assert (w / w).as_fraction() == 1
        inv = (1 + w).inverse()
        assert ((1 + w) * inv).as_fraction() == 1

    def test_signs_and_comparison(self):
        f = sqrt_field(2)
        w = f.generator()
        assert w.sign() == 1
        assert (w - 2).sign() == -1
        assert (w - Fraction(141421356, 10**8)).sign() == 1
        assert w > 1
        assert w < Fraction(3, 2)
        assert abs(float(w) - math.sqrt(2)) < 1e-15

    def test_zero_sign(self):
        f = sqrt_field(5)
        w = f.generator()
        assert (w - w).sign() == 0

    def test_refinement_is_monotone(self):
        f = sqrt_field(3)
        lo0, hi0 = f.interval
        for _ in range(30):
            f.refine()
            lo, hi = f.interval
            assert lo0 <= lo < hi <= hi0
            assert poly_eval(f.minpoly, lo) * poly_eval(f.minpoly, hi) < 0
            lo0, hi0 = lo, hi

    def test_cubic_field(self):
        f = AlgebraicField((-33, 149, -160, 50), (Fraction(5, 16), Fraction(21, 64)))
        a = f.generator()
        # the generator satisfies its minimal polynomial
        val = 50 * a**3 - 160 * a**2 + 149 * a - 33
        assert val.is_zero()
        assert abs(float(a) - 0.321060780647883) < 1e-12

    def test_quartic_field_division(self):
        f = AlgebraicField((-1507, -10730, -1079, 23240, 14700),
                           (Fraction(-5, 32), Fraction(-9, 64)))
        a = f.generator()
        x = (3 * a**2 - a + 1) / (a + 2)
        assert ((a + 2) * x - (3 * a**2 - a + 1)).is_zero()

    def test_mixed_field_rejected(self):
        w2 = sqrt_field(2).generator()
        w3 = sqrt_field(3).generator()
        with pytest.raises(TypeError):
            _ = w2 + w3

    def test_reducible_minpoly_rejected(self):
        with pytest.raises(ValueError):
            AlgebraicField((-1, 0, 1), (0, 2))  # x^2 - 1

    def test_interval_must_isolate(self):
        with pytest.raises(ValueError):
            AlgebraicField((-2, 0, 1), (-2, 2))  # both roots of x^2 - 2


def int_polys(max_deg=4, bound=40):
    """Integer polynomials (low -> high) of degree 1..max_deg, nonzero leading coefficient."""
    return st.integers(1, max_deg).flatmap(
        lambda d: st.tuples(st.lists(st.integers(-bound, bound), min_size=d, max_size=d),
                            st.integers(-bound, bound).filter(bool))
        .map(lambda t: t[0] + [t[1]]))


@st.composite
def polys_with_rational_root(draw):
    """(num x - den) times a random polynomial of degree <= 3: the root den/num is known."""
    num = draw(st.integers(-12, 12).filter(bool))
    den = draw(st.integers(-12, 12))
    rest = draw(int_polys(max_deg=3, bound=12))
    lin = [-den, num]
    out = [0] * (len(rest) + 1)
    for i, a in enumerate(lin):
        for j, b in enumerate(rest):
            out[i + j] += a * b
    return out, Fraction(den, num)


def sympy_poly(coeffs):
    x = sp.symbols("x")
    return sp.Poly(sum(c * x**i for i, c in enumerate(coeffs)), x)


def sympy_rational_roots(coeffs):
    return sorted(Fraction(int(r.p), int(r.q)) for r in sp.roots(sympy_poly(coeffs), filter="Q"))


class TestIntegerRootKernels:
    @settings(max_examples=150, deadline=None)
    @given(int_polys())
    def test_rational_roots_against_sympy(self, coeffs):
        assert rational_roots(coeffs) == sympy_rational_roots(coeffs)

    @settings(max_examples=150, deadline=None)
    @given(polys_with_rational_root())
    def test_known_rational_root_is_found(self, case):
        coeffs, root = case
        found = rational_roots(coeffs)
        assert root in found
        assert found == sympy_rational_roots(coeffs)
        assert not irreducible_degree_le4(coeffs)  # degree >= 2 with a linear factor

    @settings(max_examples=150, deadline=None)
    @given(int_polys())
    def test_irreducibility_against_sympy(self, coeffs):
        assert irreducible_degree_le4(coeffs) == sympy_poly(coeffs).is_irreducible

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(int_polys(), polys_with_rational_root().map(lambda c: c[0])))
    def test_factors_multiply_back(self, coeffs):
        factors = irreducible_factors(coeffs)
        want = sympy_poly(coeffs)
        prod = sp.Poly(want.LC(), want.gen)
        for f in factors:
            prod *= sympy_poly(f)
            assert sympy_poly(f).is_irreducible
        assert sp.Poly(prod.monic(), want.gen) == want.monic()

    def test_quartic_split_into_quadratics(self):
        # (2x^2 + 3x + 5)(3x^2 - x + 7): no rational root
        assert irreducible_factors([35, 16, 26, 7, 6]) == [(5, 3, 2), (7, -1, 3)]

    @settings(max_examples=100, deadline=None)
    @given(int_polys(max_deg=6), int_polys(max_deg=3))
    def test_pseudo_divmod(self, a, b):
        # s^e a = q b + r with s = |lc(b)|: q b + r is a positive multiple of a
        q, r = pseudo_divmod(a, b)
        assert len(r) < len(b)
        qb_r = sympy_poly(q) * sympy_poly(b) + sympy_poly(r)
        ratio = qb_r.LC() / a[-1]
        assert ratio > 0 and qb_r == sympy_poly([ratio * c for c in a])

    @settings(max_examples=100, deadline=None)
    @given(int_polys(max_deg=3), int_polys(max_deg=3), int_polys(max_deg=2))
    def test_poly_gcd_against_sympy(self, p, q, common):
        x = sp.Symbol("x")
        p = sympy_poly(p) * sympy_poly(common)
        q = sympy_poly(q) * sympy_poly(common)
        want = sp.Poly(sp.gcd(p, q), x).primitive()[1]
        want = want if want.LC() > 0 else -want
        got = poly_gcd([int(c) for c in reversed(p.all_coeffs())],
                       [int(c) for c in reversed(q.all_coeffs())])
        assert sympy_poly(got) == want


ORACLE_FIELDS = CATALOG_FIELDS + (((-2, 0, 1), (1, 2)),)  # and Q(sqrt 2)

SMALL_RATIONALS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40))
RATIONAL_OPERANDS = st.one_of(st.integers(-30, 30), SMALL_RATIONALS)


def coeff_lists(degree):
    return st.lists(st.one_of(SMALL_RATIONALS, st.just(Fraction(0))),
                    min_size=degree, max_size=degree)


@st.composite
def field_elements(draw, count):
    """A fresh field (so no interval is shared between examples) and `count`
    coefficient lists of its elements."""
    minpoly, interval = draw(st.sampled_from(ORACLE_FIELDS))
    d = len(minpoly) - 1
    return (AlgebraicField(minpoly, interval),
            [tuple(draw(coeff_lists(d))) for _ in range(count)])


class TestAlgebraicScalarOracle:
    """AlgebraicScalar against a Fraction coefficient-list oracle (conftest)."""

    @settings(max_examples=150, deadline=None)
    @given(field_elements(2), RATIONAL_OPERANDS, st.integers(-3, 4))
    def test_ring_operations(self, case, r, k):
        field, (ca, cb) = case
        mp = field.minpoly
        a, b = field.element(ca), field.element(cb)
        assert a.coeffs == field_reduce(mp, ca)
        assert field.element(ca + cb).coeffs == field_reduce(mp, ca + cb)  # degree >= d
        assert (a + b).coeffs == field_reduce(mp, [x + y for x, y in zip(ca, cb)])
        assert (a - b).coeffs == field_reduce(mp, [x - y for x, y in zip(ca, cb)])
        assert (a * b).coeffs == field_mul(mp, ca, cb)
        rc = field_reduce(mp, [r])
        assert (a + r).coeffs == (r + a).coeffs == field_reduce(mp, [ca[0] + r] + list(ca[1:]))
        assert (a - r).coeffs == field_reduce(mp, [ca[0] - r] + list(ca[1:]))
        assert (r - a).coeffs == field_reduce(mp, [r - ca[0]] + [-x for x in ca[1:]])
        assert (a * r).coeffs == (r * a).coeffs == field_mul(mp, ca, rc)
        if r:
            assert (a / r).coeffs == field_mul(mp, ca, field_inverse(mp, rc))
        if any(cb):
            assert b.inverse().coeffs == field_inverse(mp, cb)
            assert (a / b).coeffs == field_mul(mp, ca, field_inverse(mp, cb))
            assert (r / b).coeffs == field_mul(mp, rc, field_inverse(mp, cb))
            assert b * b.inverse() == 1
        if any(ca) or k >= 0:
            assert (a ** k).coeffs == field_pow(mp, ca, k)

    @settings(max_examples=100, deadline=None)
    @given(field_elements(2), st.sampled_from([Fraction(1, 10**17), Fraction(1, 1000),
                                               Fraction(3, 7)]))
    def test_signs_approximations_and_narrowing(self, case, eps):
        field, (ca, cb) = case
        oracle = IntervalOracle(field.minpoly, field.interval)
        for c in (ca, cb, [x - y for x, y in zip(ca, cb)]):
            x = field.element(c)
            want = field_reduce(field.minpoly, c)
            assert x.sign() == oracle.sign(want)
            assert field.interval == (oracle.lo, oracle.hi)
            assert x.approx(eps) == oracle.approx(want, eps)
            assert field.interval == (oracle.lo, oracle.hi)

    @settings(max_examples=100, deadline=None)
    @given(field_elements(1), RATIONAL_OPERANDS)
    def test_equal_elements_hash_alike(self, case, r):
        field, (ca,) = case
        a = field.element(ca)
        twin = AlgebraicField(field.minpoly, field.interval).element(ca)
        assert a == twin and hash(a) == hash(twin)
        assert a == a * 1 and hash(a) == hash(a * 1)
        x = field.from_rational(r)
        assert x == r and hash(x) == hash(r)
        assert x == Fraction(r) and hash(x) == hash(Fraction(r))
        assert len({x, Fraction(r)}) == 1
        if not a.is_rational():
            assert a != a.coeffs[0]

    @settings(max_examples=150, deadline=None)
    @given(field_elements(6), st.lists(RATIONAL_OPERANDS, min_size=3, max_size=3),
           st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), max_size=4))
    def test_dot_and_integer_combinations(self, case, rationals, rows):
        field, coeffs = case
        mp = field.minpoly
        xs = [field.element(c) for c in coeffs[:3]]
        ys = [field.element(c) for c in coeffs[3:]]

        def oracle_sum(terms):
            return field_reduce(mp, [sum(t[i] for t in terms) for i in range(field.degree)])

        want = oracle_sum([field_mul(mp, a, b) for a, b in zip(coeffs[:3], coeffs[3:])])
        assert dot(xs, ys).coeffs == want
        # rational entries mixed in, and all-rational inputs (a Fraction)
        mixed = [xs[0], rationals[1], xs[2]]
        assert dot(mixed, ys) == xs[0] * ys[0] + rationals[1] * ys[1] + xs[2] * ys[2]
        assert dot(rationals, rationals) == sum(Fraction(r) * r for r in rationals)
        for got, row in zip(integer_combinations(xs, rows), rows):
            assert got.coeffs == oracle_sum([[t * c for c in field_reduce(mp, a)]
                                             for t, a in zip(row, coeffs[:3])])
        for got, row in zip(integer_combinations(rationals, rows), rows):
            assert got == sum(t * Fraction(r) for t, r in zip(row, rationals))
            assert isinstance(got, Fraction)

    def test_half_hashes_like_its_fraction(self):
        x = sqrt_field(2).from_rational(Fraction(1, 2))
        assert x == Fraction(1, 2)
        assert len({x, Fraction(1, 2)}) == 1
