"""Direct tests of the construction pipelines' exact building blocks."""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from minitori.certificates import reduce_target_dimension
from minitori.constructions import (PythagoreanParams, RationalPipelineConfig,
                                    _diagonal_constraints, _hypotenuse_multiplicity,
                                    _maximal_minors, catalog, construct_pencil_3torus,
                                    construct_rational, feasible_diagonal_centroid,
                                    pythagorean_family)
from minitori.optimize import InfeasibleRegion
from minitori.symmetric import SymMatrix
from conftest import centroid_by_subsystems, pythagorean_constraints_displayed

TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (9, 40, 41)]
# Euclid's formula: (m^2 - k^2, 2mk, m^2 + k^2) for m > k >= 1 coprime and of
# opposite parity, sorted; r <= 100 and the hypotenuse of no other primitive triple
EUCLID_TRIPLES = sorted(
    (min(m * m - k * k, 2 * m * k), max(m * m - k * k, 2 * m * k), m * m + k * k)
    for m in range(2, 10) for k in range(1, m)
    if gcd(m, k) == 1 and (m - k) % 2 and m * m + k * k <= 100
    and _hypotenuse_multiplicity(m * m + k * k) == 1)


class TestCentroid:
    @pytest.mark.parametrize("triple", TRIPLES, ids=str)
    def test_matches_subsystem_oracle(self, triple):
        assert feasible_diagonal_centroid(*triple) == centroid_by_subsystems(*triple)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(EUCLID_TRIPLES))
    def test_euclid_triples_match_subsystem_oracle(self, triple):
        assert feasible_diagonal_centroid(*triple) == centroid_by_subsystems(*triple)

    @pytest.mark.parametrize("triple", TRIPLES, ids=str)
    def test_centroid_is_feasible(self, triple):
        centroid = feasible_diagonal_centroid(*triple)
        rows, rhs = pythagorean_constraints_displayed(*triple)
        assert all(sum(c * a for c, a in zip(row, centroid)) == b for row, b in zip(rows, rhs))
        assert all(a >= 0 for a in centroid)

    @pytest.mark.parametrize("triple", TRIPLES[:3], ids=str)
    def test_integer_rows_are_the_displayed_constraints_scaled(self, triple):
        displayed, rhs = pythagorean_constraints_displayed(*triple)
        for row, drow, b in zip(_diagonal_constraints(*triple), displayed, rhs):
            scale = Fraction(row[-1]) / b if b else Fraction(row[4]) / drow[4]
            assert [Fraction(x) for x in row] == [scale * x for x in drow] + [scale * b]

    def test_diagonal_is_validated_against_the_constraints(self):
        centroid = feasible_diagonal_centroid(3, 4, 5)
        res = pythagorean_family(PythagoreanParams(triple=(3, 4, 5), diagonal=centroid))
        assert res.diagonal == centroid
        moved = list(centroid)
        moved[0] += Fraction(1, 10**9)
        with pytest.raises(ValueError, match="linear constraints"):
            pythagorean_family(PythagoreanParams(triple=(3, 4, 5), diagonal=moved))


def integer_matrices(max_rows=4, max_cols=6):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(m, max_cols).flatmap(
            lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                               min_size=m, max_size=m)))


class TestMaximalMinors:
    @settings(max_examples=60, deadline=None)
    @given(integer_matrices())
    def test_against_sympy_det(self, rows):
        m, n = len(rows), len(rows[0])
        minors = _maximal_minors(rows)
        for cols in combinations(range(n), m):
            want = sympy.Matrix([[row[j] for j in cols] for row in rows]).det()
            assert minors.get(sum(1 << j for j in cols), 0) == want
        assert all(minors.values())  # zero minors are not stored


class TestRank4Route:
    @pytest.mark.parametrize("fourth, degree", [((-3, 4, -3), 2), ((5, 7, 8), 4)])
    def test_quartic_is_factored_once(self, fourth, degree, monkeypatch):
        import minitori.optimize as opt
        calls = {"isolate_real_roots": [], "irreducible_factors": []}
        for name, log in calls.items():
            real = getattr(opt, name)
            monkeypatch.setattr(opt, name, lambda p, real=real, log=log: log.append(p) or real(p))
        data = construct_pencil_3torus(((1, 0, 0), (0, 1, 0), (0, 0, 1), fourth))
        assert {name: len(log) for name, log in calls.items()} == {
            "isolate_real_roots": 1, "irreducible_factors": 1}
        assert data.metadata["degree"] == degree


STANDARD = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# the standard basis of Z^4 plus five vectors: a pencil (s = 1) of nine classes
N4_PENCIL = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 1, 0, 0),
             (-1, 0, -1, -1), (0, 0, -1, -1), (0, 1, 1, 1), (0, -1, -1, 0))


class TestRouteBySliceDimension:
    """`construct_pencil_3torus` picks its route from the dimension s of W_Y."""

    def test_single_point_is_the_reduced_rational_certificate(self):
        # s = 0: six classes span Sym_3, so Q is the one point of the slice
        rational = construct_rational(RationalPipelineConfig(q=SymMatrix.diag([1, 2, 3])))
        reduced = reduce_target_dimension(rational)
        assert len(reduced.y) == 6
        built = construct_pencil_3torus(reduced.y)
        assert built.q == reduced.q
        assert built.weights == reduced.weights
        assert built.metadata == {"construction": "solve", "degree": 1}

    def test_single_point_must_be_positive_definite(self):
        # the unit norms of e_i and e_i + e_j force Q = (3 I - J)/2, which is singular
        with pytest.raises(InfeasibleRegion):
            construct_pencil_3torus(STANDARD + ((1, 1, 0), (1, 0, 1), (0, 1, 1)))

    def test_pencil_in_four_dimensions(self):
        data = construct_pencil_3torus(N4_PENCIL)
        assert data.big_n == 9
        assert data.metadata == {"construction": "pencil", "degree": 1}

    @pytest.mark.parametrize("fourth, weights", [
        ((0, 1, 1), (Fraction(1, 3), Fraction(2, 9), Fraction(2, 9), Fraction(2, 9))),
        ((1, 1, 0), (Fraction(2, 9), Fraction(2, 9), Fraction(1, 3), Fraction(2, 9)))])
    def test_chart_moves_the_zero_coordinate_to_the_middle(self, fourth, weights):
        # r has a zero coordinate off the middle, so the chart permutes it there
        data = construct_pencil_3torus(STANDARD + (fourth,))
        assert data.weights == weights
        assert data.metadata == {"construction": "rank4", "degree": 1}

    @pytest.mark.parametrize("y, s", [(STANDARD, 3), (N4_PENCIL[:8], 2)], ids=["s3", "n4-s2"])
    def test_other_dimensions_are_refused(self, y, s):
        with pytest.raises(ValueError, match=f"dimension s = {s} "):
            construct_pencil_3torus(y)


class TestCatalog:
    """The worked examples.  Each irrational entry is derived from its critical
    parameter; the construction, which solves for that point, must land on the
    same Q."""

    @pytest.mark.parametrize("cid", ["quadratic-s9", "cubic-s7-a", "cubic-s7-b", "quartic-s7"])
    def test_same_exact_certificate(self, cid):
        data = catalog(cid)
        built = construct_pencil_3torus(data.y)
        assert built.q == data.q
        assert built.weights == data.weights
        assert built.metadata["degree"] == data.metadata["degree"]

    def test_quadratic_s7_in_another_generator(self):
        # the entry's field is generated by sqrt(553), the route's by the
        # chart coordinate a = (115 - sqrt(553))/144 itself
        data = catalog("quadratic-s7")
        built = construct_pencil_3torus(data.y)
        assert built.metadata["degree"] == data.q[0, 0].field.degree == 2
        assert built.metadata["minpoly"] != list(data.q[0, 0].field.minpoly)
        for got, want in zip(built.q.upper() + list(built.weights),
                             data.q.upper() + list(data.weights)):
            assert abs(float(got) - float(want)) <= 1e-15

    def test_metadata_is_not_shared_between_calls(self):
        catalog("cubic-s7-a").metadata["approx_weights"].append(0.0)
        assert len(catalog("cubic-s7-a").metadata["approx_weights"]) == 4
