"""Direct tests of the construction pipelines' exact building blocks."""

from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from minitori.constructions import (PythagoreanParams, _diagonal_constraints,
                                    _maximal_minors, catalog, construct_pencil_3torus,
                                    feasible_diagonal_centroid, pythagorean_family)
from conftest import centroid_by_subsystems, pythagorean_constraints_displayed

TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (9, 40, 41)]


class TestCentroid:
    @pytest.mark.parametrize("triple", TRIPLES, ids=str)
    def test_matches_subsystem_oracle(self, triple):
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
        _, report = construct_pencil_3torus(((1, 0, 0), (0, 1, 0), (0, 0, 1), fourth))
        assert {name: len(log) for name, log in calls.items()} == {
            "isolate_real_roots": 1, "irreducible_factors": 1}
        assert report.degree == degree


class TestCatalog:
    """The worked examples.  Each irrational entry is derived from its critical
    parameter; the construction, which solves for that point, must land on the
    same Q."""

    @pytest.mark.parametrize("cid", ["quadratic-s9", "cubic-s7-a", "cubic-s7-b", "quartic-s7"])
    def test_same_exact_certificate(self, cid):
        data = catalog(cid)
        built, report = construct_pencil_3torus(data.y)
        assert built.q == data.q
        assert built.weights == data.weights
        assert report.degree == data.metadata["degree"]

    def test_quadratic_s7_in_another_generator(self):
        # the entry's field is generated by sqrt(553), the route's by the
        # chart coordinate a = (115 - sqrt(553))/144 itself
        data = catalog("quadratic-s7")
        built, report = construct_pencil_3torus(data.y)
        assert report.degree == data.q[0, 0].field.degree == 2
        assert report.minpoly != data.q[0, 0].field.minpoly
        for got, want in zip(built.q.upper() + list(built.weights),
                             data.q.upper() + list(data.weights)):
            assert abs(float(got) - float(want)) <= 1e-15

    def test_metadata_is_not_shared_between_calls(self):
        catalog("cubic-s7-a").metadata["approx_weights"].append(0.0)
        assert len(catalog("cubic-s7-a").metadata["approx_weights"]) == 4
