"""Direct tests of certificate verification, embeddedness and reduction."""

from fractions import Fraction

import pytest

from minitori.certificates import (MatrixData, embeddedness,
                                   reduce_target_dimension, verify_matrix_data)
from minitori.constructions import (CATALOG_IDS, PythagoreanParams, catalog,
                                    pythagorean_family)
from minitori.symmetric import SymMatrix, trace_inner

EPS = Fraction(1, 10**12)
STANDARD_BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
THIRD = Fraction(1, 3)


def _weighted_sum(data: MatrixData) -> SymMatrix:
    """sum_j w_j Y_j Y_j^t."""
    acc = None
    for w, c in zip(data.weights, data.y):
        term = SymMatrix.rank_one(c).scale(w)
        acc = term if acc is None else acc + term
    return acc


class TestExactMeansExact:
    """An exact certificate is verified only when every residual is exactly zero."""

    def test_catalog_entries_verify_with_zero_residuals(self):
        for cid in CATALOG_IDS:
            report = verify_matrix_data(catalog(cid))
            assert report.verdict == "verified", cid
            assert report.residuals["weight_sum"] == 0.0, cid

    def test_perturbed_clifford_weights(self):
        data = MatrixData(q=SymMatrix.identity(3), y=STANDARD_BASIS,
                          weights=(THIRD + EPS, THIRD, THIRD - EPS))
        report = verify_matrix_data(data)
        assert report.verdict == "falsified"
        assert report.reason == "flat"
        assert report.residuals["flat"] < report.tolerance  # invisible to the float test

    def test_perturbed_gram(self):
        data = MatrixData(q=SymMatrix.diag([1 + EPS, 1, 1]), y=STANDARD_BASIS,
                          weights=(THIRD, THIRD, THIRD))
        report = verify_matrix_data(data)
        assert report.verdict == "falsified"
        assert report.reason in ("unit_norm", "flat")
        assert max(report.residuals.values()) < report.tolerance

    def test_perturbed_quadratic_s7_weight(self):
        data = catalog("quadratic-s7")
        weights = (data.weights[0] + EPS,) + data.weights[1:]
        report = verify_matrix_data(MatrixData(q=data.q, y=data.y, weights=weights))
        assert report.verdict == "falsified"
        assert report.reason in ("flat", "weight_sum")
        assert report.residuals["weight_sum"] < report.tolerance

    def test_float_certificates_keep_the_tolerance(self):
        data = MatrixData(q=SymMatrix.identity(3), y=STANDARD_BASIS,
                          weights=(1 / 3 + 1e-13, 1 / 3, 1 / 3 - 1e-13))
        assert verify_matrix_data(data).verdict == "verified"


class TestEmbeddedness:
    @pytest.mark.parametrize("cid", CATALOG_IDS)
    def test_exhaustive_matches_catalog_claim(self, cid):
        data = catalog(cid)
        assert embeddedness(data.y, exhaustive=True).status == data.metadata["embedded"]

    def test_unknown_status_is_reported(self):
        # no unimodular minor and N > n: only the exhaustive search decides
        y = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (5, 3, 4))
        assert embeddedness(y).status == "unknown"


class TestReduceTargetDimension:
    @pytest.mark.parametrize("cid", CATALOG_IDS)
    def test_keeps_q_and_the_weighted_sum(self, cid):
        data = catalog(cid)
        reduced = reduce_target_dimension(data)
        assert reduced.q == data.q
        assert _weighted_sum(reduced) == _weighted_sum(data)
        assert reduced.big_n <= 6
        assert verify_matrix_data(reduced).verdict == "verified"

    def test_reduces_the_pythagorean_certificate(self):
        data = pythagorean_family(PythagoreanParams(triple=(3, 4, 5))).matrix_data()
        assert data.big_n == 12
        reduced = reduce_target_dimension(data)
        assert reduced.big_n <= 6
        assert reduced.q == data.q
        assert _weighted_sum(reduced) == _weighted_sum(data)
        assert trace_inner(reduced.q, _weighted_sum(reduced)) == 1
