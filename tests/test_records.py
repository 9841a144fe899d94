"""The record types: keyword construction, defaults, validation and equality."""

from fractions import Fraction

import pytest

from minitori.certificates import (EmbeddednessResult, GramOperator, MatrixData,
                                   VerificationReport)
from minitori.constructions import (Bryant2TorusParams, PythagoreanParams, PythagoreanResult,
                                    RationalPipelineConfig)
from minitori.lattices import NormClassList
from minitori.optimize import AffineSliceW, CriticalPoint, HullPoint, Rank4Chart
from minitori.symmetric import SymMatrix

HALF = Fraction(1, 2)
I2 = SymMatrix.identity(2)
BASIS = ((1, 0), (0, 1))


def _data(weights=(HALF, HALF), **kw) -> MatrixData:
    return MatrixData(q=I2, y=[[1, 0], [0, 1]], weights=weights, **kw)


class TestMatrixData:
    def test_keyword_construction_normalises_y(self):
        data = MatrixData(q=I2, y=[[1.0, 0], [0, 1]], weights=(HALF, HALF),
                          metadata={"id": "square"})
        assert (data.q, data.weights, data.metadata) == (I2, (HALF, HALF), {"id": "square"})
        assert data.y == BASIS and all(type(x) is int for col in data.y for x in col)
        assert (data.n, data.big_n, data.sphere_dim) == (2, 2, 3)

    def test_metadata_defaults_to_a_fresh_dict(self):
        a, b = MatrixData(q=I2, y=BASIS, weights=(HALF, HALF)), _data()
        assert a.metadata == {} and b.metadata == {}
        a.metadata["id"] = "a"
        assert MatrixData(q=I2, y=BASIS, weights=(HALF, HALF)).metadata == {}

    def test_one_weight_per_column(self):
        with pytest.raises(ValueError, match="^one weight per column required$"):
            MatrixData(q=I2, y=BASIS, weights=(HALF,))

    def test_bad_columns_raise_before_the_weights_are_counted(self):
        with pytest.raises(ValueError, match="^vectors have mixed dimensions$"):
            MatrixData(q=I2, y=[[1, 0], [1]], weights=(HALF,))

    def test_equality_ignores_metadata_but_not_weights(self):
        assert _data(metadata={"id": "a"}) == _data(metadata={"id": "b"})
        assert _data() == MatrixData(q=I2, y=[(1, 0), (0, 1)], weights=(HALF, HALF))
        assert _data() != _data(weights=(HALF, Fraction(1, 3)))
        assert _data() != MatrixData(q=I2.scale(2), y=BASIS, weights=(HALF, HALF))
        assert _data() != MatrixData(q=I2, y=[[0, 1], [1, 0]], weights=(HALF, HALF))
        assert _data() != object()


class TestRationalPipelineConfig:
    def test_keyword_construction_and_defaults(self):
        q = SymMatrix.diag([1, 2, 3])
        cfg = RationalPipelineConfig(q=q)
        assert (cfg.q, cfg.sample_count, cfg.seed, cfg.max_denominator) == (q, 48, 0, 10**4)
        cfg = RationalPipelineConfig(q=q, sample_count=6, seed=3, max_denominator=1)
        assert (cfg.sample_count, cfg.seed, cfg.max_denominator) == (6, 3, 1)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match=r"^sample_count must be at least n\(n\+1\)/2$"):
            RationalPipelineConfig(q=SymMatrix.identity(3), sample_count=5)

    def test_denominator_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="^max_denominator must be positive$"):
            RationalPipelineConfig(q=SymMatrix.identity(3), max_denominator=0)


class TestNormClassList:
    def test_len_and_iter_run_over_the_classes(self):
        classes = ((1, 0), (0, 1))
        found = NormClassList(target=Fraction(1), classes=classes)
        assert (found.target, found.classes, found.complete) == (1, classes, True)
        assert len(found) == 2 and list(found) == list(classes)
        empty = NormClassList(target=Fraction(3), classes=(), complete=False)
        assert len(empty) == 0 and list(empty) == [] and not empty.complete


def test_keyword_construction_of_the_other_records():
    report = VerificationReport(verdict="verified", reason=None, residuals={"trace": 0.0},
                                psd_margin=None, tolerance=1e-10)
    assert report.verified and report.to_dict()["residuals"] == {
        "trace": "0.00000000000000000e+00"}
    assert not VerificationReport(verdict="falsified", reason="psd", residuals={},
                                  psd_margin=-1.0, tolerance=0.0).verified
    result = EmbeddednessResult(status="not_embedded", witness=(HALF, Fraction(0)))
    assert (result.status, result.witness) == ("not_embedded", (HALF, 0))

    params = PythagoreanParams(triple=(3, 4, 5))
    assert (params.triple, params.diagonal) == ((3, 4, 5), None)
    assert (params.r1, params.r2, params.phi1, params.psi1, params.phi2, params.psi2) == (0,) * 6
    params = PythagoreanParams(triple=(3, 4, 5), diagonal=(HALF,), r1=0.1, r2=0.2, phi1=0.3,
                               psi1=0.4, phi2=0.5, psi2=0.6)
    assert (params.diagonal, params.r1, params.psi2) == ((HALF,), 0.1, 0.6)
    bryant = Bryant2TorusParams(m=2, n=5)
    assert (bryant.m, bryant.n, bryant.rho, bryant.rho_scaled) == (2, 5, None, None)
    assert Bryant2TorusParams(m=1, n=3, rho=0.3, rho_scaled=HALF).rho_scaled == HALF
    res = PythagoreanResult(gram=GramOperator([HALF, HALF]), q=I2, y=BASIS,
                            diagonal=(HALF, HALF))
    assert res.matrix_data() == _data()
    assert res.matrix_data().metadata == {"construction": "pythagorean-homogeneous"}

    q1 = SymMatrix.from_upper([0, 1, 0])
    slice_w = AffineSliceW(q0=I2, basis=(q1,), y=BASIS)
    assert (slice_w.s, slice_w.n, slice_w.at(HALF)) == (1, 2, SymMatrix.from_upper([1, HALF, 1]))
    point = HullPoint(y=BASIS, weights=(HALF, 0), p=SymMatrix.diag([HALF, 0]))
    assert point.support == (0,)
    assert HullPoint.from_weights([[1, 0], [0, 1]], [HALF, 0]).p == point.p
    crit = CriticalPoint(t0=HALF, qstar=I2, degree=1)
    assert (crit.t0, crit.qstar, crit.degree) == (HALF, I2, 1)
    one = Fraction(1)
    chart = Rank4Chart(r=(one, one, one), back=((one, 0, 0), (0, one, 0), (0, 0, one)))
    assert chart.r == (1, 1, 1) and chart.back[2] == (0, 0, 1)
