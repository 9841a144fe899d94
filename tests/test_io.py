"""Direct tests of the certificate file format: canonical, byte-stable emission."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOG_FIELDS
from minitori.certificates import MatrixData, reduce_target_dimension
from minitori.constructions import CATALOG_IDS, catalog
from minitori.io import CertificateFormatError, emit, parse
from minitori.scalars import AlgebraicField
from minitori.symmetric import SymMatrix


@pytest.fixture(scope="module")
def certificates():
    """Each catalog entry and its reduction, by name."""
    out = {}
    for cid in CATALOG_IDS:
        data = catalog(cid)
        out[cid] = data
        out[cid + " reduced"] = reduce_target_dimension(data)
    return out


def test_catalog_and_reduced_round_trip_byte_for_byte(certificates):
    assert len(certificates) == 2 * len(CATALOG_IDS)
    for name, data in certificates.items():
        text = emit(data)
        back = parse(text)
        assert emit(back) == text, name
        assert back == data, name


@st.composite
def algebraic_weights(draw):
    """A field (with an interval narrowed a random number of times) and a few
    of its elements with small rational coefficients."""
    minpoly, interval = draw(st.sampled_from(CATALOG_FIELDS))
    field = AlgebraicField(minpoly, interval)
    for _ in range(draw(st.integers(0, 40))):
        field.refine()
    coeffs = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
    count = draw(st.integers(1, 4))
    return [field.element(draw(st.lists(coeffs, min_size=field.degree,
                                        max_size=field.degree)))
            for _ in range(count)]


@settings(max_examples=100, deadline=None)
@given(algebraic_weights())
def test_algebraic_scalars_round_trip(weights):
    data = MatrixData(q=SymMatrix.identity(1), y=[(1,)] * len(weights), weights=tuple(weights))
    text = emit(data)
    lo, hi = weights[0].field.interval
    for x, obj in zip(weights, json.loads(text)["weights"]):
        # canonical "p/q": lowest terms, the denominator dropped when it is 1
        assert obj == {"minpoly": list(x.field.minpoly),
                       "interval": [str(lo), str(hi)],
                       "coeffs": [str(c) for c in x.coeffs]}
    back = parse(text)
    assert back.weights == data.weights
    assert back.weights[0].field.interval == (lo, hi)
    assert emit(back) == text


def _one_class(weight) -> str:
    """A homogeneous certificate with one class, n = N = 1, Q = [1] and the
    given JSON weight (parse checks the format only, not the equations)."""
    return json.dumps({"format_version": 1, "kind": "homogeneous", "n": 1, "N": 1,
                       "Q": {"regime": "rational", "rows": [["1"]]}, "Y": [[1]],
                       "weights": [weight], "metadata": {}})


SQRT2 = {"minpoly": [-2, 0, 1], "interval": ["1", "2"], "coeffs": ["0", "1"]}


def test_an_algebraic_scalar_parses_from_lists():
    (w,) = parse(_one_class(SQRT2)).weights
    assert w.field.minpoly == (-2, 0, 1) and w.field.interval == (1, 2)
    assert w * w == 2


@pytest.mark.parametrize("change", [
    {"interval": "12"},             # read as ["1", "2"], and the weight was sqrt 2
    {"coeffs": "01"},               # read as ["0", "1"]
    {"minpoly": "1"},
    {"interval": ["1", "2", "7"]},  # the third endpoint was ignored
    {"interval": ["1"]},
    {"interval": []},
    {"interval": {"1": "2"}},
    {"coeffs": {"0": "1"}},
    {"minpoly": None},
])
def test_algebraic_scalar_fields_must_be_lists(change):
    with pytest.raises(CertificateFormatError):
        parse(_one_class({**SQRT2, **change}))
