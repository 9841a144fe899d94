"""Direct tests of the certificate file format: canonical, byte-stable emission."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOG_FIELDS
from minitori.certificates import MatrixData, reduce_target_dimension
from minitori.constructions import CATALOG_IDS, catalog
from minitori.io import emit, parse
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
