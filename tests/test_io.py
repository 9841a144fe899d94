"""Direct tests of the certificate file format: canonical, byte-stable emission."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOG_FIELDS, reference_decode_scalar
from minitori import io as cio
from minitori.certificates import MatrixData, reduce_target_dimension
from minitori.constructions import (Bryant2TorusParams, CATALOG_IDS, PythagoreanParams,
                                    bryant_2torus, catalog, pythagorean_family)
from minitori.io import CertificateFormatError, _decode_scalar, _dumps, emit, parse
from minitori.scalars import AlgebraicField, AlgebraicScalar
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


# the five catalog fields and Q(sqrt 2)
DECODE_FIELDS = CATALOG_FIELDS + (((-2, 0, 1), (1, 2)),)


@st.composite
def spelled(draw, x):
    """A 'p/q' text of the rational x, rarely canonical: both terms times a
    factor of either sign, "-0" for zero, blanks around."""
    x = Fraction(x)
    k = draw(st.integers(1, 4)) * draw(st.sampled_from([1, -1]))
    text = f"{k * x.numerator}/{k * x.denominator}"
    if x.denominator == 1 and draw(st.booleans()):
        text = str(x.numerator) if x else "-0"
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " "]))


@st.composite
def spelled_scalars(draw):
    """Algebraic scalars of one field, as JSON objects: each names one of the
    field's successive isolating intervals, spelled anew, and has degree - 1
    to degree + 1 coefficients (the long ones are reduced modulo the minpoly)."""
    minpoly, interval = draw(st.sampled_from(DECODE_FIELDS))
    field = AlgebraicField(minpoly, interval)
    intervals = [field.interval]
    for _ in range(draw(st.integers(0, 6))):
        field.refine()
        intervals.append(field.interval)
    coeff = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
    objs, which = [], []
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(intervals) - 1))
        size = draw(st.integers(field.degree - 1, field.degree + 1))
        objs.append({"minpoly": list(minpoly),
                     "interval": [draw(spelled(x)) for x in intervals[i]],
                     "coeffs": [draw(spelled(c)) for c in draw(st.lists(coeff, min_size=size,
                                                                        max_size=size))]})
        which.append(i)
    return objs, which


@settings(max_examples=150, deadline=None)
@given(spelled_scalars())
def test_decoding_matches_the_fraction_oracle(case):
    objs, which = case
    fields, oracle_fields = {}, {}
    got = [_decode_scalar(obj, fields) for obj in objs]
    want = [reference_decode_scalar(obj, oracle_fields) for obj in objs]
    for x, y in zip(got, want):
        assert (x.num, x.den) == (y.num, y.den)
        assert x.field.minpoly == y.field.minpoly and x.field.interval == y.field.interval
    # one field object per interval value, however the interval is spelled
    for a, x in enumerate(got):
        for b, y in enumerate(got):
            assert (x.field is y.field) == (which[a] == which[b])


BAD_ENTRIES = ["1/0", "1/2/3", "a", "", " ", "1/", "/2", 5, 1.5, True, None, [1], ["1"], {}]


def _outcome(decode, obj):
    """What decoding `obj` after a valid sqrt 2 scalar (whose field is then
    cached) gives: the error message, or the value's numerators."""
    cache = {}
    decode(SQRT2, cache)
    try:
        x = decode(obj, cache)
    except CertificateFormatError as exc:
        return "error", str(exc)
    return "value", (x.num, x.den) if isinstance(x, AlgebraicScalar) else x


@pytest.mark.parametrize("where", ["scalar", "coeff", "interval"])
@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=repr)
def test_decoding_errors_match_the_fraction_oracle(where, bad):
    if where == "scalar":
        obj = bad
    elif where == "coeff":
        obj = {**SQRT2, "coeffs": ["0", bad]}
    else:
        obj = {**SQRT2, "interval": ["1", bad]}
    got = _outcome(_decode_scalar, obj)
    assert got == _outcome(reference_decode_scalar, obj)
    if where != "scalar" or isinstance(bad, (str, list)):
        assert got[0] == "error"


def test_a_boolean_or_float_minpoly_entry_misses_the_field_cache():
    # [-2, 0, true] and [-2.0, 0, 1] equal (-2, 0, 1) as tuples, so a cache
    # keyed by value would take them for the sqrt 2 field decoded before
    for minpoly in ([-2, 0, True], [-2.0, 0, 1]):
        cache = {}
        _decode_scalar(SQRT2, cache)
        with pytest.raises(CertificateFormatError, match="expected an integer"):
            _decode_scalar({**SQRT2, "minpoly": minpoly}, cache)


JSON_ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**1000, 10**1000), st.floats(),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308]),
    st.text(), st.sampled_from(["\u00e9\u4e2d\U0001f600", "\"\\/\b\f\n\r\t\x00\x1f\x7f", ""]))
JSON_KEYS = st.one_of(st.text(max_size=6), st.integers(), st.booleans(), st.none(), st.floats())
JSON_TREES = st.recursive(JSON_ATOMS, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=3).map(tuple),
    st.dictionaries(JSON_KEYS, kids, max_size=4)), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
def test_the_writer_is_json_dumps_with_indent_2(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("name", ["quartic-s7", "clifford-3", "bryant-float",
                                  "pythagorean-member"])
def test_emit_writes_the_json_dumps_bytes(name, monkeypatch):
    if name == "bryant-float":
        cert = bryant_2torus(Bryant2TorusParams(m=2, n=5, rho=0.3))
    elif name == "pythagorean-member":  # a general certificate: float blocks
        res = pythagorean_family(PythagoreanParams(triple=(3, 4, 5), r1=0.01, phi1=0.3,
                                                   psi1=0.7, r2=0.005))
        cert = (res.gram, res.q, res.y)
    else:
        cert = catalog(name)
    metadata = {"nested": [{"a": [1, -0.0, None, 10**40]}, [], {}, ("t", math.pi)],
                "text": "\u00e9 \"q\" \n", "tiny": 5e-324, "big": 1e308}
    text = emit(cert, metadata)
    monkeypatch.setattr(cio, "_dumps", lambda doc: json.dumps(doc, indent=2))
    assert emit(cert, metadata) == text


def test_metadata_at_the_nesting_bound_round_trips():
    # the metadata object is level 1, so 63 nested lists inside it reach the
    # bound; every file parse accepts is emitted again, byte for byte
    deep = json.loads("[" * (cio.METADATA_DEPTH - 1) + "]" * (cio.METADATA_DEPTH - 1))
    text = emit(catalog("clifford-3"), {"deep": deep})
    cert = parse(text)
    assert cert.metadata["deep"] == deep
    assert emit(cert) == text
    doc = json.loads(text)
    doc["metadata"]["deep"] = [deep]
    with pytest.raises(CertificateFormatError, match="nested deeper than 64 levels"):
        parse(json.dumps(doc))
    # an object counts as a level like a list
    doc["metadata"]["deep"] = {"k": deep}
    with pytest.raises(CertificateFormatError, match="nested deeper"):
        parse(json.dumps(doc))
