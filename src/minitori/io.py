"""Certificate JSON files (format_version 1).

Scalars are encoded per regime: rationals as canonical "p/q" strings, floats
as native JSON numbers (repr round-trips binary64 exactly; parsing refuses
NaN, infinities, booleans and strings), algebraic scalars as
{"minpoly": [...], "interval": ["lo", "hi"], "coeffs": ["p/q", ...]} with
the minimal polynomial low-to-high; a matrix's "regime" must be that of its
entries.  Emission is canonical, so emit(parse(emit(x))) == emit(x) byte for
byte.  Algebraic coefficients go between "p/q" text and AlgebraicScalar's
integer numerators over one denominator without Fractions.  `parse` checks a
field's minpoly and interval only where their text is new in the file, and
builds one field per value ("1/2" and "2/4" give one field object); `emit`
renders each field once and writes json.dumps(indent=2)'s bytes (`_dumps`).

A general certificate lists the 2 x 2 blocks of its operator A A^t as
{"r", "s", "block"} objects: first every diagonal block a_r I2, then the
nonzero blocks with r < s in (r, s) order.  `parse` also reads a block given
at (s, r), as the transpose of the one at (r, s), and a diagonal block that
is a_r I2 only to within 1e-12 times the largest entry of the operator, as
a_r = b00: `GramOperator` holds exactly a_r and the blocks above the
diagonal.

`metadata` is emitted again as read by a writer that recurses per level, so
`parse` refuses lists and objects nested deeper than METADATA_DEPTH in it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .certificates import GramOperator, MatrixData
from .scalars import AlgebraicField, AlgebraicScalar, _element, format_rational, parse_ratio
from .symmetric import SymMatrix

FORMAT_VERSION = 1
METADATA_DEPTH = 64


class CertificateFormatError(ValueError):
    """Malformed certificate file."""


def _encode_scalar(x, fields: dict):
    """A scalar's JSON value; `fields` holds each rendered field's two lists, by id."""
    if not isinstance(x, AlgebraicScalar):
        return x if isinstance(x, float) else format_rational(x)
    f, den = x.field, x.den
    if id(f) not in fields:
        fields[id(f)] = [*f.minpoly], [format_rational(e) for e in f.interval]
    minpoly, interval = fields[id(f)]
    return {"minpoly": minpoly, "interval": interval,
            "coeffs": [format_rational(c, den) for c in x.num]}


def _ratio(text) -> tuple[int, int]:
    """A 'p/q' string as integers (p, q), q > 0; anything else is a format error."""
    if not isinstance(text, str):
        raise CertificateFormatError(f"rational scalars are 'p/q' strings, not {text!r}")
    try:
        return parse_ratio(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CertificateFormatError(f"bad rational {text!r}: {exc}") from exc


def _integer(obj) -> int:
    """A JSON integer, or a format error (int() would truncate 1.5, read true or "3")."""
    if type(obj) is not int:  # bool is an int subclass
        raise CertificateFormatError(f"expected an integer, not {obj!r}")
    return obj


def _float(obj) -> float:
    """A JSON number as a finite float, or a format error: float() would read
    true or "0.5", and NaN passes every tolerance comparison of the verifier."""
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):  # bool is an int
        raise CertificateFormatError(f"expected a number, not {obj!r}")
    try:
        if math.isfinite(x := float(obj)):
            return x
    except OverflowError:  # an int beyond the float range
        pass
    raise CertificateFormatError(f"non-finite scalar {obj!r}")


def _list(obj, length: int | None = None) -> list:
    """A JSON list, of `length` entries when given, or a format error: a
    string would be read character by character."""
    if not isinstance(obj, list):
        raise CertificateFormatError(f"expected a list, not {obj!r}")
    if length is not None and len(obj) != length:
        raise CertificateFormatError(f"expected {length} entries, not {len(obj)}")
    return obj


def _decode_scalar(obj, fields: dict):
    """A Fraction, a float or a field element.  `fields` maps the repr of a (minpoly,
    interval) as read (it tells 1 from true and 1.0) and (minpoly, lo, hi) to a field."""
    if isinstance(obj, str):
        return Fraction(*_ratio(obj))
    if isinstance(obj, (int, float)):
        return _float(obj)
    if not isinstance(obj, dict):
        raise CertificateFormatError(f"unsupported scalar encoding: {obj!r}")
    text = repr((obj.get("minpoly"), obj.get("interval")))
    field = fields.get(text)
    try:
        if field is None:
            minpoly = tuple(_integer(c) for c in _list(obj["minpoly"]))
            lo, hi = (Fraction(*_ratio(x)) for x in _list(obj["interval"], 2))
        pairs = [_ratio(c) for c in _list(obj["coeffs"])]
    except (KeyError, ValueError) as exc:
        raise CertificateFormatError(f"bad algebraic scalar: {exc}") from exc
    if field is None:
        try:
            field = fields.get((minpoly, lo, hi)) or AlgebraicField(minpoly, (lo, hi))
        except ValueError as exc:
            raise CertificateFormatError(f"bad algebraic field: {exc}") from exc
        fields[text] = fields[minpoly, lo, hi] = field
    den = math.lcm(*[q for _, q in pairs])
    num = [p * (den // q) for p, q in pairs]
    if len(num) == field.degree:
        return _element(field, num, den)
    return AlgebraicScalar(field, num)._scaled(1, den)  # reduced modulo the minpoly, or padded


def _decode_matrix(obj, fields: dict) -> SymMatrix:
    try:
        rows = obj["rows"]
    except (TypeError, KeyError) as exc:
        raise CertificateFormatError("matrix needs a 'rows' field") from exc
    q = SymMatrix([[_decode_scalar(x, fields) for x in row] for row in rows])
    if obj.get("regime", q.regime) != q.regime:
        raise CertificateFormatError(f"matrix regime {obj['regime']!r}, entries {q.regime}")
    return q


def emit(cert: MatrixData | tuple, metadata: dict | None = None) -> str:
    """Canonical JSON text for a homogeneous or general certificate.

    A general certificate is (GramOperator, Q, Y), or (GramOperator, Q, Y,
    metadata) as `parse` returns it; `metadata` entries are added to the
    certificate's own.  An algebraic scalar is written with its field's
    isolating interval as it stands at emission.  Every sign or approximation
    query on an element of the field may have narrowed that interval, so
    removing or adding such a query before emission can change the bytes.
    """
    fields: dict = {}
    if isinstance(cert, MatrixData):
        kind, q, y, big_n, own = "homogeneous", cert.q, cert.y, cert.big_n, cert.metadata
        tail = {"weights": [_encode_scalar(w, fields) for w in cert.weights]}
    else:
        (gram, q, y, *rest), kind = cert, "general"
        big_n, own = gram.N, (rest[0] if rest else {})
        tail = {"blocks": [{"r": r, "s": r, "block": [[a, 0.0], [0.0, a]]}
                           for r, a in enumerate(gram.diagonal)]
                + [{"r": r, "s": s, "block": [list(row) for row in b]}
                   for (r, s), b in gram.blocks.items()]}
    rows = [[_encode_scalar(x, fields) for x in row] for row in q.entries]
    return _dumps({"format_version": FORMAT_VERSION, "kind": kind, "n": q.n, "N": big_n,
                   "Q": {"regime": q.regime, "rows": rows}, "Y": [list(col) for col in y],
                   **tail, "metadata": _clean_metadata({**own, **(metadata or {})})}) + "\n"


_string = json.encoder.encode_basestring_ascii


def _dumps(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2) byte for byte (indent makes CPython < 3.13 encode in Python)."""
    inner = pad + "  "
    if isinstance(obj, dict):  # a number, boolean or None key is written as a string
        items = [_string(_dumps(k) if isinstance(k, (int, float)) or k is None else k) + ": "
                 + _dumps(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_string(x) if type(x) is str else repr(x) if type(x) is int else _dumps(x, inner)
                 for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)  # a float subclass (numpy's) prints as a float
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj)
    return json.dumps(obj)  # null, true, false, NaN, Infinity; a TypeError for a non-JSON type


def _clean_metadata(meta: dict) -> dict:
    return {k: format_rational(v) if isinstance(v, Fraction) else
            v if isinstance(v, (str, int, float, bool, type(None), list)) else str(v)
            for k, v in sorted(meta.items())}


def parse(text: str):
    """Parse certificate JSON into MatrixData or (GramOperator, Q, Y, metadata)."""
    try:
        doc = json.loads(text)
    # JSONDecodeError, an int beyond the digit limit, or nesting beyond the recursion limit
    except (ValueError, RecursionError) as exc:
        raise CertificateFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CertificateFormatError("top level must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise CertificateFormatError(f"unsupported format_version {doc.get('format_version')!r}")
    kind, field_cache = doc.get("kind"), {}
    try:
        n, big_n = _integer(doc["n"]), _integer(doc["N"])
        q = _decode_matrix(doc["Q"], field_cache)
        y = tuple(tuple(_integer(x) for x in col) for col in doc["Y"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"bad certificate body: {exc}") from exc
    if q.n != n or len(y) != big_n or any(len(c) != n for c in y):
        raise CertificateFormatError("inconsistent dimensions")
    if not y:
        raise CertificateFormatError("Y needs at least one column")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise CertificateFormatError("metadata must be an object")
    level, depth = [metadata], 1  # the containers of one level; metadata is level 1
    while level := [c for x in level for c in (x.values() if isinstance(x, dict) else x)
                    if isinstance(c, (list, dict))]:
        if (depth := depth + 1) > METADATA_DEPTH:
            raise CertificateFormatError(f"metadata nested deeper than {METADATA_DEPTH} levels")
    if kind == "homogeneous":
        if "weights" not in doc:
            raise CertificateFormatError("homogeneous certificate needs weights")
        try:
            weights = tuple(_decode_scalar(w, field_cache) for w in doc["weights"])
            data = MatrixData(q=q, y=y, weights=weights, metadata=dict(metadata))
        except (TypeError, ValueError) as exc:
            raise CertificateFormatError(f"bad weights: {exc}") from exc
        if field_cache and (q.regime == "float" or any(isinstance(w, float) for w in weights)):
            raise CertificateFormatError("algebraic and float scalars in one certificate")
    elif kind == "general":
        try:
            data = _gram_operator(doc["blocks"], big_n), q, y, dict(metadata)
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateFormatError(f"bad blocks: {exc}") from exc
    else:
        raise CertificateFormatError(f"unknown kind {kind!r}")
    # one field Q(w): one minpoly, overlapping intervals (not, say, a conjugate field)
    fields = list(field_cache.values())
    if any(f != fields[0] for f in fields[1:]):
        raise CertificateFormatError("algebraic scalars from more than one field")
    return data


def _gram_operator(items, big_n: int) -> GramOperator:
    """The operator of a general certificate's blocks.  A diagonal block must be a I2
    to within 1e-12 times the largest entry of the operator, and is read as a = b00; a
    missing one is 0.  Of two blocks at one place, or at (r, s) and (s, r), the later counts."""
    diagonal, off = {}, []
    for item in items:
        r, s = _integer(item["r"]), _integer(item["s"])
        block = [[_float(x) for x in row] for row in item["block"]]
        if r != s:
            off.append(((r, s), block))
        elif not 0 <= r < big_n:
            raise ValueError(f"block ({r}, {s}) is out of range")
        else:
            (b00, b01), (b10, b11) = block  # a ValueError unless 2 x 2
            diagonal[r] = (b00, b01, b10, b11)
    gram = GramOperator([diagonal[r][0] if r in diagonal else 0.0 for r in range(big_n)], off)
    entries = [x for b in diagonal.values() for x in b]
    entries += [x for b in gram.blocks.values() for row in b for x in row]
    tol = 1e-12 * max([1.0] + [abs(x) for x in entries])
    for r, (b00, b01, b10, b11) in sorted(diagonal.items()):
        if abs(b00 - b11) > tol or abs(b01) > tol or abs(b10) > tol:
            raise ValueError(f"diagonal block {r} is not a scalar multiple of I2")
    return gram

