"""Certificate JSON files (format_version 1).

Scalars are encoded per regime: rationals as canonical "p/q" strings, floats
as native JSON numbers (repr round-trips binary64 exactly; parsing refuses
NaN, infinities, booleans and strings), algebraic scalars as
{"minpoly": [...], "interval": ["lo", "hi"], "coeffs": ["p/q", ...]} with
the minimal polynomial low-to-high.  Emission is canonical, so
emit(parse(emit(x))) == emit(x) byte for byte.

A general certificate lists the 2 x 2 blocks of its operator A A^t as
{"r", "s", "block"} objects: first every diagonal block a_r I2, then the
nonzero blocks with r < s in (r, s) order.  `parse` also reads a block given
at (s, r), as the transpose of the one at (r, s), and a diagonal block that
is a_r I2 only to within 1e-12 times the largest entry of the operator, as
a_r = b00: `GramOperator` holds exactly a_r and the blocks above the
diagonal.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Union

from .certificates import GramOperator, MatrixData
from .scalars import AlgebraicField, AlgebraicScalar, format_rational, parse_rational
from .symmetric import SymMatrix

FORMAT_VERSION = 1


class CertificateFormatError(ValueError):
    """Malformed certificate file."""


def _encode_scalar(x):
    if isinstance(x, AlgebraicScalar):
        lo, hi = x.field.interval
        return {
            "minpoly": [int(c) for c in x.field.minpoly],
            "interval": [format_rational(lo), format_rational(hi)],
            "coeffs": [format_rational(c) for c in x.coeffs],
        }
    if isinstance(x, float):
        return x
    return format_rational(x)


def _rational(text) -> Fraction:
    """A 'p/q' string as a Fraction; anything else is a format error."""
    if not isinstance(text, str):
        raise CertificateFormatError(f"rational scalars are 'p/q' strings, not {text!r}")
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CertificateFormatError(f"bad rational {text!r}: {exc}") from exc


def _integer(obj) -> int:
    """A JSON integer, or a format error: int() would truncate 1.5 and read
    true or "3"."""
    if type(obj) is not int:  # bool is an int subclass
        raise CertificateFormatError(f"expected an integer, not {obj!r}")
    return obj


def _float(obj) -> float:
    """A JSON number as a finite float, or a format error: float() would read
    true or "0.5", and NaN passes every tolerance comparison of the verifier."""
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):  # bool is an int
        raise CertificateFormatError(f"expected a number, not {obj!r}")
    try:
        x = float(obj)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise CertificateFormatError(f"non-finite scalar {obj!r}")
    return x


def _list(obj, length: int | None = None) -> list:
    """A JSON list, of `length` entries when given, or a format error: a
    string would be read character by character."""
    if not isinstance(obj, list):
        raise CertificateFormatError(f"expected a list, not {obj!r}")
    if length is not None and len(obj) != length:
        raise CertificateFormatError(f"expected {length} entries, not {len(obj)}")
    return obj


def _decode_scalar(obj, field_cache: dict):
    if isinstance(obj, str):
        return _rational(obj)
    if isinstance(obj, (int, float)):
        return _float(obj)
    if isinstance(obj, dict):
        try:
            minpoly = tuple(_integer(c) for c in _list(obj["minpoly"]))
            lo, hi = (_rational(x) for x in _list(obj["interval"], 2))
            coeffs = [_rational(c) for c in _list(obj["coeffs"])]
        except (KeyError, ValueError) as exc:
            raise CertificateFormatError(f"bad algebraic scalar: {exc}") from exc
        key = (minpoly, lo, hi)
        if key not in field_cache:
            try:
                field_cache[key] = AlgebraicField(minpoly, (lo, hi))
            except ValueError as exc:
                raise CertificateFormatError(f"bad algebraic field: {exc}") from exc
        return AlgebraicScalar(field_cache[key], coeffs)
    raise CertificateFormatError(f"unsupported scalar encoding: {obj!r}")


def _encode_matrix(q: SymMatrix) -> dict:
    return {
        "regime": q.regime,
        "rows": [[_encode_scalar(x) for x in row] for row in q.entries],
    }


def _decode_matrix(obj, field_cache: dict) -> SymMatrix:
    try:
        rows = obj["rows"]
    except (TypeError, KeyError) as exc:
        raise CertificateFormatError("matrix needs a 'rows' field") from exc
    return SymMatrix([[_decode_scalar(x, field_cache) for x in row] for row in rows])


def emit(cert: Union[MatrixData, tuple], metadata: dict | None = None) -> str:
    """Canonical JSON text for a homogeneous or general certificate.

    A general certificate is (GramOperator, Q, Y), or (GramOperator, Q, Y,
    metadata) as `parse` returns it; `metadata` entries are added to the
    certificate's own.  An algebraic scalar is written with its field's
    isolating interval as it stands at emission.  Every sign or approximation
    query on an element of the field may have narrowed that interval, so
    removing or adding such a query before emission can change the bytes.
    """
    if isinstance(cert, MatrixData):
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "homogeneous",
            "n": cert.n,
            "N": cert.big_n,
            "Q": _encode_matrix(cert.q),
            "Y": [list(col) for col in cert.y],
            "weights": [_encode_scalar(w) for w in cert.weights],
            "metadata": _clean_metadata({**cert.metadata, **(metadata or {})}),
        }
    else:
        gram, q, y, *own = cert
        blocks = [{"r": r, "s": r, "block": [[a, 0.0], [0.0, a]]}
                  for r, a in enumerate(gram.diagonal)]
        blocks += [{"r": r, "s": s, "block": [list(row) for row in b]}
                   for (r, s), b in gram.blocks.items()]
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "general",
            "n": q.n,
            "N": gram.N,
            "Q": _encode_matrix(q),
            "Y": [list(col) for col in y],
            "blocks": blocks,
            "metadata": _clean_metadata({**(own[0] if own else {}), **(metadata or {})}),
        }
    return json.dumps(doc, indent=2) + "\n"


def _clean_metadata(meta: dict) -> dict:
    out = {}
    for k, v in sorted(meta.items()):
        if isinstance(v, Fraction):
            out[k] = format_rational(v)
        elif isinstance(v, (str, int, float, bool, type(None), list)):
            out[k] = v
        else:
            out[k] = str(v)
    return out


def parse(text: str):
    """Parse certificate JSON into MatrixData or (GramOperator, Q, Y, metadata)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CertificateFormatError("top level must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise CertificateFormatError(f"unsupported format_version {version!r}")
    kind = doc.get("kind")
    field_cache: dict = {}
    try:
        n = _integer(doc["n"])
        big_n = _integer(doc["N"])
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
        _check_one_field(field_cache)
        return data
    if kind == "general":
        try:
            gram = _gram_operator(doc["blocks"], big_n)
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateFormatError(f"bad blocks: {exc}") from exc
        _check_one_field(field_cache)
        return gram, q, y, dict(metadata)
    raise CertificateFormatError(f"unknown kind {kind!r}")


def _gram_operator(items, big_n: int) -> GramOperator:
    """The operator of a general certificate's blocks.  A diagonal block must
    be a I2 to within 1e-12 times the largest entry of the operator, and is
    read as a = b00; a missing one is 0.  Of two blocks at one place, or at
    (r, s) and (s, r), the later one counts."""
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


def _check_one_field(field_cache: dict) -> None:
    """All algebraic scalars of a certificate must lie in one field Q(w): the
    same minimal polynomial and overlapping isolating intervals (so not, say,
    a weight in a conjugate field)."""
    fields = list(field_cache.values())
    if any(f != fields[0] for f in fields[1:]):
        raise CertificateFormatError("algebraic scalars from more than one field")
