"""Certificate JSON files (format_version 1).

Scalars are encoded per regime: rationals as canonical "p/q" strings, floats
as native JSON numbers (repr round-trips binary64 exactly; parsing refuses
NaN and infinities), algebraic scalars as
{"minpoly": [...], "interval": ["lo", "hi"], "coeffs": ["p/q", ...]} with
the minimal polynomial low-to-high.  Emission is canonical, so
emit(parse(emit(x))) == emit(x) byte for byte.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Union

from .certificates import GramOperator, MatrixData, write_block
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


def _decode_scalar(obj, field_cache: dict):
    if isinstance(obj, str):
        return parse_rational(obj)
    if isinstance(obj, (int, float)):
        try:
            x = float(obj)
        except OverflowError:
            x = math.inf
        if not math.isfinite(x):
            # NaN would pass every tolerance comparison of the verifier
            raise CertificateFormatError(f"non-finite scalar {obj!r}")
        return x
    if isinstance(obj, dict):
        try:
            minpoly = tuple(int(c) for c in obj["minpoly"])
            lo = parse_rational(obj["interval"][0])
            hi = parse_rational(obj["interval"][1])
            coeffs = [parse_rational(c) for c in obj["coeffs"]]
        except (KeyError, IndexError, ValueError) as exc:
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
        blocks = []
        for r in range(gram.N):
            blocks.append({"r": r, "s": r, "block": [[gram.a(r), 0.0], [0.0, gram.a(r)]]})
        for r in range(gram.N):
            for s in range(r + 1, gram.N):
                b = gram.block(r, s)
                if any(x != 0.0 for row in b for x in row):
                    blocks.append({"r": r, "s": s, "block": [list(row) for row in b]})
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
        n = int(doc["n"])
        big_n = int(doc["N"])
        q = _decode_matrix(doc["Q"], field_cache)
        y = tuple(tuple(int(x) for x in col) for col in doc["Y"])
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
        _check_one_field(field_cache)
        return data
    if kind == "general":
        try:
            m = [[0.0] * (2 * big_n) for _ in range(2 * big_n)]
            for item in doc["blocks"]:
                write_block(m, int(item["r"]), int(item["s"]), item["block"])
            gram = GramOperator(m)
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateFormatError(f"bad blocks: {exc}") from exc
        _check_one_field(field_cache)
        return gram, q, y, dict(metadata)
    raise CertificateFormatError(f"unknown kind {kind!r}")


def _check_one_field(field_cache: dict) -> None:
    """All algebraic scalars of a certificate must lie in one field Q(w): the
    same minimal polynomial and overlapping isolating intervals (so not, say,
    a weight in a conjugate field)."""
    fields = list(field_cache.values())
    if any(f != fields[0] for f in fields[1:]):
        raise CertificateFormatError("algebraic scalars from more than one field")


def write_certificate(path, cert, metadata: dict | None = None) -> None:
    text = emit(cert, metadata)
    with open(path, "w") as fh:
        fh.write(text)


def read_certificate(path):
    with open(path) as fh:
        return parse(fh.read())
