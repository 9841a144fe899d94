import json

import pytest

from minitori.cli import main
from minitori.constructions import catalog
from minitori.io import emit

# 3 x N integer vector sets: the standard basis (times the scale) plus the
# listed columns; rank{Y_j Y_j^t} is 5 or 4, the extension degree 1 to 4.
PENCIL_SETS = {
    "rank5-deg1": (1, [(1, 1, 0), (0, 1, 1)]),
    "rank5-deg2": (1, [(6, 12, -15), (6, 9, -12)]),
    "rank4-deg2": (1, [(-3, 4, -3)]),
    "rank4-deg3": (4, [(-5, 2, -3)]),
    "rank4-deg4": (1, [(5, 7, 8)]),
}


@pytest.mark.parametrize("name", sorted(PENCIL_SETS))
def test_construct_pencil_exits_zero(name, tmp_path, capsys):
    scale, extra = PENCIL_SETS[name]
    cols = [tuple(scale if i == k else 0 for i in range(3)) for k in range(3)] + extra
    y = tmp_path / "y.txt"
    y.write_text("".join(" ".join(str(c[i]) for c in cols) + "\n" for i in range(3)))
    out = tmp_path / "cert.json"
    assert main(["construct", "pencil", "--Y", str(y), "-o", str(out)]) == 0
    assert out.exists()
    printed = capsys.readouterr().out
    assert "embeddedness:" in printed
    # the eigenfunction index is reported for the rational certificate only
    assert ("eigenfunction index" in printed) == (name == "rank5-deg1")


def _document(cert_id):
    return json.loads(emit(catalog(cert_id)))


def _malformed(name):
    """The malformed certificate files: each must exit 65, never with a traceback."""
    if name == "invalid-json":
        return "{not json"
    doc = _document("quadratic-s7" if name in ("reducible-minpoly", "conjugate-field")
                    else "clifford-3")
    if name == "format-version":
        doc["format_version"] = 2
    elif name == "weight-count":
        doc["weights"] = doc["weights"][:2]
    elif name == "weights-not-a-list":
        doc["weights"] = 5
    elif name == "reducible-minpoly":  # x^2 - 4 = (x - 2)(x + 2)
        doc["weights"][0].update(minpoly=[-4, 0, 1], interval=["1", "3"])
    elif name == "conjugate-field":  # the root -sqrt(553) of the same minpoly
        doc["weights"][0]["interval"] = ["-24", "-23"]
    elif name == "empty-Y":
        doc.update(Y=[], N=0, weights=[])
    return json.dumps(doc)


MALFORMED = ("invalid-json", "format-version", "weight-count", "weights-not-a-list",
             "reducible-minpoly", "conjugate-field", "empty-Y")


@pytest.mark.parametrize("name", MALFORMED)
def test_verify_malformed_file_exits_65(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(_malformed(name))
    assert main(["verify", str(path)]) == 65
    assert capsys.readouterr().err.startswith("parse error:")
