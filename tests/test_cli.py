import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minitori
from minitori.cli import main
from minitori.constructions import (Bryant2TorusParams, PythagoreanParams, bryant_2torus,
                                    catalog, pythagorean_family)
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


def _general_document():
    res = pythagorean_family(PythagoreanParams(triple=(3, 4, 5)))
    return json.loads(emit((res.gram, res.q, res.y)))


def _malformed(name):
    """The malformed certificate files: each must exit 65, never with a traceback."""
    if name == "invalid-json":
        return "{not json"
    if name in ("weight-nan", "q-inf", "q-int-overflow"):
        # the float certificate of `construct bryant --mn 2 5 --rho 0.3`
        doc = json.loads(emit(bryant_2torus(Bryant2TorusParams(m=2, n=5, rho=0.3))))
        if name == "weight-nan":
            doc["weights"][0] = float("nan")
        elif name == "q-inf":
            doc["Q"]["rows"][0][0] = float("inf")
        else:  # a JSON integer beyond the float range
            doc["Q"]["rows"][0][0] = 10**400
        return json.dumps(doc)
    if name.startswith("block-"):
        doc = _general_document()
        if name == "block-out-of-range":
            doc["blocks"][0].update(r=12, s=12)
        elif name == "block-not-2x2":
            doc["blocks"][0]["block"] = [[1.0, 0.0, 0.0]]
        elif name == "block-not-scalar":  # a diagonal block must be a multiple of I2
            doc["blocks"][0]["block"] = [[1.0, 0.0], [0.0, 2.0]]
        elif name == "block-nan":  # NaN would pass every tolerance comparison
            doc["blocks"][0]["block"] = [[float("nan"), 0.0], [0.0, float("nan")]]
        return json.dumps(doc)
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
             "reducible-minpoly", "conjugate-field", "empty-Y",
             "block-out-of-range", "block-not-2x2", "block-not-scalar", "block-nan",
             "weight-nan", "q-inf", "q-int-overflow")


@pytest.mark.parametrize("name", MALFORMED)
def test_verify_malformed_file_exits_65(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(_malformed(name))
    assert main(["verify", str(path)]) == 65
    assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize("tol, negate", [("nan", True), ("-1", False)])
def test_verify_rejects_a_tolerance_that_decides_nothing_with_64(tol, negate, tmp_path, capsys):
    # NaN passed every comparison, so a negated weight verified (exit 0);
    # -1 failed every one, so the unmodified certificate was falsified
    doc = json.loads(emit(bryant_2torus(Bryant2TorusParams(m=2, n=5, rho=0.3))))
    if negate:
        doc["weights"][0] = -doc["weights"][0]
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--tol", "1e-10", str(path)]) == (1 if negate else 0)
    capsys.readouterr()
    assert main(["verify", "--tol", tol, str(path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--gram", "I3", "--spectrum", "0"],
    ["--gram", "I3", "--spectrum", "-1"],
    ["--gram", "I3", "--target", "-1"],
    ["--gram", "I3", "--target", "abc"],
    ["--gram", "I0", "--target", "1"],
])
def test_enumerate_malformed_flags_exit_64(argv, capsys):
    assert main(["enumerate"] + argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


# One command of each kind the benchmark workloads run, plus `verify` on a
# Pythagorean (general) certificate.  Commands run in order, so later ones
# read the files earlier ones write.
NUMPY_FREE_COMMANDS = (
    ["catalog", "cubic-s7-a", "-o", "cubic.json"],
    ["verify", "cubic.json"],
    ["verify", "--format", "json", "--exhaustive-embedding", "cubic.json"],
    ["reduce", "cubic.json", "-o", "cubic.reduced.json"],
    ["construct", "rational", "--gram", "I3", "--seed", "0", "-o", "rational.json"],
    ["construct", "pencil", "--Y", "y.txt", "-o", "pencil.json"],
    ["construct", "pythagorean", "--triple", "3", "4", "5", "-o", "pythagorean.json"],
    ["verify", "pythagorean.json"],
    ["construct", "bryant", "--mn", "1", "3", "--rho-scaled", "1/2", "-o", "bryant.json"],
    ["construct", "bryant", "--mn", "2", "5", "--rho", "0.3", "-o", "bryant-float.json"],
    ["enumerate", "--gram", "I4", "--spectrum", "20"],
    ["enumerate", "--gram", "float.json", "--spectrum", "20"],
    ["enumerate", "--gram", "diag:3/2,2,5/2", "--shortest"],
    ["enumerate", "--gram", "I3", "--target", "2"],
)

NUMPY_CHECK = """
import json, sys
import minitori.cli
assert "numpy" not in sys.modules, "import minitori.cli"
for argv in json.loads(sys.argv[1]):
    code = minitori.cli.main(argv)
    assert code == 0, (argv, code)
    assert "numpy" not in sys.modules, argv
"""


def test_commands_never_import_numpy(tmp_path):
    scale, extra = PENCIL_SETS["rank4-deg2"]
    cols = [tuple(scale if i == k else 0 for i in range(3)) for k in range(3)] + extra
    (tmp_path / "y.txt").write_text(
        "".join(" ".join(str(c[i]) for c in cols) + "\n" for i in range(3)))
    (tmp_path / "float.json").write_text(
        json.dumps({"rows": [[1.0, 0.25, 0.0], [0.25, 1.5, 0.125], [0.0, 0.125, 2.0]]}))
    src = str(Path(minitori.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_CHECK, json.dumps(NUMPY_FREE_COMMANDS)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
