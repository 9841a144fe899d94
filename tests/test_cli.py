import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minitori
import minitori.certificates
from minitori.cli import (COMMANDS, MAX_IDENTITY_DIM, UsageError, _class_template,
                          _parse_from_table, build_parser, load_gram, main)
from minitori.constructions import (Bryant2TorusParams, PythagoreanParams, bryant_2torus,
                                    catalog, pythagorean_family)
from minitori.io import emit
from minitori.lattices import enumerate_norm, shortest_vectors, spectrum
from minitori.symmetric import SymMatrix
from conftest import PENCIL_SETS, pencil_columns


def _pencil_file(name, tmp_path) -> Path:
    """The 3 x N vector file of a pencil set, one row per coordinate."""
    cols = pencil_columns(name)
    y = tmp_path / "y.txt"
    y.write_text("".join(" ".join(str(c[i]) for c in cols) + "\n" for i in range(3)))
    return y


@pytest.mark.parametrize("name", sorted(PENCIL_SETS))
def test_construct_pencil_exits_zero(name, tmp_path, capsys):
    y = _pencil_file(name, tmp_path)
    out = tmp_path / "cert.json"
    assert main(["construct", "pencil", "--Y", str(y), "-o", str(out)]) == 0
    assert out.exists()
    printed = capsys.readouterr().out
    assert "embeddedness:" in printed
    # the eigenfunction index is reported for the rational certificate only
    assert ("eigenfunction index" in printed) == (name == "rank5-deg1")


def test_construct_pencil_builds_a_4_torus(tmp_path, capsys):
    # the standard basis of Z^4 plus five vectors, one row per coordinate
    y = tmp_path / "y.txt"
    y.write_text("1 0 0 0 -1 -1 0 0 0\n0 1 0 0 1 0 0 1 -1\n"
                 "0 0 1 0 0 -1 -1 1 -1\n0 0 0 1 0 -1 -1 1 0\n")
    out = tmp_path / "cert.json"
    assert main(["construct", "pencil", "--Y", str(y), "-o", str(out)]) == 0
    assert ("classes N = 9, sphere dimension = 17\nextension degree = 1\n"
            "embeddedness: embedded\n") in capsys.readouterr().out
    assert json.loads(out.read_text())["metadata"]["construction"] == "pencil"
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().out.startswith("verdict: verified\n")


def test_construct_pencil_refuses_a_three_dimensional_slice(tmp_path, capsys):
    # the standard basis of Z^3 alone leaves s = 6 - 3 = 3 free directions
    y = tmp_path / "y.txt"
    y.write_text("1 0 0\n0 1 0\n0 0 1\n")
    assert main(["construct", "pencil", "--Y", str(y)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("construction failed: the slice W_Y has dimension s = 3")
    assert captured.err.count("\n") == 1


# sha256 of the certificate file each command writes.  An algebraic scalar is
# written with its field's isolating interval as refined so far, so these pin
# every sign query of the construction too, not only the exact values.  The
# general (Pythagorean) and float (Bryant) files pin the float arithmetic of
# their constructions.
PINNED_ARGV = {
    "pythagorean-3-4-5": ["construct", "pythagorean", "--triple", "3", "4", "5"],
    "pythagorean-5-12-13": ["construct", "pythagorean", "--triple", "5", "12", "13"],
    "pythagorean-8-15-17": ["construct", "pythagorean", "--triple", "8", "15", "17"],
    "pythagorean-3-4-5-member": ["construct", "pythagorean", "--triple", "3", "4", "5",
                                 "--r1", "0.01", "--phi1", "0.3", "--psi1", "0.7",
                                 "--r2", "0.005"],
    "bryant-exact": ["construct", "bryant", "--mn", "1", "3", "--rho-scaled", "1/2"],
    "bryant-float": ["construct", "bryant", "--mn", "2", "5", "--rho", "0.3"],
}
PINNED_SHA256 = {
    "pythagorean-3-4-5": "e6a446528364a4baee700206da0451099f3f2c2f489f7ee7638d9f13838c4c1a",
    "pythagorean-5-12-13": "59f169b283f2b484de0a5df94b40e0df1e39a86db6fc70b99b84202f92bb6155",
    "pythagorean-8-15-17": "de8fc27de3e7d2957f1236782aeed10c8eae02715115317a91d28080b492c7ee",
    "pythagorean-3-4-5-member":
        "84f4f7258a72acb5fe3763efc88c8a720e370e2ea5821014245c2477614a3ad2",
    "bryant-exact": "700928cb992d12199d91cf970fe9842b16801ce27b95179f7c2cd4becac6483e",
    "bryant-float": "b9accaae42a43892f9e4f0dcf2d71f85cfef292d2d0b530805e4e4672ffa8521",
    "rank4-deg2": "ceb5e5c9421f4b889de64cfea50b92ef27b23babaca4c9da7e09a616b48d4e16",
    "rank4-deg3": "58597dd3be5befbcdb8d5545fb75eb5f4d75613418439897f6e2ae73eba131b1",
    "rank4-deg4": "2de4154d0af42e3ae5fa9f5460fb899189aaef43dccc0b9a597152f0a6526e2c",
    "rank5-deg1": "69e275c3abdbc3aaab9ee5c6d36706dd5bc0b43de08b2f1679caa1132f568b0f",
    "rank5-deg2": "0424b48e4135db8c7fcc5460f43e24e0c8a6e814e980bc2b9cb0cc837aaa88b2",
    "clifford-3": "f9b1c74a3af5b33347b2f90663f056f66588f32079833fb11ff282266a150c17",
    "quadratic-s9": "abfb96839c2c0522b3635137bbd509aae31c5923da0b5b41e6c30195431483bb",
    "quadratic-s7": "98a9d7524cf1f34f82c84a0cf617d823559444bcab8cc5d28132823f8c9a48f5",
    "cubic-s7-a": "e4c71f95b981b39b552bdb335bf8c05f390054de1c5a9e362b2003c7e4f11e3d",
    "cubic-s7-b": "99c47e105e05d613c32f2c5bfc21f567a37df4105747d20c71aa7264b235ad88",
    "quartic-s7": "1dc946c0c8044f7bed0467aebefe2cd69fd94778f0e6ae70b0379410437937df",
}


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_certificate_bytes_are_pinned(name, tmp_path, capsys):
    out = tmp_path / "cert.json"
    if name in PENCIL_SETS:
        argv = ["construct", "pencil", "--Y", str(_pencil_file(name, tmp_path))]
    else:
        argv = PINNED_ARGV.get(name, ["catalog", name])
    assert main(argv + ["-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SHA256[name]


# sha256 of the file `reduce` writes for each catalog certificate.  `reduce`
# verifies first, and every approximation and sign query of that verification
# (each weight's float and sign, in order) narrows the isolating intervals the
# reduced file is written with, so these pin the order of those queries.
PINNED_REDUCE_SHA256 = {
    "clifford-3": "95ec935c3970730b7d6b10b03e497fd9cd848fee7a13f0d09afc6283ab2e3049",
    "quadratic-s9": "76f4a850d3d7024d8a29615146eba3a29cf00962bf8e77f4ac6f557216f9e956",
    "quadratic-s7": "db4d0f089987c835a89b64e691f027d1b6683a85aaf6dd1663f8b4c195432a9e",
    "cubic-s7-a": "7323f73878d158974f004f45f1312ffd2df0710d8a8cb56c0eca192b6d6dd96f",
    "cubic-s7-b": "16c4633600f4338dace9520048fe8ec980f8d508eeafbe7dfa13926220f1f32a",
    "quartic-s7": "1fbf6525ed684646abb6d2174416387cf37b7c82f808117753dd6945f9800546",
}


@pytest.mark.parametrize("cid", sorted(PINNED_REDUCE_SHA256))
def test_reduced_catalog_bytes_are_pinned(cid, tmp_path, capsys):
    cert, out = tmp_path / "cert.json", tmp_path / "reduced.json"
    assert main(["catalog", cid, "-o", str(cert)]) == 0
    assert main(["reduce", str(cert), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_REDUCE_SHA256[cid]


# `verify --format json` of quartic-s7 with its first weight's constant
# coefficient raised by 1/10^6: n Q W = I fails, so the flat residual comes
# from Q^{-1}, and the 17 digits of each nonzero residual depend on the
# interval's refinement history up to its approximation
MOVED_WEIGHT_REPORT = """{
  "verdict": "falsified",
  "reason": "flat",
  "residuals": {
    "unit_norm": "0.00000000000000000e+00",
    "flat": "9.99999999999999955e-07",
    "weight_sum": "9.99999999999999955e-07",
    "min_weight": "0.00000000000000000e+00"
  },
  "psd_margin": null,
  "tolerance": "1.00000000000000004e-10"
}
"""


def test_a_moved_weight_reports_the_inverse_path_residuals(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["catalog", "quartic-s7", "-o", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    coeffs = doc["weights"][0]["coeffs"]
    coeffs[0] = str(Fraction(coeffs[0]) + Fraction(1, 10**6))
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 1
    assert capsys.readouterr().out.startswith("verdict: falsified (flat)\n")
    assert main(["verify", "--format", "json", str(cert)]) == 1
    assert capsys.readouterr().out == MOVED_WEIGHT_REPORT


# sha256 of the stdout of the six `enumerate` commands of the `spectrum`
# benchmark workload (the random Gram and target are those of seed 0); they
# pin every class list and spectrum line of the Fincke-Pohst kernel
SPECTRUM_GRAMS = {
    "a4.json": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "float.json": [[1.0, 0.25, 0.0], [0.25, 1.5, 0.125], [0.0, 0.125, 2.0]],
    "random.json": [["7/2", "-1/3", "1/2", "-1/3"], ["-1/3", "4", "1/2", "-1/6"],
                    ["1/2", "1/2", "2", "-1/2"], ["-1/3", "-1/6", "-1/2", "2"]],
}
PINNED_ENUMERATE_SHA256 = {
    "I4 --spectrum 80": "aa79ab838d6a782879bafbb9ad26780d4b5175f44a4600828b42a849eb8b0a8c",
    "I6 --target 25": "928efefcd7988e5cb6b82f62f361e94d90b3f8492bf29bd8459949befd0a55fc",
    "a4.json --spectrum 40": "d4979911b6b5c71830d9ef75fc456e373e3a490412fb1923fadc51172acb27d2",
    "float.json --spectrum 40":
        "e1c19aba08f8839f65df71602d24d4d6aa20b7a9babcbf5e6c8517fcfd0a5412",
    "diag:3/2,2,5/2,3,7/2 --shortest":
        "12bbfce63c1337318013e8623fc28488be877e33238d65ec7448afe38c586047",
    "random.json --target 7/2": "28b42796e5a7fddb00ade4626f23c45e32441517a5c2c73f3ee24de645db366e",
}


@pytest.mark.parametrize("command", sorted(PINNED_ENUMERATE_SHA256))
def test_enumerate_bytes_are_pinned(command, tmp_path, monkeypatch, capsys):
    for name, rows in SPECTRUM_GRAMS.items():
        (tmp_path / name).write_text(json.dumps({"rows": rows}))
    monkeypatch.chdir(tmp_path)
    gram, *flags = command.split()
    assert main(["enumerate", "--gram", gram, *flags]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_ENUMERATE_SHA256[command]


def test_certify_commands_repeat_byte_for_byte_in_one_process(tmp_path, monkeypatch, capsys):
    # the catalog, verify and reduce commands of every catalog id, twice in
    # one interpreter: the second round answers its Sturm sequences, root
    # isolations and factorings from the polynomial memo the first filled,
    # and every field is built afresh, so stdout, exit codes and files repeat.
    # Between the rounds the one parser of the process sees a usage error, a
    # help and a malformed certificate, and must keep no state from them
    from minitori.constructions import CATALOG_IDS

    rounds = []
    for name in ("first", "second"):
        if rounds:
            assert main(["verify", "a.json", "--bogus"]) == 64
            with pytest.raises(SystemExit) as exc:
                main(["construct", "pencil", "--help"])
            assert exc.value.code == 0
            bad = tmp_path / "bad.json"
            bad.write_text(_malformed("weight-zero-denominator"))
            assert main(["verify", str(bad)]) == 65
            capsys.readouterr()
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        results = []
        for cid in CATALOG_IDS:
            f, r = f"{cid}.json", f"{cid}.reduced.json"
            for argv in (["catalog", cid, "-o", f], ["verify", f],
                         ["verify", "--format", "json", "--exhaustive-embedding", f],
                         ["reduce", f, "-o", r], ["verify", r]):
                code = main(argv)
                results.append((argv, code, capsys.readouterr().out))
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        rounds.append((results, files))
    (first, first_files), (second, second_files) = rounds
    assert len(first) == 30 and all(code == 0 for _, code, _ in first)
    assert len(first_files) == 12
    assert second == first
    assert second_files == first_files


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
        elif name == "block-index-boolean":  # int() read false as the index 0
            doc["blocks"][0].update(r=False, s=False)
        elif name == "block-string-and-boolean":  # float() read these, and it verified
            x = str(doc["blocks"][0]["block"][0][0])
            doc["blocks"][0]["block"] = [[x, False], [False, x]]
        return json.dumps(doc)
    if name == "interval-extra-endpoint":
        # every isolating interval of quadratic-s9 with a third entry "7",
        # which the parser used to ignore
        doc = _document("quadratic-s9")
        scalars = doc["weights"] + [x for row in doc["Q"]["rows"] for x in row]
        for x in scalars:
            if isinstance(x, dict):
                x["interval"].append("7")
        return json.dumps(doc)
    doc = _document("quadratic-s7" if name in ("reducible-minpoly", "conjugate-field",
                                               "mixed-regimes", "interval-numbers",
                                               "coeffs-numbers", "minpoly-not-integers",
                                               "regime-mismatch")
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
    elif name == "mixed-regimes":  # float weights beside an algebraic Q
        doc["weights"] = [0.25] * len(doc["weights"])
    elif name == "weight-zero-denominator":
        doc["weights"][0] = "1/0"
    elif name == "weight-boolean":  # bool is an int, and True would read as 1.0
        doc["weights"][0] = True
    elif name == "interval-numbers":  # rationals of an algebraic scalar are 'p/q' strings
        doc["weights"][0]["interval"] = [23, 24]
    elif name == "coeffs-numbers":
        doc["weights"][0]["coeffs"] = [1, 0]
    elif name == "y-float":  # int() truncated it to 1, and the certificate verified
        doc["Y"][0][0] = 1.5
    elif name == "y-boolean":
        doc["Y"][0][0] = True
    elif name == "y-string":
        doc["Y"][0][0] = "1"
    elif name == "n-float":
        doc["n"] = 3.0
    elif name == "regime-mismatch":  # ignored, and the algebraic entries verified
        doc["Q"]["regime"] = "float"
    elif name == "minpoly-not-integers":  # truncated to [-553, 0, 1], this verified
        for w in doc["weights"] + [x for row in doc["Q"]["rows"] for x in row]:
            w["minpoly"] = [-553.7, False, 1.9]
    return json.dumps(doc)


MALFORMED = ("invalid-json", "format-version", "weight-count", "weights-not-a-list",
             "reducible-minpoly", "conjugate-field", "empty-Y",
             "block-out-of-range", "block-not-2x2", "block-not-scalar", "block-nan",
             "block-index-boolean", "block-string-and-boolean", "y-float", "y-boolean", "y-string", "n-float",
             "weight-nan", "q-inf", "q-int-overflow", "mixed-regimes",
             "weight-zero-denominator", "weight-boolean", "interval-numbers", "coeffs-numbers",
             "minpoly-not-integers", "interval-extra-endpoint", "regime-mismatch")


@pytest.mark.parametrize("name", MALFORMED)
def test_verify_malformed_file_exits_65(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(_malformed(name))
    assert main(["verify", str(path)]) == 65
    assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize("name", MALFORMED)
def test_reduce_malformed_file_exits_65(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(_malformed(name))
    assert main(["reduce", str(path), "-o", str(tmp_path / "out.json")]) == 65
    assert capsys.readouterr().err.startswith("parse error:")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("kind", ["not-utf8", "long-int"])
@pytest.mark.parametrize("command", [["verify"], ["reduce"],
                                     ["enumerate", "--target", "1", "--gram"],
                                     ["construct", "rational", "--gram"]], ids=" ".join)
def test_undecodable_file_exits_65(kind, command, tmp_path, capsys):
    # both ended in a traceback with exit 1: a UnicodeDecodeError raised
    # outside the parser, and the ValueError json.loads raises for an integer
    # literal beyond the interpreter's digit limit (4300 by default)
    if kind == "long-int" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on integer string conversion")
    path = tmp_path / "file.json"
    if kind == "not-utf8":
        path.write_bytes(b"\xff\xfe{")
    elif command[-1] == "--gram":
        path.write_text('{"rows": [[%s]]}' % ("9" * 5000))
    else:
        path.write_text(json.dumps({**_document("clifford-3"), "n": "N"})
                        .replace('"N"', "9" * 5000))
    assert main(command + [str(path)]) == 65
    assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize("command", [["verify"], ["reduce"],
                                     ["enumerate", "--target", "1", "--gram"]], ids=" ".join)
def test_nesting_beyond_the_recursion_limit_exits_65(command, tmp_path):
    # json.loads raises RecursionError, which ended each command in a
    # traceback with exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    src = str(Path(minitori.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "minitori.cli", *command, str(path)],
                          capture_output=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 65
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"parse error: ")
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [["verify"], ["reduce"]], ids=" ".join)
def test_metadata_nested_beyond_the_bound_exits_65(command, tmp_path):
    # 499 nested lists parse (json.loads nests to about 990), but the
    # recursive writer ran out of stack: `reduce` printed its summary line and
    # ended in a RecursionError traceback with exit 1, and `verify` exited 0
    doc = _document("clifford-3")
    doc["metadata"]["deep"] = json.loads("[" * 499 + "]" * 499)
    path = tmp_path / "deep-metadata.json"
    path.write_text(json.dumps(doc))
    src = str(Path(minitori.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "minitori.cli", *command, str(path),
                           *(["-o", str(tmp_path / "out.json")] if command == ["reduce"] else [])],
                          capture_output=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 65
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"parse error: metadata nested deeper than")
    assert b"Traceback" not in proc.stderr
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("rho, before, after", [("0.3", 4, 3), ("0.0", 3, 3)])
def test_reduce_keeps_float_weights_verified(rho, before, after, tmp_path, capsys):
    # the elimination loop returned every weight lifted to a Fraction, an
    # exact certificate whose flat equation held only up to rounding: verify
    # printed "falsified (flat)" and exited 1, for rho = 0.0 with nothing reduced
    cert, reduced = tmp_path / "b.json", tmp_path / "r.json"
    assert main(["construct", "bryant", "--mn", "2", "5", "--rho", rho, "-o", str(cert)]) == 0
    assert main(["reduce", str(cert), "-o", str(reduced)]) == 0
    assert main(["verify", str(reduced)]) == 0
    assert f"(classes {before} -> {after})" in capsys.readouterr().out
    weights = json.loads(reduced.read_text())["weights"]
    assert len(weights) == after and all(isinstance(w, float) for w in weights)


def test_reduce_of_a_falsified_certificate_exits_1(tmp_path, capsys):
    doc = _document("clifford-3")
    doc["weights"][0] = "1/2"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["reduce", str(path), "-o", str(tmp_path / "out.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: certificate is falsified: ")
    assert not (tmp_path / "out.json").exists()


def test_reduce_of_a_general_certificate_is_a_usage_error(tmp_path, capsys):
    # the default Pythagorean member is homogeneous, but its file is of kind
    # "general": reduce does not take it, and nothing was falsified
    path = tmp_path / "py.json"
    assert main(["construct", "pythagorean", "--triple", "3", "4", "5", "-o", str(path)]) == 0
    assert "homogeneous = True" in capsys.readouterr().out
    assert main(["reduce", str(path)]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert '"general"' in err and '"homogeneous"' in err


def test_reduce_lets_an_unexpected_error_propagate(tmp_path, monkeypatch):
    # only an unverified certificate exits 1; any other error is a bug, and a
    # catch-all made it read as a falsified certificate
    def broken(cols, weights):
        raise RuntimeError("broken reduction")
    monkeypatch.setattr(minitori.certificates, "caratheodory_reduce", broken)
    path = tmp_path / "clifford-3.json"
    path.write_text(json.dumps(_document("clifford-3")))
    with pytest.raises(RuntimeError, match="broken reduction"):
        main(["reduce", str(path), "-o", str(tmp_path / "out.json")])


# every command that writes a certificate with -o; run in tmp_path
WRITING_COMMANDS = {
    "catalog": ["catalog", "clifford-3"],
    "reduce": ["reduce", "clifford-3.json"],
    "rational": ["construct", "rational", "--gram", "I3"],
    "pencil": ["construct", "pencil", "--Y", "y.txt"],
    "pythagorean": ["construct", "pythagorean", "--triple", "3", "4", "5"],
    "bryant": ["construct", "bryant", "--mn", "1", "3", "--rho-scaled", "1/2"],
}


@pytest.mark.parametrize("out", ["missing/c.json", "."], ids=["missing-directory", "directory"])
@pytest.mark.parametrize("name", WRITING_COMMANDS)
def test_an_unwritable_output_exits_64(name, out, tmp_path, monkeypatch, capsys):
    # the write raised FileNotFoundError or IsADirectoryError: a traceback, exit 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "clifford-3.json").write_text(json.dumps(_document("clifford-3")))
    _pencil_file("rank5-deg1", tmp_path)
    assert main(WRITING_COMMANDS[name] + ["-o", out]) == 64
    captured = capsys.readouterr()
    # reduce prints its summary before it writes; nothing else reaches stdout
    assert captured.out == ("sphere dimension 5 -> 5 (classes 3 -> 3)\n" if name == "reduce"
                            else "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exhaustive_embedding_of_a_rank_deficient_y(fmt, tmp_path, capsys):
    # a zero column leaves rank(Y) = 2 < n: no embeddedness test, a falsified report
    doc = _document("clifford-3")
    doc["Y"][0] = [0, 0, 0]
    path = tmp_path / "rank2.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--format", fmt, "--exhaustive-embedding", str(path)]) == 1
    out = capsys.readouterr().out
    first, report = out.split("\n", 1)
    assert first == "embeddedness: not applicable (rank(Y) < n)"
    if fmt == "json":
        assert json.loads(report)["reason"] == "rank"
    else:
        assert report.startswith("verdict: falsified (rank)\n")


MALFORMED_GRAMS = {
    "no-rows": {"a": 1},
    "rows-not-a-list": {"rows": 5},
    "no-rows-at-all": {"rows": []},
    "ragged": [[1, 0], [0]],
    "unparsable-entry": [[1, "x"], ["x", 1]],
    "zero-denominator": [[1, "1/0"], ["1/0", 1]],
    "null-entry": [[1, None], [None, 1]],
    "nan-entry": [[float("nan"), 0.0], [0.0, 1.0]],
    "boolean-entry": [[True, False], [False, True]],
}


@pytest.mark.parametrize("command", [["enumerate", "--target", "1"], ["construct", "rational"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("name", sorted(MALFORMED_GRAMS))
def test_malformed_gram_file_exits_65(name, command, tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(MALFORMED_GRAMS[name]))
    assert main(command + ["--gram", str(path)]) == 65
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
    ["--gram", "I2", "--target", "1", "--shortest"],  # more than one mode
    ["--gram", "I2", "--target", "2", "--spectrum", "3"],
    ["--gram", "I2", "--shortest", "--spectrum", "3"],
    ["--gram", "I2", "--spectrum", "0", "--shortest", "--target", "1"],
    ["--gram", "I2"],  # no mode
])
def test_enumerate_malformed_flags_exit_64(argv, capsys):
    assert main(["enumerate"] + argv) == 64
    out, err = capsys.readouterr()
    assert err.startswith("usage error:") and err.count("\n") == 1
    modes = [flag for flag in argv if flag in ("--target", "--shortest", "--spectrum")]
    if len(modes) > 1:  # the message names every mode given, and nothing is printed
        assert all(flag in err for flag in modes) and out == ""


@pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["no-id", "unknown-id"])
def test_catalog_without_a_known_id_exits_64(argv, capsys):
    # both printed "error: ..." without the usage error prefix
    assert main(["catalog"] + argv) == 64
    out, err = capsys.readouterr()
    assert err.startswith("usage error:") and err.count("\n") == 1 and out == ""
    assert ("'bogus'" in err) == bool(argv)


@given(st.lists(st.one_of(st.integers(-10, 10), st.integers(2**64, 2**70),
                          st.integers(-2**70, -2**64)), min_size=1, max_size=7).map(tuple))
def test_class_template_prints_a_tuple_as_an_f_string(c):
    # n = 1 keeps the trailing comma; negative and wider than 64-bit entries
    assert _class_template(len(c)) % c == f"  {c}\n"


def test_an_empty_class_list_prints_only_its_header(capsys):
    assert main(["enumerate", "--gram", "I1", "--target", "3"]) == 0
    assert capsys.readouterr().out == "0 classes of norm 3\n"


def _printed(*lines) -> str:
    """What `print` writes for each tuple of arguments in `lines`."""
    out = io.StringIO()
    for args in lines:
        print(*args, file=out)
    return out.getvalue()


@pytest.mark.parametrize("argv", [
    ["--gram", "I6", "--target", "25"],
    ["--gram", "diag:3/2,2,5/2,3,7/2", "--shortest"],
    ["--gram", "I4", "--spectrum", "80"],
    ["--gram", "fg.json", "--spectrum", "12"],
    ["--gram", "fg.json", "--target", "3/2"],
])
def test_enumerate_writes_the_per_line_print_bytes(argv, tmp_path, monkeypatch, capsys):
    # each list is one write; its bytes are those of one print per line
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fg.json").write_text(
        json.dumps({"rows": [[1.0, 0.1, 0.0], [0.1, 1.5, 0.2], [0.0, 0.2, 2.0]]}))
    assert main(["enumerate"] + argv) == 0
    gram = load_gram(argv[1])
    if argv[2] == "--spectrum":
        want = _printed(*((f"eigenvalue {line.eigenvalue:.12g}  multiplicity {line.multiplicity}"
                           f"  (|xi|^2 = {line.norm})",) for line in spectrum(gram, int(argv[3]))))
    elif argv[2] == "--shortest":
        lam, classes = shortest_vectors(gram)
        want = _printed((f"lambda_1 = {lam}",), *((" ", c) for c in classes))
    else:
        classes = enumerate_norm(gram, Fraction(argv[3]))
        want = _printed((f"{len(classes)} classes of norm {classes.target}",),
                        *((" ", c) for c in classes))
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("argv", [["--target", "25"], ["--spectrum", "5"]],
                         ids=["long", "short"])
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_pipe_exits_141_without_a_traceback(argv, unbuffered):
    # the read end is closed before the command starts, so its first write
    # fails; buffered, a short output fails only at the flush in main, and is
    # still buffered when the interpreter exits
    read, write = os.pipe()
    os.close(read)
    src = str(Path(minitori.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    try:
        proc = subprocess.run([sys.executable, "-m", "minitori.cli", "enumerate", "--gram", "I6",
                               *argv], stdout=write, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("flags", [["--shortest"], ["--spectrum", "3"]])
def test_an_incomplete_enumeration_exits_2_without_a_traceback(flags, tmp_path):
    # a Gram this close to singular needs coordinates beyond the box bound
    gram = tmp_path / "thin.json"
    near = "99999999999999/100000000000000"
    gram.write_text(json.dumps({"rows": [["1", near], [near, "1"]]}))
    src = str(Path(minitori.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "minitori.cli", "enumerate", "--gram", str(gram),
                           *flags], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: enumeration incomplete: ")
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["bryant", "--mn", "1", "3", "--rho-scaled", "abc"],
    ["bryant", "--mn", "1", "3", "--rho", "nan"],
    ["bryant", "--mn", "1", "3", "--rho", "inf"],
    ["pythagorean", "--triple", "3", "4", "5", "--phi1", "inf"],
    ["pythagorean", "--triple", "3", "4", "5", "--r1", "nan"],
    ["pythagorean", "--triple", "3", "4", "5", "--psi2=-inf"],
    ["pythagorean", "--triple", "3", "4", "5", "--r2", "abc"],
    ["rational", "--gram", "I3", "--samples", "0"],
    ["rational", "--gram", "I3", "--max-denominator", "0"],
])
def test_construct_malformed_flags_exit_64(argv, capsys):
    assert main(["construct"] + argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("rows", ["1 0 0\n0 1\n0 0 1\n", "1 0 0\n0 1 0 12 9\n0 0 1\n"],
                         ids=["short-row", "long-row"])
def test_ragged_vector_file_exits_64(rows, tmp_path, capsys):
    # a shorter row raised IndexError; a longer one was cut to the first row's length
    y = tmp_path / "y.txt"
    y.write_text(rows)
    assert main(["construct", "pencil", "--Y", str(y)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "unequal lengths" in err and err.count("\n") == 1


def test_overflowing_amplitude_is_a_construction_failure(capsys):
    # alpha^2 overflowed into an OverflowError traceback
    assert main(["construct", "pythagorean", "--triple", "3", "4", "5", "--r1", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("construction failed: block 0: alpha^2 + beta^2 = inf")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("spec", ["I\u00b2", "I" + "1" * 4301], ids=["superscript", "4301-digits"])
@pytest.mark.parametrize("command", [["enumerate", "--target", "1"], ["construct", "rational"]],
                         ids=["enumerate", "construct"])
def test_a_malformed_identity_gram_exits_64(command, spec, capsys):
    # str.isdigit() holds for both, and int() refused them: enumerate ended in a
    # ValueError traceback, and construct rational reported a failed construction
    assert main(command + ["--gram", spec]) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: gram ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", [f"I{MAX_IDENTITY_DIM + 1}", "I30000", "I" + "9" * 4300])
@pytest.mark.parametrize("command", [["enumerate", "--target", "1"], ["construct", "rational"]],
                         ids=["enumerate", "construct"])
def test_an_identity_gram_beyond_the_cap_exits_64(command, spec, monkeypatch, capsys):
    # the identity holds n^2 entries: I30000 would ask for about 10^9 Fractions
    def forbidden(n):
        raise AssertionError(f"built the identity of dimension {n}")

    monkeypatch.setattr(SymMatrix, "identity", forbidden)
    assert main(command + ["--gram", spec]) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("usage error: gram ") and err.endswith(
        f": the dimension must be at most {MAX_IDENTITY_DIM}\n")


def test_the_identity_gram_at_the_cap_loads():
    assert load_gram(f"I{MAX_IDENTITY_DIM}") == SymMatrix.identity(MAX_IDENTITY_DIM)


def test_construct_rational_sampler_exhaustion_exits_2(capsys):
    # u' = (0, a/b) with |a| <= 4 and 1 <= b <= 4 meets the unit circle in
    # only 23 points besides (1, 0), fewer than the 48 samples asked for
    assert main(["construct", "rational", "--gram", "I2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("construction failed: sampling did not produce enough")
    assert captured.err.count("\n") == 1


# One command of each kind the benchmark workloads run, plus `verify` on a
# Pythagorean (general) certificate and `verify` and `reduce` on a Bryant
# certificate whose Q is rewritten in floats.  Commands run in order, so later
# ones read the files earlier ones write.
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
    ["verify", "bryant-float-q.json"],
    ["reduce", "bryant-float-q.json", "-o", "bryant-float-q.reduced.json"],
)

NUMPY_CHECK = """
import json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
import minitori.cli
for argv in json.loads(sys.argv[1]):
    code = minitori.cli.main(argv)
    assert code == 0, (argv, code)
"""


def test_commands_never_import_numpy(tmp_path):
    cols = pencil_columns("rank4-deg2")
    (tmp_path / "y.txt").write_text(
        "".join(" ".join(str(c[i]) for c in cols) + "\n" for i in range(3)))
    (tmp_path / "float.json").write_text(
        json.dumps({"rows": [[1.0, 0.25, 0.0], [0.25, 1.5, 0.125], [0.0, 0.125, 2.0]]}))
    doc = json.loads(emit(bryant_2torus(Bryant2TorusParams(m=2, n=5, rho=0.3))))
    doc["Q"] = {"regime": "float", "rows": [[0.04, -0.016], [-0.016, 0.04]]}
    (tmp_path / "bryant-float-q.json").write_text(json.dumps(doc))
    src = str(Path(minitori.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_CHECK, json.dumps(NUMPY_FREE_COMMANDS)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]


# dataclasses alone pulls in inspect, ast, dis and tokenize, which nothing else
# of the package loads; together they cost several milliseconds of every start
SLOW_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "tokenize")
IMPORT_CHECK = """
import json, sys
before = set(sys.modules)  # what the interpreter loaded at start-up
import minitori.cli
print(json.dumps(sorted(set(sys.argv[1:]) & (set(sys.modules) - before))))
"""


def test_import_loads_no_dataclasses_machinery():
    src = str(Path(minitori.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHECK, *SLOW_IMPORTS],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def _benchmark_argvs():
    bench = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "workloads.py"))
    return [list(cmd.argv) for name in bench["WORKLOADS"]
            for cmd in bench["commands"](name, bench["DEFAULT_SEED"])]


# The parsed Namespace of every benchmark argv (seed 0), its func by name, and
# below the help and usage-error texts: all recorded when main() still built,
# on each call, the parser branch its argv named, and checked then against
# the full tree.  One parser tree per process must read and print the same.
PARSED_ARGV = {
    "catalog clifford-3 -o clifford-3.json": {"command": "catalog", "id": "clifford-3",
        "list": False, "output": "clifford-3.json", "func": "cmd_catalog"},
    "verify clifford-3.json": {"command": "verify", "path": "clifford-3.json", "tol": 1e-10,
        "exhaustive_embedding": False, "format": "text", "func": "cmd_verify"},
    "verify --format json --exhaustive-embedding clifford-3.json": {"command": "verify",
        "path": "clifford-3.json", "tol": 1e-10, "exhaustive_embedding": True, "format": "json",
        "func": "cmd_verify"},
    "reduce clifford-3.json -o clifford-3.reduced.json": {"command": "reduce",
        "path": "clifford-3.json", "output": "clifford-3.reduced.json", "func": "cmd_reduce"},
    "verify clifford-3.reduced.json": {"command": "verify", "path": "clifford-3.reduced.json",
        "tol": 1e-10, "exhaustive_embedding": False, "format": "text", "func": "cmd_verify"},
    "catalog quadratic-s9 -o quadratic-s9.json": {"command": "catalog", "id": "quadratic-s9",
        "list": False, "output": "quadratic-s9.json", "func": "cmd_catalog"},
    "verify quadratic-s9.json": {"command": "verify", "path": "quadratic-s9.json", "tol": 1e-10,
        "exhaustive_embedding": False, "format": "text", "func": "cmd_verify"},
    "verify --format json --exhaustive-embedding quadratic-s9.json": {"command": "verify",
        "path": "quadratic-s9.json", "tol": 1e-10, "exhaustive_embedding": True, "format": "json",
        "func": "cmd_verify"},
    "reduce quadratic-s9.json -o quadratic-s9.reduced.json": {"command": "reduce",
        "path": "quadratic-s9.json", "output": "quadratic-s9.reduced.json", "func": "cmd_reduce"},
    "verify quadratic-s9.reduced.json": {"command": "verify", "path": "quadratic-s9.reduced.json",
        "tol": 1e-10, "exhaustive_embedding": False, "format": "text", "func": "cmd_verify"},
    "catalog quadratic-s7 -o quadratic-s7.json": {"command": "catalog", "id": "quadratic-s7",
        "list": False, "output": "quadratic-s7.json", "func": "cmd_catalog"},
    "verify quadratic-s7.json": {"command": "verify", "path": "quadratic-s7.json", "tol": 1e-10,
        "exhaustive_embedding": False, "format": "text", "func": "cmd_verify"},
    "verify --format json --exhaustive-embedding quadratic-s7.json": {"command": "verify",
        "path": "quadratic-s7.json", "tol": 1e-10, "exhaustive_embedding": True, "format": "json",
        "func": "cmd_verify"},
    "reduce quadratic-s7.json -o quadratic-s7.reduced.json": {"command": "reduce",
        "path": "quadratic-s7.json", "output": "quadratic-s7.reduced.json", "func": "cmd_reduce"},
    "verify quadratic-s7.reduced.json": {"command": "verify", "path": "quadratic-s7.reduced.json",
        "tol": 1e-10, "exhaustive_embedding": False, "format": "text", "func": "cmd_verify"},
    "catalog cubic-s7-a -o cubic-s7-a.json": {"command": "catalog", "id": "cubic-s7-a",
        "list": False, "output": "cubic-s7-a.json", "func": "cmd_catalog"},
    "verify cubic-s7-a.json": {"command": "verify", "path": "cubic-s7-a.json", "tol": 1e-10,
        "exhaustive_embedding": False, "format": "text", "func": "cmd_verify"},
    "verify --format json --exhaustive-embedding cubic-s7-a.json": {"command": "verify",
        "path": "cubic-s7-a.json", "tol": 1e-10, "exhaustive_embedding": True, "format": "json",
        "func": "cmd_verify"},
    "reduce cubic-s7-a.json -o cubic-s7-a.reduced.json": {"command": "reduce",
        "path": "cubic-s7-a.json", "output": "cubic-s7-a.reduced.json", "func": "cmd_reduce"},
    "verify cubic-s7-a.reduced.json": {"command": "verify", "path": "cubic-s7-a.reduced.json",
        "tol": 1e-10, "exhaustive_embedding": False, "format": "text", "func": "cmd_verify"},
    "catalog cubic-s7-b -o cubic-s7-b.json": {"command": "catalog", "id": "cubic-s7-b",
        "list": False, "output": "cubic-s7-b.json", "func": "cmd_catalog"},
    "verify cubic-s7-b.json": {"command": "verify", "path": "cubic-s7-b.json", "tol": 1e-10,
        "exhaustive_embedding": False, "format": "text", "func": "cmd_verify"},
    "verify --format json --exhaustive-embedding cubic-s7-b.json": {"command": "verify",
        "path": "cubic-s7-b.json", "tol": 1e-10, "exhaustive_embedding": True, "format": "json",
        "func": "cmd_verify"},
    "reduce cubic-s7-b.json -o cubic-s7-b.reduced.json": {"command": "reduce",
        "path": "cubic-s7-b.json", "output": "cubic-s7-b.reduced.json", "func": "cmd_reduce"},
    "verify cubic-s7-b.reduced.json": {"command": "verify", "path": "cubic-s7-b.reduced.json",
        "tol": 1e-10, "exhaustive_embedding": False, "format": "text", "func": "cmd_verify"},
    "catalog quartic-s7 -o quartic-s7.json": {"command": "catalog", "id": "quartic-s7",
        "list": False, "output": "quartic-s7.json", "func": "cmd_catalog"},
    "verify quartic-s7.json": {"command": "verify", "path": "quartic-s7.json", "tol": 1e-10,
        "exhaustive_embedding": False, "format": "text", "func": "cmd_verify"},
    "verify --format json --exhaustive-embedding quartic-s7.json": {"command": "verify",
        "path": "quartic-s7.json", "tol": 1e-10, "exhaustive_embedding": True, "format": "json",
        "func": "cmd_verify"},
    "reduce quartic-s7.json -o quartic-s7.reduced.json": {"command": "reduce",
        "path": "quartic-s7.json", "output": "quartic-s7.reduced.json", "func": "cmd_reduce"},
    "verify quartic-s7.reduced.json": {"command": "verify", "path": "quartic-s7.reduced.json",
        "tol": 1e-10, "exhaustive_embedding": False, "format": "text", "func": "cmd_verify"},
    "construct rational --gram I3 --seed 0 -o rational-I3.json": {"command": "construct",
        "what": "rational", "func": "cmd_construct", "gram": "I3", "seed": 0, "samples": 48,
        "max_denominator": 10000, "output": "rational-I3.json"},
    "construct rational --gram I4 --seed 0 -o rational-I4.json": {"command": "construct",
        "what": "rational", "func": "cmd_construct", "gram": "I4", "seed": 0, "samples": 48,
        "max_denominator": 10000, "output": "rational-I4.json"},
    "construct rational --gram I5 --seed 0 -o rational-I5.json": {"command": "construct",
        "what": "rational", "func": "cmd_construct", "gram": "I5", "seed": 0, "samples": 48,
        "max_denominator": 10000, "output": "rational-I5.json"},
    "construct rational --gram I6 --seed 0 -o rational-I6.json": {"command": "construct",
        "what": "rational", "func": "cmd_construct", "gram": "I6", "seed": 0, "samples": 48,
        "max_denominator": 10000, "output": "rational-I6.json"},
    "construct rational --gram diag:1,2,3 --seed 0 -o rational-diag123.json": {
        "command": "construct", "what": "rational", "func": "cmd_construct", "gram": "diag:1,2,3",
        "seed": 0, "samples": 48, "max_denominator": 10000, "output": "rational-diag123.json"},
    "construct rational --gram a3.json --seed 0 -o rational-A3.json": {"command": "construct",
        "what": "rational", "func": "cmd_construct", "gram": "a3.json", "seed": 0, "samples": 48,
        "max_denominator": 10000, "output": "rational-A3.json"},
    "construct pencil --Y rank5-deg1.txt -o pencil-rank5-deg1.json": {"command": "construct",
        "what": "pencil", "func": "cmd_construct", "Y": "rank5-deg1.txt",
        "output": "pencil-rank5-deg1.json"},
    "construct pencil --Y rank5-deg2.txt -o pencil-rank5-deg2.json": {"command": "construct",
        "what": "pencil", "func": "cmd_construct", "Y": "rank5-deg2.txt",
        "output": "pencil-rank5-deg2.json"},
    "construct pencil --Y rank4-deg2.txt -o pencil-rank4-deg2.json": {"command": "construct",
        "what": "pencil", "func": "cmd_construct", "Y": "rank4-deg2.txt",
        "output": "pencil-rank4-deg2.json"},
    "construct pencil --Y rank4-deg3.txt -o pencil-rank4-deg3.json": {"command": "construct",
        "what": "pencil", "func": "cmd_construct", "Y": "rank4-deg3.txt",
        "output": "pencil-rank4-deg3.json"},
    "construct pencil --Y rank4-deg4.txt -o pencil-rank4-deg4.json": {"command": "construct",
        "what": "pencil", "func": "cmd_construct", "Y": "rank4-deg4.txt",
        "output": "pencil-rank4-deg4.json"},
    "construct pythagorean --triple 3 4 5 -o pythagorean-3-4-5.json": {"command": "construct",
        "what": "pythagorean", "func": "cmd_construct", "triple": [3, 4, 5], "r1": 0.0, "r2": 0.0,
        "phi1": 0.0, "psi1": 0.0, "phi2": 0.0, "psi2": 0.0, "output": "pythagorean-3-4-5.json"},
    "construct pythagorean --triple 5 12 13 -o pythagorean-5-12-13.json": {"command": "construct",
        "what": "pythagorean", "func": "cmd_construct", "triple": [5, 12, 13], "r1": 0.0,
        "r2": 0.0, "phi1": 0.0, "psi1": 0.0, "phi2": 0.0, "psi2": 0.0,
        "output": "pythagorean-5-12-13.json"},
    "construct pythagorean --triple 8 15 17 -o pythagorean-8-15-17.json": {"command": "construct",
        "what": "pythagorean", "func": "cmd_construct", "triple": [8, 15, 17], "r1": 0.0,
        "r2": 0.0, "phi1": 0.0, "psi1": 0.0, "phi2": 0.0, "psi2": 0.0,
        "output": "pythagorean-8-15-17.json"},
    "construct bryant --mn 1 3 --rho-scaled 1/2 -o bryant-exact.json": {"command": "construct",
        "what": "bryant", "func": "cmd_construct", "mn": [1, 3], "rho": None, "rho_scaled": "1/2",
        "output": "bryant-exact.json"},
    "construct bryant --mn 2 5 --rho 0.3 -o bryant-float.json": {"command": "construct",
        "what": "bryant", "func": "cmd_construct", "mn": [2, 5], "rho": 0.3, "rho_scaled": None,
        "output": "bryant-float.json"},
    "enumerate --gram I4 --spectrum 80": {"command": "enumerate", "gram": "I4", "target": None,
        "shortest": False, "spectrum": 80, "func": "cmd_enumerate"},
    "enumerate --gram I6 --target 25": {"command": "enumerate", "gram": "I6", "target": "25",
        "shortest": False, "spectrum": None, "func": "cmd_enumerate"},
    "enumerate --gram a4.json --spectrum 40": {"command": "enumerate", "gram": "a4.json",
        "target": None, "shortest": False, "spectrum": 40, "func": "cmd_enumerate"},
    "enumerate --gram float.json --spectrum 40": {"command": "enumerate", "gram": "float.json",
        "target": None, "shortest": False, "spectrum": 40, "func": "cmd_enumerate"},
    "enumerate --gram diag:3/2,2,5/2,3,7/2 --shortest": {"command": "enumerate",
        "gram": "diag:3/2,2,5/2,3,7/2", "target": None, "shortest": True, "spectrum": None,
        "func": "cmd_enumerate"},
    "enumerate --gram random.json --target 7/2": {"command": "enumerate", "gram": "random.json",
        "target": "7/2", "shortest": False, "spectrum": None, "func": "cmd_enumerate"},
}


@pytest.mark.parametrize("argv", _benchmark_argvs(), ids=" ".join)
def test_selected_branch_parses_like_the_full_tree(argv):
    # the argparse tree, and the table parser that main() tries first: every
    # benchmark argv takes the table path (vars(None) would raise TypeError)
    for parsed in (build_parser().parse_args(argv), _parse_from_table(argv)):
        args = vars(parsed)
        assert {**args, "func": args["func"].__name__} == PARSED_ARGV[" ".join(argv)]


def _leaves(table=COMMANDS, words=()):
    """(command words, argument specs) of every command of the table."""
    for name, (_, _, spec) in table.items():
        if isinstance(spec, tuple):
            yield from _leaves(spec[1], words + (name,))
        else:
            yield list(words + (name,)), spec


LEAVES = list(_leaves())
WORDS = sorted({word for words, _ in LEAVES for word in words})
FLAGS = sorted({flag for _, spec in LEAVES for flags, _ in spec for flag in flags
                if flag.startswith("-")})
# help, abbreviations, --x=y, --, a lone dash and an attached short value
ODD_FLAGS = ["-h", "--help", "--he", "--", "-", "--gr", "--s", "--rho-s", "--out", "--fo",
             "--format=json", "--seed=1", "--list=x", "-ox.json"]
VALUES = ["1", "-1", "0", "3", "1e-10", "nan", "inf", "1/2", "I4", "json", "text", "a.json", ""]
TOKENS = st.sampled_from(WORDS + FLAGS + ODD_FLAGS + VALUES)


def _values(kw):
    """A value that the argument's choices or type accept, or any of VALUES."""
    fits = (st.sampled_from(kw["choices"]) if "choices" in kw
            else st.integers(0, 20).map(str) if kw.get("type") is int
            else st.sampled_from(["0.3", "2", "1e-10"]) if "type" in kw
            else st.sampled_from(["I4", "a.json", "1/2"]))
    return st.one_of(fits, st.sampled_from(VALUES))


@st.composite
def _argvs(draw):
    """The words of a command, then some of its arguments in any order, each
    flag with as many drawn values as it takes, and up to two tokens of any
    kind inserted anywhere."""
    words, spec = draw(st.sampled_from(LEAVES))
    groups = []
    for flags, kw in spec:
        if draw(st.booleans()):
            nargs = kw.get("nargs")
            count = (0 if kw.get("action") == "store_true"
                     else nargs if isinstance(nargs, int) else 1)
            flag = [draw(st.sampled_from(flags))] if flags[0].startswith("-") else []
            groups.append(flag + draw(st.lists(_values(kw), min_size=count, max_size=count)))
    argv = words + [token for group in draw(st.permutations(groups)) for token in group]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(TOKENS))
    return argv


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(st.one_of(_argvs(), st.lists(TOKENS, max_size=6)))
def test_the_table_parses_like_the_full_tree(argv):
    # whatever the table accepts argparse reads alike (repr: NaN is not equal
    # to itself); whatever argparse refuses is one usage error line and exit 64
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            full = vars(build_parser().parse_args(argv))
        except UsageError:
            full = None
        except SystemExit as exc:  # help was printed
            assert exc.code == 0 and _parse_from_table(argv) is None
            return
    table = _parse_from_table(argv)
    if table is not None:
        assert repr(sorted(vars(table).items())) == repr(sorted((full or {}).items()))
    if full is None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 64
        assert out.getvalue() == ""
        assert err.getvalue().startswith("usage error: ") and err.getvalue().count("\n") == 1


# one well-formed argv of each command, run in order in one directory
ARGPARSE_FREE_COMMANDS = (
    ["catalog", "clifford-3", "-o", "c.json"],
    ["verify", "c.json"],
    ["reduce", "c.json", "-o", "r.json"],
    ["construct", "bryant", "--mn", "1", "3", "--rho-scaled", "1/2"],
    ["enumerate", "--gram", "I2", "--target", "1"],
)
ARGPARSE_CHECK = """
import json, sys
before = set(sys.modules)
import minitori.cli as cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
assert cli.build_parser.cache_info().currsize == 0
print(json.dumps(sorted({"argparse", "gettext", "locale"} & (set(sys.modules) - before))))
"""


def test_well_formed_commands_never_import_argparse(tmp_path):
    src = str(Path(minitori.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", ARGPARSE_CHECK,
                           json.dumps(ARGPARSE_FREE_COMMANDS)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_one_parser_per_process_built_on_first_use():
    assert build_parser() is build_parser()
    src = str(Path(minitori.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import minitori.cli as cli; "
                               "assert cli.build_parser.cache_info().currsize == 0"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# the texts were recorded with the argparse of CPython 3.11; later versions
# word some of them otherwise (3.13 prints "-o, --output OUTPUT")
ARGPARSE_TEXTS = pytest.mark.skipif(sys.version_info >= (3, 12),
                                    reason="texts recorded with the argparse of CPython 3.11")
HELP_PREFIXES = ([[]] + [[name] for name in COMMANDS]
                 + [["construct", what] for what in ("rational", "pencil", "pythagorean",
                                                     "bryant")])
HELP_SHA256 = {  # of the stdout of `minitori <prefix> --help` under COLUMNS=80
    "top": "d71fe064a879b779f446060ba1a43632a1c67a330f4cbb112df3abc875dcb239",
    "verify": "2e0e852ce5dceaed1d53aef64871c9731359a7dd9037b58e128deb211401f80f",
    "construct": "025236c7c7f36266eca77ea8eff4d25bd790d1f3ebedcb21e3cda092e462f338",
    "enumerate": "806e39b6dfbf904108930702b363a756fa46ae9084c64cc02f918a062c9e0c20",
    "reduce": "c018d7cee3ddb333167c7fc9dc24c638c05658789b89eed9a7af3d9a5258b25f",
    "catalog": "f51f45e781ea147fa891ce157ee81f715ad07a5d867c042a48812ff71e20edc2",
    "construct rational": "63814f4853dcda2c63602d87fe19474455d730af5c855af4a8cb42c8df171dcc",
    "construct pencil": "c1a26a610f21506bd54dc9653c4821dda57863839e80b008000146f4fb95c460",
    "construct pythagorean": "675cef51c4cc9886387bc339161b0b12c977ab96b54ef9a9c4068fe9556877fc",
    "construct bryant": "3927cf0ce46dcb6fb3c89f8d8829b4fdeddd95a64f178a83cd5cb4d8684f9b9e",
}


@ARGPARSE_TEXTS
@pytest.mark.parametrize("prefix", HELP_PREFIXES, ids=lambda argv: " ".join(argv) or "top")
def test_help_matches_the_full_tree(prefix, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(prefix + ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: minitori")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[" ".join(prefix) or "top"]


USAGE_ERRORS = {
    "bogus": "usage error: argument command: invalid choice: 'bogus' (choose from 'verify', "
             "'construct', 'enumerate', 'reduce', 'catalog')\n",
    "construct bogus": "usage error: argument what: invalid choice: 'bogus' (choose from "
                       "'rational', 'pencil', 'pythagorean', 'bryant')\n",
    "construct pencil": "usage error: the following arguments are required: --Y\n",
    "verify": "usage error: the following arguments are required: path\n",
    "verify a.json --bogus": "usage error: unrecognized arguments: --bogus\n",
}


@ARGPARSE_TEXTS
@pytest.mark.parametrize("argv", [["bogus"], ["construct", "bogus"], ["construct", "pencil"],
                                  ["verify"], ["verify", "a.json", "--bogus"]])
def test_usage_errors_match_the_full_tree(argv, capsys):
    assert main(argv) == 64
    assert capsys.readouterr().err == USAGE_ERRORS[" ".join(argv)]


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["minitori", "catalog", "--list"])
    assert main() == 0
    assert "quartic-s7" in capsys.readouterr().out


CATALOG_LIST = """\
clifford-3     Clifford 3-torus in S^5
quadratic-s9   quadratic irrational minimal flat 3-torus in S^9
quadratic-s7   quadratic irrational minimal flat 3-torus in S^7
cubic-s7-a     cubic irrational minimal flat 3-torus in S^7 (immersed, not embedded)
cubic-s7-b     cubic irrational minimal flat 3-torus in S^7
quartic-s7     quartic irrational minimal flat 3-torus in S^7
"""


def test_catalog_list_reads_the_table(monkeypatch, capsys):
    import minitori.constructions as cons

    def refuse(*args):
        raise AssertionError("catalog --list built a certificate")
    for name in ("construct_pencil_3torus", "exact_hull_weights", "build_slice"):
        monkeypatch.setattr(cons, name, refuse)
    assert main(["catalog", "--list"]) == 0
    assert capsys.readouterr().out == CATALOG_LIST
