"""Direct tests of general (kind: general) certificates: the coefficient operator,
its verification, its file format and the `verify` command on it."""

import json

import numpy as np
import pytest

from minitori.certificates import GramOperator, is_homogeneous, verify_full
from minitori.cli import main
from minitori.constructions import PythagoreanParams, pythagorean_family
from minitori.io import emit, parse

# the three Pythagorean members of the benchmark, and a non-homogeneous one
MEMBERS = {
    "3-4-5": dict(triple=(3, 4, 5)),
    "5-12-13": dict(triple=(5, 12, 13)),
    "8-15-17": dict(triple=(8, 15, 17)),
    "3-4-5-member": dict(triple=(3, 4, 5), r1=0.01, phi1=0.3, psi1=0.7, r2=0.005),
}


def _argv(params: dict) -> list[str]:
    argv = ["construct", "pythagorean", "--triple", *map(str, params["triple"])]
    for key in ("r1", "phi1", "psi1", "r2"):
        if key in params:
            argv += [f"--{key}", str(params[key])]
    return argv


def _verify_text(euta, psd, eigen1="0.000e+00", iso1="0.000e+00"):
    return ("verdict: verified\n"
            "  residual unit_norm: 0.000e+00\n"
            f"  residual euta: {euta}\n"
            f"  residual eigen1: {eigen1}\n"
            "  residual eigen2: 0.000e+00\n"
            f"  residual iso1: {iso1}\n"
            "  residual iso2: 0.000e+00\n"
            f"  psd margin: {psd}\n")


# `minitori verify` on each member's file, as printed when verify_full used numpy
VERIFY_TEXT = {
    "3-4-5": _verify_text("1.110e-16", "7.627e-02"),
    "5-12-13": _verify_text("2.220e-16", "8.219e-02"),
    "8-15-17": _verify_text("5.684e-14", "8.296e-02"),
    "3-4-5-member": _verify_text("1.110e-16", "6.426e-02", eigen1="6.505e-19",
                                 iso1="2.082e-17"),
}


@pytest.fixture(scope="module")
def members():
    return {name: pythagorean_family(PythagoreanParams(**params))
            for name, params in MEMBERS.items()}


@pytest.mark.parametrize("name", MEMBERS)
def test_emit_parse_emit_is_byte_stable(name, members):
    res = members[name]
    text = emit((res.gram, res.q, res.y))
    gram, q, y, metadata = parse(text)
    assert gram == res.gram and q == res.q and y == res.y and metadata == {}
    assert emit((gram, q, y)) == text


@pytest.mark.parametrize("name", ["3-4-5", "5-12-13", "8-15-17"])
def test_written_files_round_trip_with_their_metadata(name, tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert main(_argv(MEMBERS[name]) + ["-o", str(path)]) == 0
    text = path.read_text()
    assert parse(text)[3]["construction"] == "pythagorean"
    assert emit(parse(text)) == text


@pytest.mark.parametrize("name", MEMBERS)
def test_verify_prints_the_recorded_text(name, tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert main(_argv(MEMBERS[name]) + ["-o", str(path)]) == 0
    homogeneous = name != "3-4-5-member"
    assert capsys.readouterr().out.endswith(f"homogeneous = {homogeneous}\n")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == VERIFY_TEXT[name]


@pytest.mark.parametrize("name", MEMBERS)
def test_psd_margin_is_the_smallest_eigenvalue(name, members):
    res = members[name]
    report = verify_full(res.gram, (res.q, res.y))
    assert report.verified
    smallest = float(np.linalg.eigvalsh(np.array(res.gram.matrix)).min())
    assert abs(report.psd_margin - smallest) <= 1e-12


def test_psd_margin_of_an_operator_connecting_every_class(members):
    """Off-diagonal blocks chaining all 12 classes: every rotation acts on the
    whole 24 x 24 operator."""
    res = members["3-4-5"]
    rng = np.random.default_rng(4)
    off = {(r, r + 1): rng.uniform(-0.02, 0.02, (2, 2)).tolist() for r in range(11)}
    gram = GramOperator.from_blocks(12, [res.gram.a(r) for r in range(12)], off)
    margin = verify_full(gram, (res.q, res.y)).psd_margin
    smallest = float(np.linalg.eigvalsh(np.array(gram.matrix)).min())
    assert abs(margin - smallest) <= 1e-12


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_entries_are_rejected(bad, members):
    """NaN passes every tolerance comparison, so it must be refused up front."""
    m = [list(row) for row in members["3-4-5"].gram.matrix]
    m[0][0] = m[1][1] = bad
    with pytest.raises(ValueError, match="finite"):
        GramOperator(m)


def test_verify_reports_proportional_columns(tmp_path, capsys):
    """Y_1 = -Y_0 in the 3-4-5 output: falsified, as for a homogeneous file,
    instead of an error from the frequency classes (Y_0 + Y_1 = 0)."""
    path = tmp_path / "cert.json"
    assert main(_argv(MEMBERS["3-4-5"]) + ["-o", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    doc["Y"][1] = [-x for x in doc["Y"][0]]
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "verdict: falsified (proportional_columns)"


def test_is_homogeneous_reads_the_off_diagonal_blocks(members):
    assert is_homogeneous(members["3-4-5"].gram)
    assert not is_homogeneous(members["3-4-5-member"].gram)


class TestSymmetryTolerance:
    """The symmetry check is relative to the largest entry, like the check of
    the diagonal blocks."""

    @staticmethod
    def _scaled(members, factor):
        return [[factor * x for x in row] for row in members["3-4-5-member"].gram.matrix]

    def test_small_asymmetry_of_a_large_operator_is_accepted(self, members):
        m = self._scaled(members, 1e6)
        assert m[0][2] != 0.0  # an off-diagonal block entry
        m[0][2] += 1e-10
        gram = GramOperator(m)
        assert gram.matrix[0][2] == gram.matrix[2][0]

    def test_relative_asymmetry_is_rejected(self, members):
        m = self._scaled(members, 1e6)
        m[0][2] += 1e-6 * max(abs(x) for row in m for x in row)
        with pytest.raises(ValueError, match="symmetric"):
            GramOperator(m)
