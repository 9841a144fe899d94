"""Direct tests of general (kind: general) certificates: the coefficient operator,
its verification, its file format and the `verify` command on it."""

import json

import numpy as np
import pytest

from minitori.certificates import (GramOperator, frequency_coefficients, is_homogeneous,
                                   verify_full)
from minitori.cli import main
from minitori.constructions import PythagoreanParams, pythagorean_family
from minitori.io import CertificateFormatError, emit, parse

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
    gram = GramOperator(res.gram.diagonal, off.items())
    margin = verify_full(gram, (res.q, res.y)).psd_margin
    smallest = float(np.linalg.eigvalsh(np.array(gram.matrix)).min())
    assert abs(margin - smallest) <= 1e-12


def test_frequency_coefficients_expand_the_norm_and_the_metric(members):
    """numpy oracle: with Theta(u) = (cos th_r, sin th_r)_r, th_r = 2 pi <Y_r, u>,
    |x(u)|^2 = Theta^t M Theta and G(u) = J^t M J (J the Jacobian of Theta)
    equal their Fourier expansions from `frequency_coefficients`, for an
    operator with about half of its 66 blocks nonzero; several of the
    realizations share a frequency class."""
    res = members["3-4-5"]
    rng = np.random.default_rng(7)
    off = {(r, s): rng.uniform(-0.02, 0.02, (2, 2)).tolist()
           for r in range(12) for s in range(r + 1, 12) if rng.random() < 0.5}
    gram = GramOperator(res.gram.diagonal, off.items())
    coeffs = frequency_coefficients(gram, res.y)
    assert len(coeffs) < 2 * len(off)
    y, m = np.array(res.y, dtype=float), np.array(gram.matrix)
    eta = np.array(list(coeffs), dtype=float)
    g0 = sum(a * np.outer(c, c) for a, c in zip(gram.diagonal, y))
    for u in rng.uniform(-1, 1, (5, 3)):
        th, ph = 2 * np.pi * y @ u, 2 * np.pi * eta @ u
        theta = np.ravel(np.column_stack([np.cos(th), np.sin(th)]))
        jac = (2 * np.pi * np.ravel(np.column_stack([-np.sin(th), np.cos(th)]))[:, None]
               * np.repeat(y, 2, axis=0))
        norm2 = sum(gram.diagonal) + sum(v[0] * np.cos(p) + v[1] * np.sin(p)
                                         for v, p in zip(coeffs.values(), ph))
        metric = 4 * np.pi ** 2 * (g0 + sum((np.array(v[2]) * np.cos(p)
                                             + np.array(v[3]) * np.sin(p)) / 2
                                            for v, p in zip(coeffs.values(), ph)))
        assert abs(theta @ m @ theta - norm2) <= 1e-12
        want = jac.T @ m @ jac
        assert np.abs(want - metric).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_entries_are_rejected(bad, members):
    """NaN passes every tolerance comparison, so it must be refused up front."""
    gram = members["3-4-5-member"].gram
    with pytest.raises(ValueError, match="finite"):
        GramOperator((bad,) + gram.diagonal[1:], gram.blocks.items())
    (r, s), ((b00, b01), (b10, b11)) = next(iter(gram.blocks.items()))
    with pytest.raises(ValueError, match="finite"):
        GramOperator(gram.diagonal, [((r, s), ((b00, b01), (b10, bad)))])


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


def test_blocks_are_stored_above_the_diagonal(members):
    """A block given at (s, r) is the transpose of the one at (r, s); zero
    blocks are dropped, and the assembled matrix holds B_rs and its transpose."""
    gram = members["3-4-5-member"].gram
    flipped = [((s, r), tuple(zip(*b))) for (r, s), b in gram.blocks.items()]
    zero = ((3, 7), ((0.0, -0.0), (0.0, 0.0)))
    assert GramOperator(gram.diagonal, flipped + [zero]) == gram
    # of two blocks at one place the later counts, also at (r, s) and (s, r)
    (r, s), b = next(iter(gram.blocks.items()))
    later = GramOperator(gram.diagonal, [((r, s), b), ((s, r), ((1.0, 2.0), (3.0, 4.0)))])
    assert later.blocks == {(r, s): ((1.0, 3.0), (2.0, 4.0))}
    m = gram.matrix
    for (r, s), b in gram.blocks.items():
        for i in range(2):
            for j in range(2):
                assert m[2 * r + i][2 * s + j] == m[2 * s + j][2 * r + i] == b[i][j]
    with pytest.raises(ValueError, match="off-diagonal"):
        GramOperator(gram.diagonal, [((2, 2), ((1.0, 0.0), (0.0, 1.0)))])


class TestDiagonalBlockTolerance:
    """A file's diagonal block must be a I2 to within 1e-12 times the largest
    entry of the operator; it is read as a = b00."""

    @staticmethod
    def _scaled(members, shift):
        """The 3-4-5 member's file scaled by 10^6, with `shift` times its
        largest entry added to the entry b11 of the first diagonal block."""
        res = members["3-4-5-member"]
        doc = json.loads(emit((res.gram, res.q, res.y)))
        for item in doc["blocks"]:
            item["block"] = [[1e6 * x for x in row] for row in item["block"]]
        largest = max(abs(x) for item in doc["blocks"] for row in item["block"] for x in row)
        assert largest > 1e4  # so that the deviations below exceed 1e-12
        assert (doc["blocks"][0]["r"], doc["blocks"][0]["s"]) == (0, 0)
        doc["blocks"][0]["block"][1][1] += shift * largest
        return json.dumps(doc), doc["blocks"][0]["block"][0][0]

    def test_small_deviation_of_a_large_operator_is_accepted(self, members):
        text, a = self._scaled(members, 1e-13)
        gram = parse(text)[0]
        assert gram.diagonal[0] == gram.matrix[1][1] == a

    def test_relative_deviation_is_rejected(self, members):
        text, _ = self._scaled(members, 1e-11)
        with pytest.raises(CertificateFormatError, match="scalar multiple"):
            parse(text)
