"""The independent sympy oracle (`sympy_oracle`) on the package's irrational
certificates: every catalog entry and its reduction, and the five `construct
pencil` sets of the benchmark, built in-process.  The oracle agrees with the
package on the verdict, the field degree and embeddedness (index 1), and it
rejects two mutants of `quartic-s7` that the package rejects too."""

import json
from fractions import Fraction

import pytest
import sympy

from minitori import catalog, construct_pencil_3torus, embeddedness, emit, parse
from minitori.certificates import reduce_target_dimension, verify_matrix_data
from minitori.constructions import CATALOG_IDS

from conftest import PENCIL_SETS, pencil_columns
from sympy_oracle import OracleFailure, check


@pytest.mark.parametrize("reduced", [False, True], ids=["catalog", "reduced"])
@pytest.mark.parametrize("cid", CATALOG_IDS)
def test_the_oracle_agrees_with_the_catalog_metadata(cid, reduced):
    data = catalog(cid)
    if reduced:
        data = reduce_target_dimension(data)
    assert verify_matrix_data(data).verdict == "verified"
    report = check(emit(data))
    assert report.degree == data.metadata["degree"]
    assert (report.index == 1) == (data.metadata["embedded"] == "embedded")


@pytest.mark.parametrize("name", sorted(PENCIL_SETS))
def test_the_oracle_agrees_on_the_benchmark_pencils(name):
    data = construct_pencil_3torus(pencil_columns(name))
    assert verify_matrix_data(data).verdict == "verified"
    report = check(emit(data))
    assert report.degree == data.metadata["degree"]
    assert (report.index == 1) == (embeddedness(data.y, exhaustive=True).status == "embedded")


def _quartic():
    return json.loads(emit(catalog("quartic-s7")))


def test_a_moved_coefficient_of_q_fails_the_unit_norm():
    doc = _quartic()
    for i, j in ((0, 1), (1, 0)):  # Q_01 and Q_10, so Q stays symmetric
        coeffs = doc["Q"]["rows"][i][j]["coeffs"]
        coeffs[0] = str(Fraction(coeffs[0]) + Fraction(1, 10**6))
    text = json.dumps(doc)
    with pytest.raises(OracleFailure, match="unit norm"):
        check(text)
    assert verify_matrix_data(parse(text)).verdict == "falsified"


def test_an_interval_around_another_root_fails_weight_positivity():
    doc = _quartic()
    x = doc["weights"][0]
    m = sympy.Poly(list(reversed(x["minpoly"])), sympy.Symbol("x"))
    own = tuple(Fraction(e) for e in x["interval"])
    others = [(lo, hi) for (lo, hi), _ in m.intervals()
              if not (Fraction(str(lo)) <= own[0] and own[1] <= Fraction(str(hi)))]
    assert len(others) == 3  # the minimal polynomial has four real roots
    for lo, hi in others:
        moved = json.loads(json.dumps(doc))
        for s in [s for row in moved["Q"]["rows"] for s in row] + moved["weights"]:
            if isinstance(s, dict):
                s["interval"] = [str(lo), str(hi)]
        text = json.dumps(moved)
        with pytest.raises(OracleFailure, match="weight .* is not positive"):
            check(text)
        assert verify_matrix_data(parse(text)).verdict == "falsified"
