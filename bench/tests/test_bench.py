"""Tests of the benchmark itself: tracing transparency, repeatable counts, oracles.

Run from the repository root: python3 -m pytest -q bench/tests
(about a minute: it runs one untraced and two traced passes per workload).
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

# the workload on which each traced function must be called (the layer table
# in bench/README.md); maximize_logdet_C has no caller yet.
EXERCISED_BY = {
    "lattices.enumerate_norm": "spectrum",
    "lattices.spectrum": "spectrum",
    "lattices.shortest_vectors": "spectrum",
    "lattices.eigenfunction_index": "construct",
    "lattices.rational_points_on_ellipsoid": "construct",
    "scalars.isolate_real_roots": "construct",
    "scalars.factor_min_poly": "construct",
    "scalars.irreducible_degree_le4": "certify",
    "scalars.AlgebraicScalar.__mul__": "certify",
    "scalars.AlgebraicScalar.inverse": "certify",
    "scalars.AlgebraicScalar.sign": "certify",
    "scalars.AlgebraicField.refine": "certify",
    "symmetric.inverse": "certify",
    "symmetric.determinant": "certify",
    "symmetric.is_positive_definite": "spectrum",
    "optimize.build_slice": "construct",
    "optimize.pencil_maximize": "construct",
    "optimize.rank4_lagrange": "construct",
    "optimize.exact_hull_weights": "construct",
    "optimize.caratheodory_reduce": "certify",
    "exactlp.feasible_point": "construct",
    "certificates.verify_matrix_data": "certify",
    "certificates.verify_full": "construct",
    "certificates.embeddedness": "certify",
    "certificates.reduce_target_dimension": "certify",
    "constructions.construct_rational": "construct",
    "constructions.construct_pencil_3torus": "construct",
    "constructions.pythagorean_family": "construct",
    "constructions.feasible_diagonal_centroid": "construct",
    "constructions.bryant_2torus": "construct",
    "constructions.catalog": "certify",
    "io.emit": "construct",
    "io.parse": "certify",
    "cli.main": "certify",
}
NOT_CALLED = {"optimize.maximize_logdet_C"}
# layers a workload must never enter
BYPASSED = {"certify": ("lattices",), "spectrum": ("optimize", "exactlp", "certificates", "io")}


@pytest.fixture(scope="module")
def passes():
    """One untraced and two traced passes per workload at the default seed."""
    root = Path(tempfile.mkdtemp(prefix="bench-test-"))
    out = {}
    try:
        for workload in run.WORKLOADS:
            out[workload] = []
            for i, trace in enumerate((False, True, True)):
                workdir = root / f"{workload}{i}"
                workdir.mkdir()
                out[workload].append(run.run_pass(workload, run.DEFAULT_SEED, trace, workdir))
    finally:
        shutil.rmtree(root)
    return out


def test_every_traced_function_is_listed():
    assert set(EXERCISED_BY) | NOT_CALLED == set(tracer.traced_names())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tracing_leaves_outputs_byte_identical(passes, workload):
    plain, traced1, traced2 = passes[workload]
    assert run._outputs(traced1) == run._outputs(plain)
    assert run._outputs(traced2) == run._outputs(plain)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_counts_repeat_exactly(passes, workload):
    _, traced1, traced2 = passes[workload]
    counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")}
              for r in (traced1, traced2)]
    assert counts[0] == counts[1]


def test_each_function_is_called_where_expected(passes):
    for name, workload in EXERCISED_BY.items():
        assert passes[workload][1]["layers"][f"{name}.calls"] > 0, (name, workload)
    for workload, layers in BYPASSED.items():
        for name in tracer.traced_names():
            if name.split(".")[0] in layers:
                assert passes[workload][1]["layers"][f"{name}.calls"] == 0, (name, workload)


def test_default_seed_matches_recorded_digests(passes):
    recorded = json.loads(run.DIGESTS.read_text())
    for workload, (plain, _, _) in passes.items():
        for cmd, rec in zip(run.commands(workload, run.DEFAULT_SEED), plain["commands"]):
            want = recorded[workload][cmd.key]
            assert rec["status"] == want["status"], cmd.key
            assert rec["files"] == want["files"], cmd.key
            if want["status"] == "ok":
                assert rec["stdout_sha"] == want["stdout"], cmd.key


def _certificate(q, y, w):
    return json.dumps({"kind": "homogeneous", "Q": {"rows": [[str(x) for x in r] for r in q]},
                       "Y": y, "weights": [str(x) for x in w]})


def test_rational_oracle_accepts_clifford_and_rejects_perturbations():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    third = Fraction(1, 3)
    assert oracles.check_rational_certificate(_certificate(eye, eye, [third] * 3)) is None
    eps = Fraction(1, 10**12)
    bad_w = [third + eps, third, third - eps]
    assert oracles.check_rational_certificate(_certificate(eye, eye, bad_w))
    bad_q = [[1 + eps, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert oracles.check_rational_certificate(_certificate(bad_q, eye, [third] * 3))
    assert oracles.check_rational_certificate(_certificate(eye, eye, [1, 0, 0]))


def test_box_scan_oracle():
    q = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]   # hexagonal
    assert oracles.brute_force_classes(q, Fraction(2)) == [(0, 1), (1, -1), (1, 0)]
    stdout = "3 classes of norm 2\n  (0, 1)\n  (1, -1)\n  (1, 0)\n"
    assert oracles.check_target_classes(q, Fraction(2), stdout) is None
    assert oracles.check_target_classes(q, Fraction(2), "2 classes of norm 2\n  (0, 1)\n  (1, 0)\n")
