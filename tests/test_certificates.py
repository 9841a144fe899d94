"""Direct tests of certificate verification, embeddedness and reduction."""

import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CATALOG_FIELDS, recursive_embeddedness, reference_verify_matrix_data
from minitori.certificates import (DEFAULT_TOL, GramOperator, MatrixData, embeddedness,
                                   reduce_target_dimension, verify_full, verify_matrix_data)
from minitori.constructions import (CATALOG_IDS, PythagoreanParams, RationalPipelineConfig,
                                    catalog, construct_rational, pythagorean_family)
from minitori.io import emit, parse
from minitori.lattices import enumerate_norm
from minitori.scalars import AlgebraicField, sqrt_field
from minitori.symmetric import SymMatrix, rank, trace_inner

EPS = Fraction(1, 10**12)
STANDARD_BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
THIRD = Fraction(1, 3)


def _weighted_sum(data: MatrixData) -> SymMatrix:
    """sum_j w_j Y_j Y_j^t."""
    acc = None
    for w, c in zip(data.weights, data.y):
        term = SymMatrix.rank_one(c).scale(w)
        acc = term if acc is None else acc + term
    return acc


def _shell_certificate(n: int, norm: int, orbit_total) -> MatrixData:
    """The classes of norm `norm` in Z^n as a certificate with Q = I/norm.

    The signed permutations act on each orbit of classes (one multiset of
    |Y_j|_i), so each orbit's Y_j Y_j^t sum to a multiple of I, which the
    traces make |orbit| (norm/n) I.  So weights equal within an orbit give
    sum w_j Y_j Y_j^t = (norm/n) I = Q^{-1}/n for any orbit totals of sum 1:
    each call `orbit_total()` gives one total up to a common factor."""
    cols = enumerate_norm(SymMatrix.identity(n), norm).classes
    orbits = [tuple(sorted(map(abs, c))) for c in cols]
    sizes = Counter(orbits)
    totals = {orbit: orbit_total() for orbit in sizes}
    scale = sum(totals.values())
    weights = tuple(totals[orbit] / scale / sizes[orbit] for orbit in orbits)
    return MatrixData(q=SymMatrix.identity(n).scale(Fraction(1, norm)), y=cols, weights=weights)


class TestExactMeansExact:
    """An exact certificate is verified only when every residual is exactly zero."""

    def test_catalog_entries_verify_with_zero_residuals(self):
        for cid in CATALOG_IDS:
            report = verify_matrix_data(catalog(cid))
            assert report.verdict == "verified", cid
            assert report.residuals["weight_sum"] == 0.0, cid

    def test_perturbed_clifford_weights(self):
        data = MatrixData(q=SymMatrix.identity(3), y=STANDARD_BASIS,
                          weights=(THIRD + EPS, THIRD, THIRD - EPS))
        report = verify_matrix_data(data)
        assert report.verdict == "falsified"
        assert report.reason == "flat"
        assert report.residuals["flat"] < report.tolerance  # invisible to the float test

    def test_perturbed_gram(self):
        data = MatrixData(q=SymMatrix.diag([1 + EPS, 1, 1]), y=STANDARD_BASIS,
                          weights=(THIRD, THIRD, THIRD))
        report = verify_matrix_data(data)
        assert report.verdict == "falsified"
        assert report.reason in ("unit_norm", "flat")
        assert max(report.residuals.values()) < report.tolerance

    def test_perturbed_quadratic_s7_weight(self):
        data = catalog("quadratic-s7")
        weights = (data.weights[0] + EPS,) + data.weights[1:]
        report = verify_matrix_data(MatrixData(q=data.q, y=data.y, weights=weights))
        assert report.verdict == "falsified"
        assert report.reason in ("flat", "weight_sum")
        assert report.residuals["weight_sum"] < report.tolerance

    def test_float_certificates_keep_the_tolerance(self):
        data = MatrixData(q=SymMatrix.identity(3), y=STANDARD_BASIS,
                          weights=(1 / 3 + 1e-13, 1 / 3, 1 / 3 - 1e-13))
        assert verify_matrix_data(data).verdict == "verified"


class TestEmbeddedness:
    @pytest.mark.parametrize("cid", CATALOG_IDS)
    def test_exhaustive_matches_catalog_claim(self, cid):
        data = catalog(cid)
        assert embeddedness(data.y, exhaustive=True).status == data.metadata["embedded"]

    def test_unknown_status_is_reported(self):
        # no unimodular minor and N > n: only the exhaustive search decides
        y = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (5, 3, 4))
        assert embeddedness(y).status == "unknown"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(-4, 4)] * n), min_size=n, max_size=n + 2)))
    def test_exhaustive_search_matches_the_recursive_oracle(self, y):
        # spanning Y with n = 2 or 3, N <= n + 2 and entries within +-4: a column
        # sums to at most 12 in absolute value, so the box of angle vectors has
        # at most 23^3 = 12,167 points (below 2 * 10^4)
        assume(rank(y) == len(y[0]))
        assert embeddedness(y, exhaustive=True) == recursive_embeddedness(y)


class TestReduceTargetDimension:
    @pytest.mark.parametrize("cid", CATALOG_IDS)
    def test_keeps_q_and_the_weighted_sum(self, cid):
        data = catalog(cid)
        reduced = reduce_target_dimension(data)
        assert reduced.q == data.q
        assert _weighted_sum(reduced) == _weighted_sum(data)
        assert reduced.big_n <= 6
        assert verify_matrix_data(reduced).verdict == "verified"

    def test_reduces_the_pythagorean_certificate(self):
        data = pythagorean_family(PythagoreanParams(triple=(3, 4, 5))).matrix_data()
        assert data.big_n == 12
        reduced = reduce_target_dimension(data)
        assert reduced.big_n <= 6
        assert reduced.q == data.q
        assert _weighted_sum(reduced) == _weighted_sum(data)
        assert trace_inner(reduced.q, _weighted_sum(reduced)) == 1

    @pytest.mark.parametrize("n, norm, before, after",
                             [(4, 2, 12, 4), (4, 3, 16, 4), (5, 2, 20, 8), (6, 2, 30, 6)])
    def test_uniform_shell_class_counts(self, n, norm, before, after):
        # the simplex's basic solution; the elimination loop it replaced kept
        # 8, 10, 12 and 18 classes
        data = _shell_certificate(n, norm, lambda: Fraction(1))
        assert data.big_n == before
        reduced = reduce_target_dimension(data)
        assert reduced.big_n == after
        assert reduced.is_exact() and verify_matrix_data(reduced).verdict == "verified"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 4), st.booleans(), st.data())
    def test_reduced_shells_verify_exactly(self, n, norm, irrational, data):
        assume((n, norm) != (2, 3))  # Z^2 has no class of norm 3
        ratio = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
        root2 = sqrt_field(2).generator()
        cert = _shell_certificate(n, norm, lambda: data.draw(ratio) + (
            root2 * data.draw(ratio) if irrational else 0))
        reduced = reduce_target_dimension(cert)
        assert reduced.q == cert.q
        assert reduced.big_n <= n * (n + 1) // 2
        assert reduced.is_exact() and verify_matrix_data(reduced).verdict == "verified"


class TestRankOneSum:
    """SymMatrix.rank_one_sum against the rank-one matrices summed one by one."""

    @pytest.mark.parametrize("cid", CATALOG_IDS)
    def test_catalog_weights(self, cid):
        data = catalog(cid)
        assert SymMatrix.rank_one_sum(data.y, data.weights) == _weighted_sum(data)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_columns_and_weights(self, data):
        n = data.draw(st.integers(1, 4))
        count = data.draw(st.integers(1, 6))
        cols = data.draw(st.lists(st.tuples(*[st.integers(-7, 7)] * n),
                                  min_size=count, max_size=count))
        kind = data.draw(st.sampled_from(["rational", "float", "algebraic"]))
        if kind == "float":
            weights = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=count, max_size=count))
        else:
            rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
            weights = data.draw(st.lists(rationals, min_size=count, max_size=count))
            if kind == "algebraic":
                field = AlgebraicField(*data.draw(st.sampled_from(CATALOG_FIELDS)))
                weights = [field.element(data.draw(st.lists(rationals, min_size=field.degree,
                                                            max_size=field.degree)))
                           for _ in weights]
        got = SymMatrix.rank_one_sum(cols, weights)
        want = _weighted_sum(MatrixData(q=SymMatrix.identity(n), y=cols, weights=weights))
        assert got == want
        # floats: the same operations in the same order, so the same bits
        assert [[repr(x) for x in row] for row in got.entries] == \
            [[repr(x) for x in row] for row in want.entries]


class TestQuadForms:
    """SymMatrix.quad_forms against quad_form, one column at a time."""

    FIELDS = (lambda: sqrt_field(2),
              *(lambda data=data: AlgebraicField(*data) for data in CATALOG_FIELDS))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_quad_form(self, data):
        n = data.draw(st.integers(1, 5))
        count = data.draw(st.integers(1, 12))
        col = st.tuples(*[st.integers(-9, 9)] * n)
        cols = data.draw(st.lists(st.one_of(col, st.just((0,) * n)),
                                  min_size=count, max_size=count))
        if data.draw(st.booleans()):  # a repeated column
            cols[data.draw(st.integers(0, count - 1))] = cols[0]
        kind = data.draw(st.sampled_from(["rational", "float", "algebraic"]))
        rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
        if kind == "float":
            entry = st.floats(-1e6, 1e6)
        elif kind == "rational":
            entry = rationals
        else:
            field = data.draw(st.sampled_from(self.FIELDS))()
            entry = st.lists(rationals, min_size=field.degree,
                             max_size=field.degree).map(field.element)
        upper = data.draw(st.lists(entry, min_size=n * (n + 1) // 2,
                                   max_size=n * (n + 1) // 2))
        q = SymMatrix.from_upper(upper)
        got = q.quad_forms(cols)
        want = [q.quad_form(v) for v in cols]
        assert got == want
        if kind == "float":  # quad_form itself, so the same bits
            assert [repr(x) for x in got] == [repr(x) for x in want]


# ---------------------------------------------------------------------------
# verify_matrix_data against the reference that always inverts Q

def _rational_outputs() -> dict:
    a3 = SymMatrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    grams = {"I3": SymMatrix.identity(3), "A3": a3, "diag:1,2,3": SymMatrix.diag([1, 2, 3])}
    return {f"rational {name}": construct_rational(RationalPipelineConfig(q=q, seed=0))
            for name, q in grams.items()}


@pytest.fixture(scope="module")
def certificate_texts():
    """The emitted catalog entries, their reductions and three rational
    constructions, by name."""
    out = {}
    for cid in CATALOG_IDS:
        data = catalog(cid)
        out[cid] = emit(data)
        out[cid + " reduced"] = emit(reduce_target_dimension(data))
    out.update((name, emit(data)) for name, data in _rational_outputs().items())
    return out


def _with_q_entries(q: SymMatrix, changes: dict) -> SymMatrix:
    rows = [list(row) for row in q.entries]
    for (i, j), x in changes.items():
        rows[i][j] = rows[j][i] = x
    return SymMatrix(rows)


def _perturbed(data: MatrixData, kind: str, eps=EPS) -> MatrixData:
    q, y, w = data.q, list(data.y), list(data.weights)
    n = q.n
    if kind == "weight+":
        w[0] = w[0] + eps
    elif kind == "weight-":
        w[0] = w[0] - eps
    elif kind == "negated-weight":
        w[0] = -w[0]
    elif kind == "zero-weight":
        w[-1] = w[-1] - w[-1]
    elif kind == "q-diagonal+":
        q = _with_q_entries(q, {(0, 0): q[0, 0] + eps})
    elif kind == "q-offdiagonal-":
        q = _with_q_entries(q, {(0, 1): q[0, 1] - eps})
    elif kind == "singular-q":  # the last row and column copy the first
        q = _with_q_entries(q, {(i, n - 1): q[i, 0] for i in range(n - 1)}
                            | {(n - 1, n - 1): q[0, 0]})
    elif kind == "indefinite-q":
        q = _with_q_entries(q, {(0, 0): -q[0, 0]})
    elif kind == "proportional-columns":
        y[1] = tuple(-x for x in y[0])
    elif kind == "rank-deficient-y":
        y = [c[:-1] + (0,) for c in y]
    elif kind == "y-entry+":
        y[-1] = y[-1][:-1] + (y[-1][-1] + 1,)
    elif kind == "float-weights":
        w = [float(x) for x in w]
    else:
        assert kind == "unchanged"
    return MatrixData(q=q, y=y, weights=tuple(w), metadata=data.metadata)


PERTURBATIONS = ("unchanged", "weight+", "weight-", "negated-weight", "zero-weight",
                 "q-diagonal+", "q-offdiagonal-", "singular-q", "indefinite-q",
                 "proportional-columns", "rank-deficient-y", "y-entry+", "float-weights")


def _assert_same_as_reference(text: str, kind: str, eps=EPS) -> str:
    """Verify one perturbation of a freshly parsed copy with each function, and
    compare the reports and the certificates emitted afterwards; returns the
    verdict."""
    ours, theirs = _perturbed(parse(text), kind, eps), _perturbed(parse(text), kind, eps)
    try:
        want = reference_verify_matrix_data(theirs)
    except TypeError as exc:  # float weights with an algebraic Q: no report either way
        with pytest.raises(TypeError, match=re.escape(str(exc))):
            verify_matrix_data(ours)
        return "error"
    got = verify_matrix_data(ours)
    assert (got.verdict, got.reason) == (want.verdict, want.reason)
    assert list(got.residuals.items()) == list(want.residuals.items())
    assert got.to_dict() == want.to_dict()
    # the same sign and approximation queries leave the same isolating intervals
    assert emit(ours) == emit(theirs)
    return got.verdict


@pytest.mark.parametrize("kind", PERTURBATIONS)
def test_verification_matches_the_reference(kind, certificate_texts):
    verdicts = {name: _assert_same_as_reference(text, kind)
                for name, text in certificate_texts.items()}
    if kind == "unchanged":
        assert set(verdicts.values()) == {"verified"}
    elif kind != "float-weights":  # rounded weights may pass the float tolerance
        assert "verified" not in verdicts.values()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_verification_matches_the_reference_on_drawn_perturbations(certificate_texts, data):
    name = data.draw(st.sampled_from(sorted(certificate_texts)))
    kind = data.draw(st.sampled_from(PERTURBATIONS))
    eps = Fraction(data.draw(st.integers(-10**3, 10**3).filter(bool)),
                   data.draw(st.integers(1, 10**15)))
    _assert_same_as_reference(certificate_texts[name], kind, eps)


# ---------------------------------------------------------------------------
# float tolerances relative to the size of Q^{-1}/n

@pytest.mark.parametrize("name", ["rational A3", "rational diag:1,2,3"])
def test_rounded_weights_verify_within_a_relative_tolerance(name, certificate_texts):
    # mu in the thousands: Q^{-1}/n has entries of order 10^7, so rounding the
    # exact weights leaves a flat residual above the absolute 1e-10
    data = parse(certificate_texts[name])
    w = [float(x) for x in data.weights]
    report = verify_matrix_data(MatrixData(q=data.q, y=data.y, weights=tuple(w)))
    assert report.verdict == "verified"
    assert report.residuals["flat"] > DEFAULT_TOL
    assert report.tolerance == DEFAULT_TOL
    # moving 10^-8 of the first weight onto the second keeps the weight sum
    # and must still falsify
    shift = 1e-8 * w[0]
    w[0], w[1] = w[0] - shift, w[1] + shift
    report = verify_matrix_data(MatrixData(q=data.q, y=data.y, weights=tuple(w)))
    assert (report.verdict, report.reason) == ("falsified", "flat")


def test_large_pythagorean_member_verifies_within_a_relative_tolerance():
    # r = 1009: (Q^{-1}/3) has entries r^2/2, and the euta residual of the
    # float operator is 1.2e-10
    res = pythagorean_family(PythagoreanParams(triple=(559, 840, 1009)))
    report = verify_full(res.gram, (res.q, res.y))
    assert report.verdict == "verified"
    assert report.residuals["euta"] > DEFAULT_TOL
    diagonal = list(res.gram.diagonal)
    diagonal[0] *= 1 + 1e-6
    report = verify_full(GramOperator(diagonal, res.gram.blocks.items()), (res.q, res.y))
    assert (report.verdict, report.reason) == ("falsified", "euta")
