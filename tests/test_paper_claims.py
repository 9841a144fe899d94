"""A ledger of the seven claims of the source paper's abstract, one test each.

Each test quotes its claim, checks what the package can show today, and says
what that does not show.  One claim has no test yet:

(c) "Bryant stated that a flat 2-torus admits a minimal isometric immersion
    into some round sphere if and only if a certain rationality condition is
    satisfied": that rationality is necessary for n = 2.  Nothing in the
    package decides that an irrational 2-torus has no certificate.  Checkable
    "no" answers (Farkas witnesses from the exact LP, ROADMAP item 4) and
    torus-first certificates shell by shell (item 18) will test it.
"""

from fractions import Fraction

from minitori import catalog, emit
from minitori.certificates import (embeddedness, is_homogeneous, reduce_target_dimension,
                                   verify_full, verify_matrix_data)
from minitori.constructions import (CATALOG_IDS, PythagoreanParams, RationalPipelineConfig,
                                    construct_rational, pythagorean_family)
from minitori.symmetric import SymMatrix

from sympy_oracle import check

IRRATIONAL_IDS = [cid for cid in CATALOG_IDS if catalog(cid).metadata["degree"] > 1]


def _exactly_verified(data) -> bool:
    report = verify_matrix_data(data)
    return report.verified and not any(report.residuals.values())


def test_a_rationality_is_sufficient():
    """(a) "the rationality criterion is ... a sufficient condition for a flat
    n-torus to admit minimal isometric immersions into spheres."

    The seed-0 `construct rational` certificates of I3, I4, diag(1, 2, 3) and
    A3 verify exactly, every residual 0.  This shows the criterion at work on
    four rational tori, not for every rational torus: at seed 0 the sampler
    fails I5 and I6 (ROADMAP item 3, a deterministic shell route)."""
    grams = [SymMatrix.identity(3), SymMatrix.identity(4),
             SymMatrix.diag([Fraction(1), Fraction(2), Fraction(3)]),
             SymMatrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])]
    for q in grams:
        data = construct_rational(RationalPipelineConfig(q=q, seed=0))
        assert data.q.regime == "rational"
        assert all(isinstance(w, Fraction) for w in data.weights)
        assert _exactly_verified(data)


def test_b_rationality_is_not_necessary():
    """(b) "the rationality criterion is no longer a necessary ... condition."

    The five irrational catalog certificates (fields of degree 2, 2, 3, 3 and
    4) verify exactly in the package and pass the independent sympy oracle.
    This shows five irrational flat 3-tori that immerse minimally; it does not
    show the paper's construction of them, which the catalog only records."""
    assert len(IRRATIONAL_IDS) == 5
    for cid in IRRATIONAL_IDS:
        data = catalog(cid)
        assert data.q.regime == "algebraic"
        assert _exactly_verified(data)
        assert check(emit(data)).degree > 1


def test_d_the_degree_bound_is_sharp_for_n_3():
    """(d) "an upper bound for the algebraic irrationality degree of such
    immersion.  This bound is sharp and equals 4 if n = 3."

    The catalog holds exact certificates of degrees 1, 2, 3 and 4, by the
    oracle's field degree of Q's entries and by the package's metadata.  This
    shows that each degree up to 4 occurs; it does not show that no degree
    above 4 does: there is no census of n = 3 (ROADMAP item 7), and no field
    above degree 4 can be built (item 6)."""
    degrees = set()
    for cid in CATALOG_IDS:
        data = catalog(cid)
        degree = check(emit(data)).degree
        assert degree == data.metadata["degree"]
        degrees.add(degree)
    assert degrees == {1, 2, 3, 4}


def test_e_embedded_examples_of_each_degree():
    """(e) "explicit embedded examples are provided respectively for each
    possible degree."

    The catalog certificates of degrees 1, 2 and 4 have column-lattice index
    1 (embedded), by the oracle and by the package's exhaustive search.  The
    two cubics have indices 16 and 4: the catalog has no embedded cubic yet.
    Their quotients by the column lattice would be one (ROADMAP item 14)."""
    indices = {}
    for cid in CATALOG_IDS:
        data = catalog(cid)
        index = check(emit(data)).index
        assert (index == 1) == (embeddedness(data.y, exhaustive=True).status == "embedded")
        indices[cid] = (data.metadata["degree"], index)
    assert {degree for degree, index in indices.values() if index == 1} == {1, 2, 4}
    assert indices["cubic-s7-a"] == (3, 16)
    assert indices["cubic-s7-b"] == (3, 4)


def test_f_a_non_homogeneous_example():
    """(f) "A non-homogeneous example is also presented to show that the
    minimal isometric immersion of flat n-tori is no longer necessarily
    homogeneous when n >= 3."

    A member of the Pythagorean family over (3, 4, 5) with nonzero
    off-diagonal blocks verifies through `verify_full`, the general
    certificate path.  The blocks are floats, so this is a check within a
    tolerance, not an exact one (exact general certificates are ROADMAP
    item 8)."""
    res = pythagorean_family(PythagoreanParams(triple=(3, 4, 5), r1=0.01, phi1=0.3,
                                               psi1=0.7, r2=0.005))
    assert not is_homogeneous(res.gram)
    assert verify_full(res.gram, (res.q, res.y)).verdict == "verified"


def test_g_the_target_dimension_bound():
    """(g) "every flat n-torus admitting a minimal isometric spherical
    immersion can be isometrically, minimally and homogeneously immersed
    into a sphere of dimension at most n^2 + n - 1."

    Every catalog certificate reduces to N <= n(n+1)/2 classes, so its sphere
    has dimension 2N - 1 <= n^2 + n - 1, and the reduction verifies exactly.
    This is the bound for homogeneous certificates only; the deformation of a
    general one to a homogeneous one is not implemented (ROADMAP item 8)."""
    for cid in CATALOG_IDS:
        reduced = reduce_target_dimension(catalog(cid))
        n = reduced.q.n
        assert reduced.big_n <= n * (n + 1) // 2
        assert reduced.sphere_dim == 2 * reduced.big_n - 1 <= n * n + n - 1
        assert _exactly_verified(reduced)
