"""Direct tests of the exact phase-1 simplex `exactlp.feasible_point`: against
scipy, against the dense Fraction tableau it replaced (kept in conftest as the
oracle, which also runs a right-hand side in Q(w) in field arithmetic), and on
the 21 x 126 system of the I6 shell at mu = 2."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TEST_FIELDS, draw_field_element, fraction_feasible_point
from minitori.exactlp import feasible_point
from minitori.lattices import enumerate_norm
from minitori.scalars import sqrt_field
from minitori.symmetric import SymMatrix

# mixed denominators, and zeros often enough for sparse rows
ENTRIES = st.one_of(st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 4, 6, 7])))
RHS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))


@st.composite
def linear_programs(draw):
    """A x = b with m = 1..8 rows and n = 1..12 columns.  Some rows are zero
    or repeat an earlier row (so an artificial can stay basic at zero and the
    drive-out runs); b is either drawn freely (often infeasible, with negative
    entries) or A x for a drawn x >= 0."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    a = [draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(m):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "repeat", "multiple"]))
        if kind == "zero":
            a[i] = [Fraction(0)] * n
        elif kind in ("repeat", "multiple") and i > 0:
            j = draw(st.integers(0, i - 1))
            s = Fraction(1) if kind == "repeat" else draw(st.sampled_from(
                [Fraction(-1), Fraction(2), Fraction(-3, 2)]))
            a[i] = [s * x for x in a[j]]
    if draw(st.booleans()):
        x = draw(st.lists(st.builds(Fraction, st.integers(0, 4), st.integers(1, 3)),
                          min_size=n, max_size=n))
        b = [sum(c * v for c, v in zip(row, x)) for row in a]
    else:
        b = draw(st.lists(RHS, min_size=m, max_size=m))
    return a, b


@st.composite
def field_programs(draw):
    """A x = b as in `linear_programs`, with b in a field Q(w): A x for a drawn
    x >= 0 in the field, or drawn freely, or a rational b lifted into it."""
    a, b = draw(linear_programs())
    field = draw(st.sampled_from(TEST_FIELDS))()
    kind = draw(st.sampled_from(["combination", "free", "lifted"]))
    if kind == "lifted":
        return a, [field.from_rational(v) for v in b]
    if kind == "free":
        return a, [draw_field_element(draw, field) for _ in a]
    x = [draw_field_element(draw, field, nonnegative=True) for _ in a[0]]
    return a, [sum((c * v for c, v in zip(row, x)), field.from_rational(0)) for row in a]


def _assert_feasible(a, b, x):
    assert all(v >= 0 for v in x)
    for row, want in zip(a, b):
        assert sum(c * v for c, v in zip(row, x)) == want


class TestExactLP:
    def test_simple_feasible(self):
        x = feasible_point([[Fraction(1), Fraction(1)]], [Fraction(1)])
        assert x is not None and sum(x) == 1 and all(v >= 0 for v in x)

    def test_infeasible(self):
        # x1 + x2 = -1 with x >= 0
        assert feasible_point([[Fraction(1), Fraction(1)]], [Fraction(-1)]) is None

    def test_against_scipy(self, rng):
        from scipy.optimize import linprog
        for _ in range(25):
            m, n = rng.randint(1, 4), rng.randint(1, 6)
            a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            b = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
            ours = feasible_point(a, b)
            res = linprog(c=[0.0] * n,
                          A_eq=[[float(x) for x in row] for row in a],
                          b_eq=[float(x) for x in b],
                          bounds=[(0, None)] * n, method="highs")
            assert (ours is not None) == res.success
            if ours is not None:
                for row, want in zip(a, b):
                    assert sum(c * x for c, x in zip(row, ours)) == want


class TestAgainstFractionTableau:
    @settings(max_examples=300, deadline=None)
    @given(linear_programs())
    def test_same_output(self, lp):
        a, b = lp
        x = feasible_point(a, b)
        assert x == fraction_feasible_point(a, b)
        if x is not None:
            _assert_feasible(a, b, x)

    @settings(max_examples=150, deadline=None)
    @given(linear_programs(), st.integers(1, 10**4))
    def test_uniform_scaling_keeps_the_solution(self, lp, mu):
        # the rational construction passes mu^2 A and mu^2 b for its integer rows
        a, b = lp
        c = mu * mu
        assert feasible_point([[c * x for x in row] for row in a], [c * x for x in b]) == \
            feasible_point(a, b)

    def test_negative_drive_out_pivot(self):
        # after x1 enters on row 0, row 1 is 0 = -2 x2 with its artificial basic
        # at zero; driving it out pivots on the negative entry -2
        a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        b = [Fraction(0), Fraction(0)]
        assert feasible_point(a, b) == fraction_feasible_point(a, b) == [0, 0]
        a = [row + [Fraction(1, 3)] for row in a] + [[Fraction(0), Fraction(0), Fraction(1, 2)]]
        b = [Fraction(1), Fraction(1), Fraction(3, 2)]
        assert feasible_point(a, b) == fraction_feasible_point(a, b) == [0, 0, 3]

    def test_empty_system(self):
        assert feasible_point([], []) == []

    def test_ratio_tie_goes_to_the_lowest_basic_index(self):
        # x0 enters on row 2; then x1 ties rows 1 and 2 at ratio 2, and Bland's
        # rule takes row 2, whose basic x0 has a lower index than row 1's
        # artificial; taking the lower row ends at (0, 4/3, 1/3, 2/3, 0)
        a = [[Fraction(x) for x in row] for row in ((0, 0, 2, 2, 1), (2, 2, 0, 2, 0),
                                                     (2, 1, 2, 0, 0))]
        b = [Fraction(2), Fraction(4), Fraction(2)]
        assert feasible_point(a, b) == fraction_feasible_point(a, b) == [1, 0, 0, 1, 0]
        # the same tie between elements of Q(sqrt 2): every ratio times 1 + sqrt 2
        u = 1 + sqrt_field(2).generator()
        assert feasible_point(a, [u * v for v in b]) == [u, 0, 0, u, 0]


class TestFieldRightHandSide:
    """b in Q(w): its coordinates are integer columns of the one tableau, and
    only the row signs, the ratio tests and the phase-1 zero test read them
    as one field element."""

    @settings(max_examples=200, deadline=None)
    @given(field_programs())
    def test_same_output_as_the_field_tableau(self, lp):
        a, b = lp
        x = feasible_point(a, b)
        assert x == fraction_feasible_point(a, b)
        if x is not None:
            field = b[0].field
            assert all(v.field == field for v in x)
            _assert_feasible(a, b, x)

    @settings(max_examples=100, deadline=None)
    @given(linear_programs())
    def test_rational_b_lifted_into_a_field(self, lp):
        # the same pivots as the rational tableau, so the same solution
        a, b = lp
        field = sqrt_field(2)
        x = feasible_point(a, [field.from_rational(v) for v in b])
        want = feasible_point(a, b)
        assert (x is None) == (want is None)
        if x is not None:
            assert [v.as_fraction() for v in x] == want

    def test_rational_part_of_the_wrong_sign(self):
        # the row sign is the sign of the element, not of its rational part
        r2 = sqrt_field(2).generator()
        assert feasible_point([[Fraction(1)]], [r2 - 1]) == [r2 - 1]
        assert feasible_point([[Fraction(1)]], [1 - r2]) is None
        assert feasible_point([[Fraction(1), Fraction(-1)]], [1 - r2]) == [0, r2 - 1]
        assert feasible_point([[Fraction(-1)]], [1 - r2]) == [r2 - 1]

    def test_ratio_test_reads_the_whole_element(self):
        # x0 enters with ratios sqrt 2 (rational part 0) and 1: row 1 leaves
        r2 = sqrt_field(2).generator()
        a = [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(1), Fraction(0), Fraction(1)]]
        b = [r2, 1]
        assert feasible_point(a, b) == fraction_feasible_point(a, b) == [1, r2 - 1, 0]

    def test_phase_one_zero_test_reads_every_coordinate(self):
        # x0 = 1 leaves the artificial sum sqrt 2, whose rational part is 0
        r2 = sqrt_field(2).generator()
        assert feasible_point([[Fraction(1)], [Fraction(1)]], [1, 1 + r2]) is None
        assert feasible_point([[Fraction(1)], [Fraction(1)]], [1 + r2, 1 + r2]) == [1 + r2]


def test_i6_shell_at_mu_2():
    # Q = I6, mu = 2: the 126 classes v with |v|^2 = 4 give the points v / 2 on
    # the unit sphere; the LP writes Q^-1 / 6 as sum x_j (v_j / 2)(v_j / 2)^t
    n = 6
    shell = enumerate_norm(SymMatrix([[int(i == j) for j in range(n)] for i in range(n)]), 4)
    assert len(shell) == 126
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    a = [[Fraction(v[i] * v[j], 4) for v in shell] for i, j in pairs]
    b = [Fraction(int(i == j), n) for i, j in pairs]
    x = feasible_point(a, b)
    assert x is not None
    _assert_feasible(a, b, x)
    assert sum(1 for v in x if v) <= len(pairs)
