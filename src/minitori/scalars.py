"""Exact scalar arithmetic: rationals, integer polynomials, and real algebraic numbers.

Three scalar regimes are used throughout the package:

* exact rationals (``fractions.Fraction``),
* real algebraic numbers of degree <= 4, represented as polynomials in a
  field generator whose minimal polynomial and isolating interval are stored
  (:class:`AlgebraicField` / :class:`AlgebraicScalar`),
* binary64 floats for optimization inner loops.

An algebraic scalar is stored as integer numerators over one positive
denominator, in lowest terms, so field arithmetic runs in integers: products
are integer convolutions reduced modulo the primitive minimal polynomial
(each reduction step scales by its leading coefficient L), rational operands
only rescale the numerators, and the inverse is one Gauss-Jordan pass on the
integer multiplication matrix.  Every product runs one loop, `_convolve_into`.

The package's one exact elimination kernel is here, beside the field
arithmetic it runs on: `pivot`, one step x <- (p x - f y) / d, whose
docstring argues exactness, and `eliminate`, which runs those steps.
Integer rows are eliminated fraction-free; rows over Q or Q(w) take one
inverse per pivot.  The exact matrix functions of `symmetric`,
`AlgebraicScalar.inverse`, the embeddedness adjugate, the exact LP and the
Fincke-Pohst levels all run through it.  Zero tests are exact, so no
elimination narrows an isolating interval.

Polynomials are integer coefficient lists.  Real roots are isolated by Sturm
sequences of primitive integer polynomials (pseudo-remainders) and bisection
over integer numerators; every value is a positive multiple of the rational
one, so each sign, each interval and each root count is that of the same
computation in rationals.  Factoring over Q (degree <= 4, the bound on the
field degree of a minimal flat 3-torus) builds on the same isolation: a
rational root m/L (L the leading coefficient) is the one candidate left in an
isolating interval at most 1/L wide, and a quartic without one splits into
quadratics exactly when its resolvent cubic has an integer root.  No
divisors are enumerated.

`sturm_sequence`, `isolate_real_roots` and `irreducible_factors` are pure
functions of a polynomial's coefficient values, so they answer from one
bounded memo keyed by the coefficient tuple (`_memoized`): a field built
again from a minimal polynomial already seen proves its irreducibility and
counts its roots by lookups.  The memo is safe to share because its answers
are immutable tuples of ints and Fractions, and it never holds a field: a
field's isolating interval is mutable state that `io.emit` writes.

Sign determination for algebraic scalars is certified: the value is evaluated
by interval Horner over the generator's isolating interval, which is bisected
until the sign is unambiguous.  The field holds that interval as integer
numerators a < b over one denominator d; a halving evaluates the minimal
polynomial once at (a + b) / 2d and doubles the other endpoint and d, and
the evaluation runs in integers over d (`_halve`, which `refine_root`
repeats).  Every integer interval is the rational one times a positive
integer, so each decision, and so the narrowing, is that of exact rational
interval arithmetic, and `interval` reports the same reduced Fractions.  A
nonzero element of the field cannot vanish at the generator (the minimal
polynomial is irreducible), so the loop terminates.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rat = Union[int, Fraction]


# ---------------------------------------------------------------------------
# rational parsing / formatting ("p/q" wire format)

def parse_ratio(text: str) -> tuple[int, int]:
    """Parse a 'p/q' (or plain 'p') string into integers (p, q), q > 0, not
    necessarily coprime; errors are those of Fraction(int(p), int(q))."""
    s = text.strip()
    if "/" not in s:
        return int(s), 1
    num, den = s.split("/")
    p, q = int(num), int(den)
    if q > 0:
        return p, q
    if q:
        return -p, -q
    raise ZeroDivisionError(f"Fraction({p}, 0)")


def parse_rational(text: str) -> Fraction:
    """Parse a 'p/q' (or plain 'p') string into a Fraction."""
    return Fraction(*parse_ratio(text))


def format_rational(x: Rat, den: int = 1) -> str:
    """Canonical 'p/q' string of x / den, den > 0 (denominator omitted when 1)."""
    if not isinstance(x, int):
        x = Fraction(x)
        x, den = x.numerator, x.denominator * den
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


# ---------------------------------------------------------------------------
# dense univariate integer polynomials, coefficients low -> high

def _positive_primitive(p: Sequence[Rat]) -> tuple[int, ...]:
    """The content-1 integer polynomial that is a positive multiple of p."""
    if all(isinstance(c, int) for c in p):
        ints = list(p)
    else:
        c = [Fraction(x) for x in p]
        den = math.lcm(*(x.denominator for x in c))
        ints = [x.numerator * (den // x.denominator) for x in c]
    while ints and ints[-1] == 0:
        ints.pop()
    g = math.gcd(*ints)
    return tuple(c // g for c in ints) if g > 1 else tuple(ints)


def poly_content_primitive(p: Sequence[Rat]) -> tuple[Fraction, tuple[int, ...]]:
    """Split p = content * primitive with integer, content-1 primitive part.

    The primitive part has positive leading coefficient.
    """
    prim = _positive_primitive(p)
    if not prim:
        return Fraction(0), ()
    content = Fraction(next(c for c in reversed(p) if c)) / prim[-1]
    if prim[-1] < 0:
        return -content, tuple(-c for c in prim)
    return content, prim


def _convolve_into(c: list[int], p: Sequence[int], q: Sequence[int]) -> list[int]:
    """c += p q, and c, for integer coefficient lists (low to high) with
    len(c) > deg(p q): the package's one convolution loop; zeros of p are skipped."""
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q, i):
                c[j] += x * y
    return c


def poly_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    return _convolve_into([0] * (len(p) + len(q) - 1), p, q)


def poly_sub(p: Sequence[int], q: Sequence[int]) -> list[int]:
    return [(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
            for i in range(max(len(p), len(q)))]


def pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """(q, r) with s^e a = q b + r and deg r < deg b, for integer polynomials
    a and b != 0, s = |lc(b)| and some e >= 0: q and r are positive multiples
    of the rational quotient and remainder."""
    r = list(a)
    while r and r[-1] == 0:
        r.pop()
    lead, db = b[-1], len(b) - 1
    s = abs(lead)
    q = [0] * max(0, len(r) - db)
    while len(r) > db:
        k = len(r) - 1 - db
        t = r[-1] if lead > 0 else -r[-1]
        if s != 1:
            r = [s * x for x in r]
            q = [s * x for x in q]
        q[k] += t
        for i, c in enumerate(b, k):
            r[i] -= t * c
        while r and r[-1] == 0:
            r.pop()
    return q, r


def poly_gcd(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """The gcd of two integer polynomials, primitive with positive leading
    coefficient (the zero polynomial () when both are zero)."""
    p, q = _positive_primitive(p), _positive_primitive(q)
    while q:
        p, q = q, _positive_primitive(pseudo_divmod(p, q)[1])
    return poly_content_primitive(p)[1]


# ---------------------------------------------------------------------------
# the polynomial memo

@functools.lru_cache(maxsize=256)
def _polynomial_memo(kernel, p: tuple):
    return kernel(p)


def _memoized(kernel):
    """`kernel`, a pure function of a polynomial's coefficient values whose
    result is immutable, through the one bounded memo `_polynomial_memo`.

    The key is tuple(p), so a list, a tuple or Fractions of equal values hit
    the same entry, and the cached value is returned itself.  The memo holds
    polynomial data only (ints, Fractions, tuples), never a field, whose
    interval is mutable.
    """
    @functools.wraps(kernel)
    def memoized(p):
        return _polynomial_memo(kernel, tuple(p))
    return memoized


# ---------------------------------------------------------------------------
# Sturm sequences and real root isolation, in integers

@_memoized
def sturm_sequence(p: Sequence[Rat]) -> tuple[tuple[int, ...], ...]:
    """The Sturm sequence p, p', -rem(p, p'), ... of a rational polynomial, as
    primitive integer polynomials.

    Each term is a positive multiple of the rational Sturm term: p and p'
    are divided by their content, and each negated remainder is a
    pseudo-remainder by the powers of |lc| (`pseudo_divmod`) divided by its
    content.  So every sign, and every count of sign variations, is that of
    the rational sequence.  The last term is gcd(p, p') up to a constant.
    """
    p = _positive_primitive(p)
    if not p:
        return ()
    seq = [p]
    deriv = [i * c for i, c in enumerate(p)][1:]
    while deriv:
        seq.append(_positive_primitive(deriv))
        deriv = [-c for c in pseudo_divmod(seq[-2], seq[-1])[1]]
    return tuple(seq)


def _sign_variations(seq, num: int, den: int) -> int:
    """Sign changes of the sequence at num/den (den > 0), zeros skipped."""
    signs = []
    for s in seq:
        v = _homogeneous_value(s, num, den)
        if v:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, lo: Rat, hi: Rat) -> int:
    """Number of distinct real roots of p in (lo, hi], via Sturm's theorem."""
    seq = sturm_sequence(p)
    lo, hi = Fraction(lo), Fraction(hi)
    return (_sign_variations(seq, lo.numerator, lo.denominator)
            - _sign_variations(seq, hi.numerator, hi.denominator))


def _squarefree_sturm(p) -> tuple[tuple[int, ...], ...]:
    """The Sturm sequence of p / gcd(p, p'), the squarefree part of p, whose
    first term is that part as a primitive integer polynomial."""
    seq = sturm_sequence(p)
    if len(seq) > 1 and len(seq[-1]) > 1:
        # divide out gcd(p, p'), the last Sturm term
        seq = sturm_sequence(pseudo_divmod(seq[0], seq[-1])[0])
    return seq


@_memoized
def isolate_real_roots(p) -> tuple[tuple[Fraction, Fraction], ...]:
    """Disjoint open intervals, each containing exactly one real root of p.

    Intervals are returned in increasing order and have endpoints that are
    not roots themselves.  Works on the square-free part of p, so repeated
    roots are reported once.  Bisection starts from the Cauchy bound
    (-B, B), B = 1 + max_i |p_i| / |p_d|, and halves each interval holding
    more than one root, moving a midpoint that is a root halfway towards the
    left end.  The endpoints are integer numerators over one denominator,
    doubled at each halving.
    """
    seq = _squarefree_sturm(p)
    if len(seq) < 2:
        return ()
    p = seq[0]
    lead = abs(p[-1])
    bound = Fraction(lead + max(abs(c) for c in p[:-1]), lead)
    # endpoints of the initial interval are not roots (strict Cauchy bound)
    b0, den0 = bound.numerator, bound.denominator
    v0 = _sign_variations(seq, -b0, den0)
    out: list[tuple[Fraction, Fraction]] = []

    def split(a: int, b: int, den: int, va: int, count: int) -> None:
        # (a/den, b/den) holds `count` roots; va is the variation count at a/den
        if count == 0:
            return
        if count == 1:
            out.append((Fraction(a, den), Fraction(b, den)))
            return
        a, b, den, mid = 2 * a, 2 * b, 2 * den, a + b
        while _homogeneous_value(p, mid, den) == 0:
            a, b, den, mid = 2 * a, 2 * b, 2 * den, a + mid
        vm = _sign_variations(seq, mid, den)
        split(a, mid, den, va, va - vm)
        split(mid, b, den, vm, count - (va - vm))

    split(-b0, b0, den0, v0, v0 - _sign_variations(seq, b0, den0))
    return tuple(out)


def refine_root(p, lo: Rat, hi: Rat, width: Rat) -> tuple[Fraction, Fraction]:
    """Bisect an isolating interval of p until hi - lo <= width (> 0); a root
    at lo or at a midpoint returns (root, root).

    The endpoints are integer numerators over one denominator, doubled at
    each halving; the returned Fractions are in lowest terms.
    """
    p = _positive_primitive(p)
    lo, hi, width = Fraction(lo), Fraction(hi), Fraction(width)
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    flo = _homogeneous_value(p, a, den)
    if flo == 0:
        return lo, lo
    lo_positive = flo > 0
    wn, wd = width.numerator, width.denominator
    while (b - a) * wd > wn * den:  # a midpoint root leaves a = b, width 0
        a, b, den = _halve(p, a, b, den, lo_positive)
    return Fraction(a, den), Fraction(b, den)


def _halve(p: Sequence[int], a: int, b: int, den: int, lo_positive: bool) -> tuple[int, int, int]:
    """The package's one halving step: of (a/den, b/den), a sign change of p
    with the sign lo_positive at a, the half over 2 den that keeps it, by the
    sign of p at the midpoint mid = a + b over 2 den; (mid, mid) if a root."""
    mid = a + b
    fm = _homogeneous_value(p, mid, 2 * den)
    if fm == 0:
        return mid, mid, 2 * den
    if (fm > 0) == lo_positive:
        return mid, 2 * b, 2 * den
    return 2 * a, mid, 2 * den


# ---------------------------------------------------------------------------
# integer kernels

def _homogeneous_value(p: Sequence[int], num: int, den: int) -> int:
    """den^d p(num/den) = sum_i p_i num^i den^(d-i) for an integer polynomial p
    of degree d, by homogeneous Horner; it has the sign of p(num/den) when den > 0."""
    acc, pw = p[-1], 1
    for c in p[-2::-1]:
        pw *= den
        acc = acc * num + c * pw
    return acc


# ---------------------------------------------------------------------------
# the elimination kernel

def pivot(a: list[list], top: int, col: int, d, rows, echelon: bool = False) -> None:
    """One fraction-free step: each row x = a[r], r in `rows`, becomes
    (p x - f y) / d, with y = a[top] the pivot row, p = y[col], f = x[col].

    Over the integers d is the previous pivot, up to sign, so every entry is
    +/- an integer minor of the initial rows and `//` divides exactly
    (Bareiss, Math. Comp. 1968; Edmonds 1967).  Field rows come with
    p = d = 1 (the pivot row scaled by 1/p): the step is x - f y.  In an
    `echelon` step every row is zero left of `col`, so only x[col:] is
    updated, in place; otherwise each changed row is rebuilt whole.
    """
    y = a[top]
    p = y[col]
    unit = d == 1 and p == 1
    if echelon:
        cols = range(col, len(y))
        for r in rows:
            x = a[r]
            f = x[col]
            if unit:
                if f:
                    for j in cols:
                        if y[j]:
                            x[j] -= f * y[j]
            elif f or p != d:
                for j in cols:
                    x[j] = (p * x[j] - f * y[j]) // d
        return
    for r in rows:
        x = a[r]
        f = x[col]
        if unit:
            if f:
                a[r] = [u - f * v if v else u for u, v in zip(x, y)]
        elif f:
            a[r] = [(p * u - f * v) // d for u, v in zip(x, y)]
        elif p != d:
            a[r] = [p * u // d for u in x]


def eliminate(a: list[list], ncols: int, jordan: bool = True,
              exchange: bool = True) -> tuple[list, int]:
    """Reduce the rows `a` (all ints, or all in one field) in place to echelon
    form in the columns < ncols; return the pivots as (column, value) pairs
    and the sign of the row exchanges.

    With `exchange` a column pivots on its first nonzero entry at or below
    the current row, or is skipped; without it column k pivots on row k and a
    zero pivot ends the pass (as the last pivot).  With `jordan` every other
    row is cleared, without it only the rows below, so each pivot row keeps
    its values from its own step.  The k-th integer pivot is the k x k
    leading minor of the exchanged rows in the pivot columns, and a Jordan
    pass leaves the last pivot in every pivot column; a field pivot is
    reported before its row is scaled, a ratio of consecutive minors.
    """
    pivots: list = []
    sign, d = 1, 1
    m = len(a)
    for col in range(ncols):
        top = len(pivots)
        if top == m:
            break
        if exchange:
            r = next((r for r in range(top, m) if a[r][col]), None)
            if r is None:
                continue
            if r != top:
                a[top], a[r] = a[r], a[top]
                sign = -sign
        p = a[top][col]
        pivots.append((col, p))
        if not p:
            break
        if type(p) is not int:
            inv = 1 / p
            a[top] = [x * inv if x else x for x in a[top]]
        if jordan:
            pivot(a, top, col, d, (r for r in range(m) if r != top))
        else:
            pivot(a, top, col, d, range(top + 1, m), echelon=True)
        d = a[top][col]  # the next divisor: p, or 1 over a field
    return pivots, sign


# ---------------------------------------------------------------------------
# irreducibility over Q for degree <= 4

def rational_roots(p: Sequence[int]) -> list[Fraction]:
    """All rational roots of an integer polynomial, in increasing order.

    A root num/den in lowest terms of the primitive squarefree part, with
    leading coefficient L, has den | L, so L * root is an integer.  Each real
    root's isolating interval is refined until it is at most 1/L wide, so
    its interior holds at most one fraction m/L (the endpoints are not
    roots), and that one candidate is tested in integers: L^d sq(m/L)
    vanishes exactly when sq(m/L) does.  No coefficient is factored.
    """
    seq = _squarefree_sturm(p)
    if len(seq) < 2:
        return []
    sq = seq[0]
    lead = abs(sq[-1])
    roots = []
    for lo, hi in isolate_real_roots(sq):
        lo, hi = refine_root(sq, lo, hi, Fraction(1, lead))
        if lo == hi:  # the bisection hit the root
            roots.append(lo)
            continue
        m = lead * lo.numerator // lo.denominator + 1
        if m * hi.denominator < lead * hi.numerator and _homogeneous_value(sq, m, lead) == 0:
            roots.append(Fraction(m, lead))
    return roots


def _exact_isqrt(n: int) -> Optional[int]:
    """The integer square root of n when n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def _quadratic_pair(p: tuple[int, ...]):
    """Integer quadratics (f, g), sorted, with f*g = p, or None (p primitive,
    degree 4).

    Write p = a x^4 + b x^3 + c x^2 + d x + e with a > 0.  If p = f g over Q,
    then by Gauss's lemma over Z, and g_2 f = a x^2 + s x + t and
    f_2 g = a x^2 + u x + v are integer quadratics whose product is a p.
    Then phi = t + v is an integer root of the monic resolvent cubic
    phi^3 - c phi^2 + (bd - 4ae) phi - (b^2 e - 4ace + a d^2); t, v are the
    roots of z^2 - phi z + ae and s, u those of z^2 - b z + a(c - phi),
    paired so that sv + tu = ad.  Conversely any such integers give
    quadratics whose product is a p, and their primitive parts multiply to p.
    """
    e, d, c, b, a = p
    resolvent = (-(b * b * e - 4 * a * c * e + a * d * d), b * d - 4 * a * e, -c, 1)
    for phi in rational_roots(resolvent):
        phi = phi.numerator  # a rational root of a monic integer cubic is an integer
        r = _exact_isqrt(phi * phi - 4 * a * e)
        k = _exact_isqrt(b * b - 4 * a * (c - phi))
        if r is None or k is None:
            continue
        t, v = (phi + r) // 2, (phi - r) // 2
        for s, u in (((b + k) // 2, (b - k) // 2), ((b - k) // 2, (b + k) // 2)):
            if s * v + t * u == a * d:
                return tuple(sorted(poly_content_primitive((z0, z1, a))[1]
                                    for z1, z0 in ((s, t), (u, v))))
    return None


@_memoized
def irreducible_factors(p: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The irreducible factors over Q of an integer polynomial of degree 1 to 4.

    Factors are primitive integer polynomials with positive leading
    coefficient, listed with multiplicity: the linear factors in increasing
    order of their roots, then what is left once they are divided out.  That
    rest has no rational root, so it is irreducible unless it is a quartic;
    a quartic without rational roots is reducible only as a product of two
    quadratics, found from an integer root of its resolvent cubic
    (`_quadratic_pair`), the two listed in sorted order.  Rational roots come
    from real-root isolation (`rational_roots`): no divisor search, and no
    coefficient is factored.
    """
    _, prim = poly_content_primitive(p)
    deg = len(prim) - 1
    if deg < 1:
        raise ValueError("constant or zero polynomial")
    if deg > 4:
        raise ValueError("degrees above 4 are not supported")
    roots = rational_roots(prim)
    if not roots:
        split = _quadratic_pair(prim) if deg == 4 else None
        return split or (prim,)
    factors: list[tuple[int, ...]] = []
    work = prim
    for r in roots:
        lin = (-r.numerator, r.denominator)
        while len(work) > 1:
            q, rem = pseudo_divmod(work, lin)
            if rem:
                break
            factors.append(lin)
            _, work = poly_content_primitive(q)
    if len(work) > 1:
        factors.append(work)
    return tuple(factors)


def irreducible_degree_le4(p: Sequence[int]) -> bool:
    """Irreducibility of an integer polynomial of degree <= 4 over the rationals."""
    return len(irreducible_factors(p)) == 1


def factor_min_poly(p: Sequence[int], lo: Fraction, hi: Fraction,
                    factors: Optional[Sequence[tuple[int, ...]]] = None) -> tuple[int, ...]:
    """Minimal polynomial of the unique root of p in (lo, hi), degree <= 4.

    Returns the primitive integer irreducible factor of p vanishing on the
    interval's root.  p itself need not be irreducible.  A caller taking the
    minimal polynomials of several roots of one p passes its
    `irreducible_factors` once as `factors`, so p is factored only once.
    """
    _, prim = poly_content_primitive(p)
    if len(prim) - 1 > 4:
        raise ValueError("degrees above 4 are not supported")
    if count_real_roots(prim, lo, hi) != 1:
        raise ValueError("interval does not isolate exactly one root")
    if factors is None:
        factors = irreducible_factors(prim)
    return next(f for f in factors if count_real_roots(f, lo, hi) == 1)


# ---------------------------------------------------------------------------
# real algebraic numbers

class AlgebraicField:
    """Real number field Q(w) with w a designated root of an integer polynomial.

    The generator is pinned by an isolating interval (lo, hi) containing
    exactly one real root of the minimal polynomial.  The interval only ever
    shrinks (bisection keeping the sign change), so the designated root never
    changes; narrowing is an internal cache shared by all elements.  It is
    stored as integer numerators a < b over one denominator d > 0: a halving
    evaluates the minimal polynomial once, by homogeneous Horner, at
    (a + b) / 2d and doubles the other endpoint and d, so every decision is
    the rational one and `interval` gives the same reduced Fractions.

    The interval is part of the certificate file format (`io.emit` writes it
    as it stands), so it reflects the field's refinement history: every sign
    or approximation query on any element may narrow it, and removing or
    adding such a query before emission can change the emitted bytes.
    """

    __slots__ = ("minpoly", "_a", "_b", "_d", "_lo_positive")

    def __init__(self, minpoly: Sequence[int], interval: tuple[Rat, Rat]):
        content, prim = poly_content_primitive(minpoly)
        if content == 0:
            raise ValueError("zero polynomial")
        deg = len(prim) - 1
        if deg < 2 or deg > 4:
            raise ValueError("field generator degree must be 2, 3 or 4")
        if not irreducible_degree_le4(prim):
            raise ValueError("minimal polynomial is reducible over Q")
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if not lo < hi:
            raise ValueError("empty isolating interval")
        d = math.lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        flo = _homogeneous_value(prim, a, d)
        fhi = _homogeneous_value(prim, b, d)
        if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
            raise ValueError("interval endpoints must bracket a sign change")
        if count_real_roots(prim, lo, hi) != 1:
            raise ValueError("interval must isolate exactly one root")
        self.minpoly = prim
        self._a, self._b, self._d = a, b, d
        self._lo_positive = flo > 0

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return Fraction(self._a, self._d), Fraction(self._b, self._d)

    def refine(self) -> None:
        """Halve the isolating interval, preserving the sign change (`_halve`)."""
        a, b, d = _halve(self.minpoly, self._a, self._b, self._d, self._lo_positive)
        if a == b:  # cannot happen for an irreducible minpoly of degree >= 2
            raise ArithmeticError("rational root of an irreducible polynomial")
        self._a, self._b, self._d = a, b, d

    def generator(self) -> "AlgebraicScalar":
        return _element(self, [0, 1] + [0] * (self.degree - 2), 1)

    def from_rational(self, x: Rat) -> "AlgebraicScalar":
        x = Fraction(x)
        return _element(self, [x.numerator] + [0] * (self.degree - 1), x.denominator)

    def element(self, coeffs: Sequence[Rat]) -> "AlgebraicScalar":
        return AlgebraicScalar(self, coeffs)

    def __eq__(self, other):
        return (isinstance(other, AlgebraicField)
                and self.minpoly == other.minpoly
                and self._overlaps(other))

    def _overlaps(self, other: "AlgebraicField") -> bool:
        d, e = self._d, other._d
        return self._a * e < other._b * d and other._a * d < self._b * e

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        lo, hi = self.interval
        return f"AlgebraicField(minpoly={list(self.minpoly)}, root in ({float(lo):.6g}, {float(hi):.6g}))"


def sqrt_field(d: int) -> AlgebraicField:
    """The field Q(sqrt(d)) for a positive non-square integer d."""
    if d <= 0 or math.isqrt(d) ** 2 == d:
        raise ValueError("d must be a positive non-square integer")
    r = math.isqrt(d)
    return AlgebraicField((-d, 0, 1), (r, r + 1))


def _normalized(num, den: int) -> tuple[tuple[int, ...], int]:
    """Integer numerators over a positive denominator, divided by their common gcd."""
    g = math.gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(n // g for n in num), den // g


def _element(field: AlgebraicField, num, den: int) -> "AlgebraicScalar":
    """The element num/den (den > 0) of `field`, brought to lowest terms."""
    x = object.__new__(AlgebraicScalar)
    x.field = field
    x.num, x.den = _normalized(num, den)
    return x


def _reduce_mod(minpoly: tuple[int, ...], c: list[int]) -> int:
    """Reduce the integer polynomial c in place modulo the primitive minpoly.

    Returns s > 0 such that c[:d], afterwards, is s times the remainder of the
    original c.  Each step clears the top coefficient t with
    c <- (L/g) c - (t/g) x^(k-d) minpoly, where L is the leading coefficient
    of the minpoly and g = gcd(t, L), so it stays in integers; s is the
    product of the factors L/g.
    """
    d = len(minpoly) - 1
    lead = minpoly[-1]
    s = 1
    for k in range(len(c) - 1, d - 1, -1):
        t = c[k]
        if not t:
            continue
        if lead != 1:
            g = math.gcd(t, lead)
            f = lead // g
            t //= g
            if f != 1:
                for i in range(k):
                    c[i] *= f
                s *= f
        for i, m in enumerate(minpoly[:d], k - d):
            c[i] -= t * m
    del c[d:]
    return s


def _rational_parts(x) -> Optional[tuple[int, int]]:
    """(numerator, denominator) of an int or Fraction, else None."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return None


class AlgebraicScalar:
    """Element of an :class:`AlgebraicField`, a polynomial in the generator w.

    The element sum_i (num[i]/den) w^i, i < degree, is stored as the tuple of
    integer numerators `num` over one denominator `den` > 0, in lowest terms
    (gcd(den, *num) == 1, so zero is num = (0, ...), den = 1).  The
    representation is unique, so equality is equality of (num, den), and
    `coeffs` gives the same Fractions as a coefficient-wise reduction would.

    Products are integer convolutions reduced modulo the primitive minimal
    polynomial; each reduction step multiplies the numerators by (a divisor
    of) its leading coefficient L and the denominator by the same factor.
    An int or Fraction operand of + - * / and == only rescales the
    numerators.  The inverse solves the integer system of multiplication by
    the element with the fraction-free kernel `eliminate`.

    Signs and approximations evaluate the element over the isolating interval
    (a/D, b/D) by interval Horner in integers.  Every intermediate interval
    is the rational one multiplied by a positive integer, which keeps the
    order of the four endpoint products, so every comparison, every refine()
    and the narrowed interval are those of rational interval arithmetic.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: AlgebraicField, coeffs: Sequence[Rat]):
        if all(type(x) is int for x in coeffs):  # already numerators over den = 1
            num, den = list(coeffs), 1
        else:
            c = [Fraction(x) for x in coeffs]
            den = math.lcm(*(x.denominator for x in c))
            num = [x.numerator * (den // x.denominator) for x in c]
        deg = field.degree
        if len(num) > deg:
            den *= _reduce_mod(field.minpoly, num)
        num += [0] * (deg - len(num))
        self.field = field
        self.num, self.den = _normalized(num, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients num[i]/den, low to high."""
        return tuple(Fraction(n, self.den) for n in self.num)

    def _same_field(self, other: "AlgebraicScalar") -> None:
        if other.field is not self.field and other.field != self.field:
            raise TypeError("cannot mix elements of different fields")

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, AlgebraicScalar):
            self._same_field(other)
            da, db = self.den, other.den
            if da == db:
                return _element(self.field, [x + y for x, y in zip(self.num, other.num)], da)
            g = math.gcd(da, db)
            sa, sb = db // g, da // g
            return _element(self.field, [x * sa + y * sb for x, y in zip(self.num, other.num)],
                            da * sa)
        pq = _rational_parts(other)
        if pq is None:
            return NotImplemented
        return self._shifted(*pq)

    __radd__ = __add__

    def _shifted(self, p: int, q: int) -> "AlgebraicScalar":
        """self + p/q for integers p and q > 0."""
        num = [x * q for x in self.num] if q != 1 else list(self.num)
        num[0] += p * self.den
        return _element(self.field, num, self.den * q)

    def __neg__(self):
        return _element(self.field, [-x for x in self.num], self.den)

    def __sub__(self, other):
        if isinstance(other, AlgebraicScalar):
            return self.__add__(-other)
        pq = _rational_parts(other)
        if pq is None:
            return NotImplemented
        return self._shifted(-pq[0], pq[1])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _scaled(self, p: int, q: int) -> "AlgebraicScalar":
        """self * p/q for integers p and q > 0."""
        return _element(self.field, [x * p for x in self.num], self.den * q)

    def __mul__(self, other):
        if isinstance(other, AlgebraicScalar):
            self._same_field(other)
            c = poly_mul(self.num, other.num)
            s = _reduce_mod(self.field.minpoly, c)
            return _element(self.field, c, self.den * other.den * s)
        pq = _rational_parts(other)
        if pq is None:
            return NotImplemented
        return self._scaled(*pq)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicScalar":
        """1/self by a Gauss-Jordan pass on the integer multiplication matrix.

        Column j of M is C_j = L^j (A w^j mod minpoly) for A = den * self, an
        integer vector (C_{j+1} = L shift(C_j) - top(C_j) minpoly), and
        M diag(L^-j) is the matrix of multiplication by A.  A^-1 = sum x_j w^j
        with x_j = L^j z_j, M z = e_0; the pass on [M | e_0] leaves row j as
        t z_j, t its last pivot.
        """
        num, den = self.num, self.den
        if not any(num[1:]):
            p = num[0]
            if p == 0:
                raise ZeroDivisionError("inverse of zero field element")
            return _element(self.field, [den if p > 0 else -den] + [0] * (len(num) - 1), abs(p))
        mp = self.field.minpoly
        lead = mp[-1]
        col = list(num)
        cols = [col]
        for _ in range(len(num) - 1):
            t = col[-1]
            col = [lead * x - t * m for x, m in zip([0] + col[:-1], mp)]
            cols.append(col)
        a = [list(row) + [int(i == 0)] for i, row in enumerate(zip(*cols))]
        t = eliminate(a, len(num))[0][-1][1]
        s = den if t > 0 else -den
        return _element(self.field, [s * lead ** j * row[-1] for j, row in enumerate(a)], abs(t))

    def __truediv__(self, other):
        if isinstance(other, AlgebraicScalar):
            self._same_field(other)
            return self * other.inverse()
        pq = _rational_parts(other)
        if pq is None:
            return NotImplemented
        p, q = pq
        if p == 0:
            raise ZeroDivisionError("division by zero")
        return self._scaled(q, p) if p > 0 else self._scaled(-q, -p)

    def __rtruediv__(self, other):
        pq = _rational_parts(other)
        if pq is None:
            return NotImplemented
        return self.inverse()._scaled(*pq)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.from_rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- sign, comparison, conversion ----------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def _interval_value(self) -> tuple[int, int, int]:
        """(vlo, vhi, s): the value's Horner interval over the isolating
        interval is [vlo/s, vhi/s], with s > 0."""
        field = self.field
        a, b, dd = field._a, field._b, field._d
        vlo = vhi = self.num[-1]
        pw = 1
        for n in self.num[-2::-1]:
            pw *= dd
            prods = (vlo * a, vlo * b, vhi * a, vhi * b)
            vlo, vhi = min(prods) + n * pw, max(prods) + n * pw
        return vlo, vhi, self.den * pw

    def sign(self) -> int:
        """Certified sign: -1, 0 or +1."""
        if self.is_rational():
            c = self.num[0]
            return (c > 0) - (c < 0)
        for _ in range(20000):
            vlo, vhi, _ = self._interval_value()
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            self.field.refine()
        raise ArithmeticError("sign determination did not converge")

    def approx(self, eps: Rat = Fraction(1, 10**17)) -> Fraction:
        """Rational approximation within eps of the true value."""
        eps = Fraction(eps)
        for _ in range(20000):
            vlo, vhi, s = self._interval_value()
            if (vhi - vlo) * eps.denominator < eps.numerator * s:
                return Fraction(vlo + vhi, 2 * s)
            self.field.refine()
        raise ArithmeticError("approximation did not converge")

    def __float__(self) -> float:
        return float(self.approx(Fraction(1, 10**17)))

    def __eq__(self, other):
        if isinstance(other, AlgebraicScalar):
            if other.field is not self.field and other.field != self.field:
                return NotImplemented
            return self.num == other.num and self.den == other.den
        pq = _rational_parts(other)
        if pq is None:
            return NotImplemented
        return self.is_rational() and (self.num[0], self.den) == pq

    def __hash__(self):
        # a rational element equals, so hashes like, its Fraction (and int)
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field.minpoly, self.num, self.den))

    def _cmp(self, other) -> int:
        diff = self.__sub__(other)
        if diff is NotImplemented:
            raise TypeError("unsupported comparison")
        return diff.sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __repr__(self):
        return f"AlgebraicScalar({list(self.coeffs)} ~ {float(self):.12g})"


Scalar = Union[int, Fraction, float, AlgebraicScalar]


def exact_scalar(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction, AlgebraicScalar))


def common_numerators(xs: Sequence[Scalar], field: Optional[AlgebraicField]
                      ) -> tuple[list[list[int]], int]:
    """Integer numerator vectors of the exact x_j over one common denominator.

    The x_j are ints, Fractions or elements of `field` (None: all rational);
    a rational one gets the numerator vector (p, 0, ..., 0).  The integer form
    of `integer_combinations`, of exact certificate verification and of the
    exact LP's right-hand side.
    """
    deg = 1 if field is None else field.degree
    parts = []
    for x in xs:
        if isinstance(x, AlgebraicScalar):
            if x.field is not field and x.field != field:
                raise TypeError("cannot mix elements of different fields")
            parts.append((x.num, x.den))
        else:
            parts.append(((x.numerator,) + (0,) * (deg - 1), x.denominator))
    den = math.lcm(*(d for _, d in parts))
    return [[c * (den // d) for c in num] for num, d in parts], den


def _field_of(xs: Sequence[Scalar]) -> Optional[AlgebraicField]:
    return next((x.field for x in xs if isinstance(x, AlgebraicScalar)), None)


def from_numerators(field: Optional[AlgebraicField], num: Sequence[int], den: int) -> Scalar:
    """num/den for integer numerators over den > 0: a Fraction of num[0] when
    field is None (any further numerators are 0), else an element of field."""
    return Fraction(num[0], den) if field is None else _element(field, num, den)


def combination_numerators(scaled: Sequence[Sequence[int]],
                           rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """[sum_j row[j] scaled[j] for row in rows]: integer combinations of the
    numerator vectors `scaled` (all of one length), coefficient by coefficient."""
    deg = len(scaled[0]) if scaled else 1
    out = []
    for row in rows:
        num = [0] * deg
        for t, s in zip(row, scaled):
            if t:
                for i, c in enumerate(s):
                    num[i] += t * c
        out.append(num)
    return out


def integer_combinations(xs: Sequence[Scalar], rows: Sequence[Sequence[int]]) -> list:
    """[sum_j row[j] x_j for row in rows], for exact x_j and integer rows.

    The x_j are ints, Fractions or elements of one field.  Their numerators
    are brought over one common denominator once, so each sum is an integer
    dot product per coefficient (`combination_numerators`), allocated once: a
    Fraction when every x_j is rational, else an element of the field.
    """
    field = _field_of(xs)
    scaled, den = common_numerators(xs, field)
    return [from_numerators(field, num, den) for num in combination_numerators(scaled, rows)]


def convolution_sum(us: Sequence[Sequence[int]], vs: Sequence[Sequence[int]],
                    field: Optional[AlgebraicField]) -> tuple[list[int], int]:
    """(c, s): sum_l u_l v_l for nonempty lists of integer coefficient vectors
    (low to high; one length among the u_l, one among the v_l), the products
    taken as polynomials in the generator and their sum reduced once modulo
    field's minimal polynomial (`_reduce_mod`), so that c is s > 0 times the
    remainder, of degree < field.degree.  For field None the vectors have one
    entry, and c = [sum_l u_l[0] v_l[0]], s = 1.
    """
    if field is None:
        return [sum(u[0] * v[0] for u, v in zip(us, vs))], 1
    c = [0] * (len(us[0]) + len(vs[0]) - 1)
    for u, v in zip(us, vs):
        _convolve_into(c, u, v)
    return c, _reduce_mod(field.minpoly, c)


# ---------------------------------------------------------------------------
# integer squarefree decomposition (canonical quadratic generators)

def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    import random as _random
    rng = _random.Random(0xC0FFEE ^ n)
    while True:
        x = rng.randrange(2, n)
        y, c, d = x, rng.randrange(1, n), 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        # Miller-Rabin (deterministic for 64-bit, probabilistic above)
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def squarefree_part(n: int) -> int:
    """The squarefree d with n = d * k^2, preserving sign."""
    if n == 0:
        return 0
    sign = 1 if n > 0 else -1
    d = 1
    for p, e in _factorize(abs(n)).items():
        if e % 2 == 1:
            d *= p
    return sign * d
