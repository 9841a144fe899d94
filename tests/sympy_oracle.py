"""An oracle for homogeneous certificates that shares no code with `minitori`.

`check(text)` reads the certificate JSON itself and decides it in sympy:

* every algebraic scalar of the file names one minimal polynomial m and one
  isolating interval [lo, hi]; m is irreducible over Q (`Poly.is_irreducible`),
  [lo, hi] holds exactly one root w of m, and neither endpoint is a root
  (`Poly.count_roots`).  A file without algebraic scalars is read over
  Q = Q[x]/(x), w = 0 in [-1, 1];
* the equations hold in Q[x]/(m), by `Poly.rem`: Y_j^t Q Y_j = 1 for every j,
  n Q W = I for W = sum_j w_j Y_j Y_j^t, and sum_j w_j = 1;
* every weight and every leading principal minor of Q is positive at w.  The
  sign of a residue r is read at lo after [lo, hi] is bisected, on the sign
  of m, until r has no root left in it.

It returns the degree over Q of the field that Q's entries generate (the
dimension of the Q-algebra they span in Q[x]/(m)) and the index of the
column lattice in Z^n, the gcd of Y's n x n minors: index 1 means embedded.
It calls neither `minimal_polynomial` nor any algebraic-field domain, so a
quartic certificate takes milliseconds.  A failed check raises
OracleFailure, whose message names the check.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import sympy

X = sympy.Symbol("x")


class OracleFailure(AssertionError):
    pass


class OracleReport(NamedTuple):
    degree: int
    index: int


def _rational(text) -> sympy.Rational:
    f = Fraction(text)
    return sympy.Rational(f.numerator, f.denominator)


def _det(rows):
    """The determinant by Laplace expansion along the first row, for entries
    that add and multiply (ints, or Polys before their reduction mod m)."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for k, x in enumerate(rows[0]):
        minor = _det([row[:k] + row[k + 1:] for row in rows[1:]])
        total = total + (x * minor if k % 2 == 0 else -x * minor)
    return total


def _sign_at_root(r, m, lo, hi) -> int:
    """The sign of r(w), w the one root of m in [lo, hi]."""
    if r.is_zero:
        return 0
    m_lo = m.eval(lo)
    while r.count_roots(lo, hi):
        mid = (lo + hi) / 2
        m_mid = m.eval(mid)
        if m_mid == 0:  # a rational root: m has degree 1
            return int(sympy.sign(r.eval(mid)))
        if (m_mid > 0) == (m_lo > 0):
            lo, m_lo = mid, m_mid
        else:
            hi = mid
    return int(sympy.sign(r.eval(lo)))


def _field_degree(entries, m) -> int:
    """dim_Q of the Q-subalgebra of Q[x]/(m) that the residues `entries`
    generate: the least span that holds 1 and is closed under multiplication
    by each entry, grown until its rank stops rising."""
    d = m.degree()

    def vector(p):
        coeffs = p.all_coeffs()[::-1]
        return coeffs + [0] * (d - len(coeffs))

    basis = [sympy.Poly(1, X, domain="QQ")]
    while True:
        grown = list(basis)
        rank = sympy.Matrix([vector(p) for p in grown]).rank()
        for b in basis:
            for e in entries:
                p = (b * e).rem(m)
                candidate = sympy.Matrix([vector(q) for q in grown + [p]]).rank()
                if candidate > rank:
                    grown.append(p)
                    rank = candidate
        if len(grown) == len(basis):
            return len(basis)
        basis = grown


def check(text: str) -> OracleReport:
    """Decide the homogeneous certificate `text`; see the module docstring."""
    doc = json.loads(text)
    if doc["kind"] != "homogeneous":
        raise OracleFailure(f"kind {doc['kind']!r}: the oracle reads homogeneous certificates")
    n, y = doc["n"], [tuple(int(v) for v in col) for col in doc["Y"]]
    rows, weights = doc["Q"]["rows"], doc["weights"]
    scalars = [x for row in rows for x in row] + list(weights)
    fields = {(tuple(x["minpoly"]), tuple(Fraction(e) for e in x["interval"]))
              for x in scalars if isinstance(x, dict)}
    if len(fields) > 1:
        raise OracleFailure(f"{len(fields)} minimal polynomials or intervals in one file")
    minpoly, (lo, hi) = fields.pop() if fields else ((0, 1), (-1, 1))
    m = sympy.Poly(list(reversed(minpoly)), X, domain="QQ")
    lo, hi = _rational(lo), _rational(hi)
    if not m.is_irreducible:
        raise OracleFailure("the minimal polynomial is reducible")
    if m.eval(lo) == 0 or m.eval(hi) == 0 or m.count_roots(lo, hi) != 1:
        raise OracleFailure("the interval does not isolate one root of the minimal polynomial")

    def residue(x):
        coeffs = x["coeffs"] if isinstance(x, dict) else [x]
        return sympy.Poly(sum(_rational(c) * X**i for i, c in enumerate(coeffs)), X,
                          domain="QQ").rem(m)

    q = [[residue(x) for x in row] for row in rows]
    w = [residue(x) for x in weights]
    one = sympy.Poly(1, X, domain="QQ")
    for j, col in enumerate(y):
        norm = sum((q[i][k] * (col[i] * col[k]) for i in range(n) for k in range(n)),
                   0 * one)
        if norm.rem(m) != one:
            raise OracleFailure(f"unit norm: Y_{j}^t Q Y_{j} != 1")
    big_w = [[sum((wj * (col[i] * col[k]) for wj, col in zip(w, y)), 0 * one)
              for k in range(n)] for i in range(n)]
    for i in range(n):
        for k in range(n):
            entry = sum((q[i][l] * big_w[l][k] for l in range(n)), 0 * one) * n
            if entry.rem(m) != (one if i == k else 0 * one):
                raise OracleFailure(f"n Q W != I at ({i}, {k})")
    if sum(w, 0 * one).rem(m) != one:
        raise OracleFailure("the weights do not sum to 1")
    for j, wj in enumerate(w):
        if _sign_at_root(wj, m, lo, hi) != 1:
            raise OracleFailure(f"weight {j} is not positive")
    for k in range(1, n + 1):
        if _sign_at_root(_det([row[:k] for row in q[:k]]).rem(m), m, lo, hi) != 1:
            raise OracleFailure(f"leading principal minor {k} of Q is not positive")
    index = math.gcd(*(_det([list(y[p]) for p in picks]) for picks in combinations(range(len(y)), n)))
    return OracleReport(degree=_field_degree([x for row in q for x in row], m), index=index)
