"""Exact output oracles, independent of minitori.

They read the files and stdout the CLI wrote and recheck them in plain
`Fraction` and integer arithmetic, so a wrong certificate or a missed lattice
class is caught even at seeds for which no digest was recorded.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction


def _inverse(q: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(q)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(q)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def check_rational_certificate(text: str) -> str | None:
    """Recheck a homogeneous certificate whose Q and weights are all rational.

    The two certificate equations must hold exactly: Y_j^t Q Y_j = 1 for every
    column, and sum_j w_j Y_j Y_j^t = Q^{-1}/n, checked as Q (sum_j w_j Y_j
    Y_j^t) = I/n; every weight must be positive.  Returns a description of the
    first violation, or None (also for certificates that are not rational).
    """
    doc = json.loads(text)
    if doc.get("kind") != "homogeneous":
        return None
    cells = [x for row in doc["Q"]["rows"] for x in row] + list(doc["weights"])
    if not all(isinstance(x, str) for x in cells):
        return None
    q = [[Fraction(x) for x in row] for row in doc["Q"]["rows"]]
    ys = [tuple(int(v) for v in col) for col in doc["Y"]]
    ws = [Fraction(w) for w in doc["weights"]]
    n = len(q)
    if len(ys) != len(ws):
        return "weight count differs from column count"
    if any(w <= 0 for w in ws):
        return "non-positive weight"
    for y in ys:
        if sum(y[i] * q[i][j] * y[j] for i in range(n) for j in range(n)) != 1:
            return f"column {y} does not have unit norm"
    m = [[sum(w * y[i] * y[j] for w, y in zip(ws, ys)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if sum(q[i][k] * m[k][j] for k in range(n)) != Fraction(int(i == j), n):
                return f"sum w_j Y_j Y_j^t != Q^-1/{n} at ({i},{j})"
    return None


def brute_force_classes(q: list[list[Fraction]], target: Fraction) -> list[tuple[int, ...]]:
    """All +/- classes (first nonzero entry positive) with v^t Q v = target.

    Scans the box |v_i| <= sqrt(target * (Q^-1)_ii), which holds every such v
    for a positive definite Q.
    """
    n = len(q)
    qinv = _inverse(q)
    bounds = [math.isqrt(math.floor(target * qinv[i][i])) for i in range(n)]
    den = math.lcm(*(x.denominator for row in q for x in row), target.denominator)
    qi = [[int(x * den) for x in row] for row in q]
    ti = int(target * den)
    found = []
    for v in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if sum(v[i] * qi[i][j] * v[j] for i in range(n) for j in range(n)) == ti:
            first = next(x for x in v if x != 0)
            if first > 0:
                found.append(v)
    return sorted(found)


def check_target_classes(q: list[list[Fraction]], target: Fraction, stdout: str) -> str | None:
    """Compare `enumerate --target` output with the brute-force scan."""
    lines = stdout.splitlines()
    head = f"classes of norm {target}"
    if not lines or not lines[0].endswith(head):
        return f"unexpected header {lines[:1]!r}"
    listed = sorted(tuple(int(x) for x in ln.strip().strip("()").split(",") if x.strip())
                    for ln in lines[1:])
    want = brute_force_classes(q, target)
    if listed != want or int(lines[0].split()[0]) != len(want):
        return f"{len(listed)} classes listed, the box scan finds {len(want)}"
    return None
