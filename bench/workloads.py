"""The benchmark's workloads: fixed CLI command lists and the input files they read.

A workload is a list of `Command`s run in order in one working directory, so
a later command may read a file an earlier one wrote.  Only two inputs
depend on the seed: `construct rational --seed` and the random rational Gram
of the `spectrum` workload.  Every other command, and so its output, is the
same at every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0

CATALOG_IDS = ("clifford-3", "quadratic-s9", "quadratic-s7",
               "cubic-s7-a", "cubic-s7-b", "quartic-s7")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()   # files the command writes
    seeded: bool = False            # output depends on --seed

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _certify(seed: int) -> list[Command]:
    cmds = []
    for cid in CATALOG_IDS:
        f, r = f"{cid}.json", f"{cid}.reduced.json"
        cmds += [
            Command(("catalog", cid, "-o", f), (f,)),
            Command(("verify", f)),
            Command(("verify", "--format", "json", "--exhaustive-embedding", f)),
            Command(("reduce", f, "-o", r), (r,)),
            Command(("verify", r)),
        ]
    return cmds


# 3 x N integer vector sets for `construct pencil`: the standard basis (or a
# multiple of it) plus the listed fourth/fifth vectors.
PENCIL_SETS = {
    "rank5-deg1": (1, [(1, 1, 0), (0, 1, 1)]),
    "rank5-deg2": (1, [(6, 12, -15), (6, 9, -12)]),
    "rank4-deg2": (1, [(-3, 4, -3)]),
    "rank4-deg3": (4, [(-5, 2, -3)]),
    "rank4-deg4": (1, [(5, 7, 8)]),
}

A3_ROWS = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
A4_ROWS = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
FLOAT_ROWS = [[1.0, 0.25, 0.0], [0.25, 1.5, 0.125], [0.0, 0.125, 2.0]]


def _construct(seed: int) -> list[Command]:
    cmds = []
    for name, gram in (("I3", "I3"), ("I4", "I4"), ("I5", "I5"), ("I6", "I6"),
                       ("diag123", "diag:1,2,3"), ("A3", "a3.json")):
        out = f"rational-{name}.json"
        cmds.append(Command(("construct", "rational", "--gram", gram, "--seed", str(seed),
                             "-o", out), (out,), seeded=True))
    for name in PENCIL_SETS:
        out = f"pencil-{name}.json"
        cmds.append(Command(("construct", "pencil", "--Y", f"{name}.txt", "-o", out), (out,)))
    for p, q, r in ((3, 4, 5), (5, 12, 13), (8, 15, 17)):
        out = f"pythagorean-{p}-{q}-{r}.json"
        cmds.append(Command(("construct", "pythagorean", "--triple", str(p), str(q), str(r),
                             "-o", out), (out,)))
    cmds.append(Command(("construct", "bryant", "--mn", "1", "3", "--rho-scaled", "1/2",
                         "-o", "bryant-exact.json"), ("bryant-exact.json",)))
    cmds.append(Command(("construct", "bryant", "--mn", "2", "5", "--rho", "0.3",
                         "-o", "bryant-float.json"), ("bryant-float.json",)))
    return cmds


def _spectrum(seed: int) -> list[Command]:
    return [
        Command(("enumerate", "--gram", "I4", "--spectrum", "80")),
        Command(("enumerate", "--gram", "I6", "--target", "25")),
        Command(("enumerate", "--gram", "a4.json", "--spectrum", "40")),
        Command(("enumerate", "--gram", "float.json", "--spectrum", "40")),
        Command(("enumerate", "--gram", "diag:3/2,2,5/2,3,7/2", "--shortest")),
        Command(("enumerate", "--gram", "random.json", "--target", random_target(seed)),
                seeded=True),
    ]


WORKLOADS = {"certify": _certify, "construct": _construct, "spectrum": _spectrum}


def commands(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](seed)


def random_gram(seed: int) -> list[list[Fraction]]:
    """A rational 4 x 4 Gram, positive definite by strict diagonal dominance.

    Diagonal entries lie in [2, 4] and off-diagonal ones in [-1/2, 1/2], so
    every row's off-diagonal mass (at most 3/2) is below its diagonal.
    """
    rng = random.Random(f"bench-gram-{seed}")
    n = 4
    q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = Fraction(rng.randint(4, 8), 2)
        for j in range(i + 1, n):
            q[i][j] = q[j][i] = Fraction(rng.randint(-3, 3), 6)
    return q


def random_target(seed: int) -> str:
    """A norm the random Gram attains: v^t Q v for a seeded small vector v."""
    rng = random.Random(f"bench-target-{seed}")
    q = random_gram(seed)
    v = [0, 0, 0, 0]
    while not any(v):
        v = [rng.randint(-1, 1) for _ in range(4)]
    val = sum(v[i] * q[i][j] * v[j] for i in range(4) for j in range(4))
    return str(val)


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the files the workload's commands read into workdir."""
    if workload == "construct":
        (workdir / "a3.json").write_text(json.dumps({"rows": A3_ROWS}))
        for name, (scale, extra) in PENCIL_SETS.items():
            cols = [tuple(scale if i == k else 0 for i in range(3)) for k in range(3)] + extra
            rows = [" ".join(str(c[i]) for c in cols) for i in range(3)]
            (workdir / f"{name}.txt").write_text("\n".join(rows) + "\n")
    elif workload == "spectrum":
        (workdir / "a4.json").write_text(json.dumps({"rows": A4_ROWS}))
        (workdir / "float.json").write_text(json.dumps({"rows": FLOAT_ROWS}))
        rows = [[str(x) for x in row] for row in random_gram(seed)]
        (workdir / "random.json").write_text(json.dumps({"rows": rows}))
