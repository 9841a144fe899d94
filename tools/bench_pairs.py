"""Paired end-to-end benchmark runs of two commits of this repository.

Usage (from the repository root):

    python3 tools/bench_pairs.py --base HEAD~1 --change HEAD --pairs 10 --seconds 10 \
        -o BENCH.json

Each of the two trees (any tree-ish `git archive` takes: a commit, or the
tree `git write-tree` makes of the staged files) is exported with
`git archive` into its own scratch directory, so each side runs exactly its
committed files, with its own unchanged `bench/run.py`, and no worktree is
registered in the repository.  For every workload, --pairs pairs of runs
follow one another: `bench/run.py --workload W --seed S --seconds T --trace 0`
on one side, then on the other, the order swapped from pair to pair so that
a drift of the host's speed falls on both sides alike.

The output file records, per workload and pair, every end-to-end metric of
both runs with their `correct`, `attempted` and `failed`; per metric, the
median and quartiles of each side's values, the change's median relative to
the base's, and in how many pairs the change was better.  It also records
the Python version, the platform, the CPU count, and whether
PYTHONDONTWRITEBYTECODE was set (if it is, every worker compiles `src/`
afresh, and that compile is part of `setup_s`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify", "construct", "spectrum")
END_TO_END = {"pass_s": "lower", "setup_s": "lower", "peak_rss_mib": "lower"}


def _git(*args: str, check: bool = True) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=check, capture_output=True,
                          text=True).stdout.strip()


def describe(tree_ish: str) -> dict:
    """The tree-ish as given, its commit (None for a bare tree) and its tree."""
    commit = _git("rev-parse", "--verify", "--quiet", f"{tree_ish}^{{commit}}", check=False)
    return {"tree_ish": tree_ish, "commit": commit or None,
            "tree": _git("rev-parse", f"{tree_ish}^{{tree}}")}


def export(tree: str, into: Path) -> None:
    """Write the files of `tree` into the empty directory `into`."""
    archive = subprocess.run(["git", "archive", "--format=tar", tree], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run; its last stdout line is the result object."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    row = {name: result["metrics"][name]["value"] for name in END_TO_END}
    row.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"])
    return row


def _quartiles(xs: list[float]) -> list[float]:
    """[q1, q3] of the values (both the value itself for one value)."""
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return [q1, q3]


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for name, better in END_TO_END.items():
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))
        out[name] = {"better": better,
                     "base_median": statistics.median(base), "base_quartiles": _quartiles(base),
                     "change_median": statistics.median(change),
                     "change_quartiles": _quartiles(change),
                     "relative_change": statistics.median(change) / statistics.median(base) - 1,
                     "change_better_pairs": f"{wins}/{len(pairs)}"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="tree-ish of the base side")
    ap.add_argument("--change", required=True, help="tree-ish of the changed side")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0, help="--seconds of each run.py run")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to run (repeatable; default: all three)")
    ap.add_argument("-o", "--output", required=True)
    args = ap.parse_args(argv)
    sides = {"base": args.base, "change": args.change}
    record = {
        "sides": {side: describe(tree) for side, tree in sides.items()},
        "command": "python3 bench/run.py --workload W --seed S --seconds T --trace 0",
        "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "python": sys.version, "platform": platform.platform(), "cpu_count": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "workloads": {},
    }
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        checkouts = {}
        for side, tree in sides.items():
            checkouts[side] = scratch / side
            checkouts[side].mkdir()
            export(tree, checkouts[side])
        for workload in args.workload or WORKLOADS:
            pairs = []
            for k in range(args.pairs):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                pair = {"order": list(order)}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, args.seed, args.seconds)
                    print(f"{workload} pair {k + 1}/{args.pairs} {side}: "
                          + ", ".join(f"{m} {pair[side][m]:.4f}" for m in END_TO_END)
                          + f", correct {pair[side]['correct']}", flush=True)
                pairs.append(pair)
            record["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.output).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
