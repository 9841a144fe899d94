"""Benchmark of the minitori CLI: end-to-end pass times and per-layer traces.

Usage (from the repository root):

    python3 bench/run.py --workload certify --seed 0 --seconds 42 --trace 0
    python3 bench/run.py --workload certify --seed 0 --seconds 42 --trace 1
    python3 bench/run.py --record-digests

A pass runs every command of the workload through minitori.cli.main in a
fresh worker process (see worker.py), started one at a time with BLAS threads
pinned to 1, so each pass pays the cold module-level caches a CLI user pays.
Passes repeat until --seconds of passes are spent; each metric is the median
over the passes, and every time is rescaled to a reference host speed (see
worker.py).  With --trace 1 untraced and traced passes alternate, and the
per-layer metrics come from the traced ones.

Every pass's outputs are checked: against the digests in digests.json, which
were recorded at the default seed, and by the exact oracles in oracles.py.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
WORKDIR_ROOT = ROOT / ".bench_run"
MIN_PASSES = 3           # per mode; a median of fewer passes is too noisy
PASS_TIMEOUT_S = 150
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, commands, random_gram, write_inputs  # noqa: E402

# per-layer metrics listed in BENCHMARK.json: every exact count, the extra
# counters, the tracing overhead, and times of the functions every workload
# calls (a function that is never called reads 0.0 s on every run; its time
# is printed in the table but is no metric).
TIMED_EVERYWHERE = ("cli.main", "symmetric.determinant", "symmetric.is_positive_definite")


def per_layer_names() -> list[str]:
    names = [f"{f}.calls" for f in tracer.traced_names()] + tracer.COUNTER_NAMES
    names += [f"{f}.{s}" for f in TIMED_EVERYWHERE for s in ("total_s", "self_s")]
    return names + ["trace.pass_s", "trace.overhead"]


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pass(workload: str, seed: int, trace: bool, workdir: Path) -> dict:
    """Run one pass in a fresh worker; returns its result with output digests."""
    write_inputs(workload, seed, workdir)
    env = dict(os.environ, **WORKER_ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(trace)),
             str(workdir)],
            capture_output=True, text=True, env=env, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {workload} pass took over {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.splitlines()[-1])
    res["setup_s"] = (res.pop("import_done") - spawned) * res.pop("setup_scale")
    res["scale"] = res["ref_pass_s"] / res["pass_s"]
    for cmd, rec in zip(commands(workload, seed), res["commands"]):
        rec["stdout_sha"] = _sha(rec["stdout"].encode())
        rec["files"] = {f: _sha((workdir / f).read_bytes())
                        for f in cmd.outputs if (workdir / f).is_file()}
    return res


def _outputs(res: dict) -> list:
    return [(r["status"], r["stdout_sha"], r["files"]) for r in res["commands"]]


def check_outputs(workload: str, seed: int, res: dict, workdir: Path,
                  recorded: dict) -> list[str]:
    """Problems with one pass's outputs: digest mismatches and oracle failures.

    A command recorded as succeeding must succeed with the same stdout and
    files.  A command recorded as failing is counted as failed, not checked
    here, except that the files it wrote before failing must match.  Seeded
    commands have digests at the default seed only; the oracles run at every
    seed.
    """
    problems = []
    for cmd, rec in zip(commands(workload, seed), res["commands"]):
        want = recorded.get(cmd.key)
        if want is not None and (seed == DEFAULT_SEED or not cmd.seeded):
            got = (rec["status"], rec["stdout_sha"])
            if want["status"] == "ok" and got != ("ok", want["stdout"]):
                problems.append(f"{cmd.key}: status or stdout differs from the recorded digest")
            for f, sha in want["files"].items():
                if rec["files"].get(f, sha) != sha:
                    problems.append(f"{cmd.key}: {f} differs from the recorded digest")
        for f in rec["files"]:
            err = oracles.check_rational_certificate((workdir / f).read_text())
            if err:
                problems.append(f"{cmd.key}: {f}: {err}")
        if cmd.argv[0] == "enumerate" and cmd.seeded and rec["status"] == "ok":
            target = Fraction(cmd.argv[cmd.argv.index("--target") + 1])
            err = oracles.check_target_classes(random_gram(seed), target, rec["stdout"])
            if err:
                problems.append(f"{cmd.key}: {err}")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for `seconds`; returns every pass and the problems found."""
    recorded = json.loads(DIGESTS.read_text())[workload]
    WORKDIR_ROOT.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORKDIR_ROOT))
    modes = (False, True) if trace else (False,)
    runs: dict[bool, list[dict]] = {m: [] for m in modes}
    problems: list[str] = []
    reference = None
    start = time.monotonic()
    try:
        while True:
            done = min(len(v) for v in runs.values())
            elapsed = time.monotonic() - start
            cycle = elapsed / done if done else 0.0
            if done >= MIN_PASSES and elapsed + cycle > seconds:
                break
            for mode in modes:
                workdir = base / f"pass{sum(map(len, runs.values()))}"
                workdir.mkdir()
                res = run_pass(workload, seed, mode, workdir)
                if reference is None:
                    reference = _outputs(res)
                    problems += check_outputs(workload, seed, res, workdir, recorded)
                elif _outputs(res) != reference:
                    problems.append("pass outputs differ from the first pass"
                                    + (" (traced)" if mode else ""))
                runs[mode].append(res)
                shutil.rmtree(workdir)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        _remove_workdir_root()
    return {"runs": runs, "problems": problems}


def _remove_workdir_root() -> None:
    try:
        WORKDIR_ROOT.rmdir()
    except OSError:   # another run still uses it
        pass


def summarize(workload: str, seed: int, meas: dict, trace: bool) -> dict:
    runs = meas["runs"]
    problems = meas["problems"]
    plain = runs[False]
    cmds = commands(workload, seed)
    # each distinct command counts once per run, so the counts depend on the
    # seed alone, not on how many passes fitted in --seconds; every pass must
    # repeat the first pass's statuses (checked in measure).
    attempted = len(cmds)
    failed = sum(rec["status"] != "ok" for rec in plain[0]["commands"])
    q1, pass_s, q3 = statistics.quantiles([r["ref_pass_s"] for r in plain], n=4)
    wall_s = statistics.median(r["pass_s"] for r in plain)
    setup_s = statistics.median(r["setup_s"] for r in plain)
    rss = statistics.median(r["peak_rss_mib"] for r in plain)
    if trace:
        traced = runs[True]
        # counts must repeat exactly, so they are taken from the first traced pass
        layers = {k: statistics.median(r["layers"][k] * r["scale"] for r in traced)
                  if k.endswith("_s") else v for k, v in traced[0]["layers"].items()}
        if any(r["layers"][k] != layers[k] for r in traced for k in layers
               if not k.endswith("_s")):
            problems.append("call counts differ between traced passes")
        layers["trace.pass_s"] = statistics.median(r["ref_pass_s"] for r in traced)
        layers["trace.overhead"] = layers["trace.pass_s"] / pass_s

    speed = statistics.median(r["scale"] for r in plain)
    print(f"{workload} seed {seed}: {len(plain)} untraced passes, pass_s median {pass_s:.4f} s "
          f"(q1 {q1:.4f}, q3 {q3:.4f}; wall {wall_s:.4f} s), setup_s {setup_s:.4f} s, "
          f"peak_rss_mib {rss:.2f} MiB, failed_ratio {failed}/{attempted} = "
          f"{failed / attempted:.4f} ratio; host speed {speed:.3f}x the reference")
    for cmd, rec in zip(cmds, plain[0]["commands"]):
        if rec["status"] != "ok":
            print(f"  failed: {cmd.key}: {rec['status']}")
    for p in problems:
        print(f"  INCORRECT: {p}")

    if not trace:
        metrics = {"pass_s": (pass_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mib": (rss, "MiB")}
    else:
        print(f"traced: {len(traced)} passes, pass_s median {layers['trace.pass_s']:.4f} s, "
              f"overhead {layers['trace.overhead']:.4f} ratio")
        print(f"  {'function':44s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
        for f in tracer.traced_names():
            print(f"  {f:44s} {layers[f + '.calls']:8.0f} {layers[f + '.total_s']:10.4f} "
                  f"{layers[f + '.self_s']:10.4f}")
        for c in tracer.COUNTER_NAMES:
            print(f"  {c:44s} {layers[c]:8.0f}")
        metrics = {name: (layers[name], _unit(name)) for name in per_layer_names()}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _unit(name: str) -> str:
    if name == "trace.overhead":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


def record_digests() -> None:
    """Write digests.json from one untraced pass per workload at the default seed."""
    out = {}
    for workload in WORKLOADS:
        WORKDIR_ROOT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="record-", dir=WORKDIR_ROOT))
        try:
            res = run_pass(workload, DEFAULT_SEED, False, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        out[workload] = {cmd.key: {"status": rec["status"], "stdout": rec["stdout_sha"],
                                   "files": rec["files"]}
                         for cmd, rec in zip(commands(workload, DEFAULT_SEED), res["commands"])}
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    _remove_workdir_root()
    print(f"wrote {DIGESTS.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="re-record digests.json at the default seed and exit")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "minitori" / "cli.py").is_file():
        print(f"error: no minitori sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        meas = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = summarize(args.workload, args.seed, meas, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
