"""One benchmark pass in a fresh interpreter, so every module-level cache is cold.

Usage: worker.py WORKLOAD SEED TRACE WORKDIR

Imports minitori.cli first and reports when that is done (time.monotonic(),
a clock shared with the parent), then runs the workload's commands in-process
through minitori.cli.main in WORKDIR, and prints one JSON object: the
per-command status and stdout, the pass time, the peak RSS and, with TRACE 1,
the tracer's per-layer metrics.

Host speed on a shared machine swings by up to 2x, within seconds and over
minutes, so the pass is also timed at a reference speed.  Between commands,
after at least CALIBRATE_AFTER_S of command time, the worker times a fixed
calibration loop for CALIBRATION_SHARE of that time.  Each stretch of
commands is rescaled by REFERENCE_S over the mean loop time just before and
just after it.  REFERENCE_S is the loop's typical time on a shared 2-vCPU
VM, so rescaled times stay close to wall seconds there.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import minitori.cli  # noqa: E402  (the timed import)

IMPORT_DONE = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import commands  # noqa: E402


REFERENCE_S = 0.034
CALIBRATION_STEPS = 5000
CALIBRATION_SHARE = 0.2
CALIBRATE_AFTER_S = 0.5


def calibrate(budget_s: float) -> float:
    """Mean wall time of a fixed pure-Python Fraction loop, repeated for budget_s."""
    gc.disable()   # the loop's cost must not depend on what the pass left on the heap
    try:
        t0 = time.perf_counter()
        loops = 0
        while loops == 0 or time.perf_counter() - t0 < budget_s:
            acc = Fraction(0)
            seen = {}
            for i in range(1, CALIBRATION_STEPS):
                acc += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(i % 5 + 1, i % 13 + 2)
                seen[(i % 7, i % 5)] = acc
            loops += 1
        return (time.perf_counter() - t0) / loops
    finally:
        gc.enable()


def run_pass(workload: str, seed: int, trace: bool, workdir: str) -> dict:
    cmds = commands(workload, seed)
    tracer = tracing.install() if trace else None
    os.chdir(workdir)
    records = []
    loop_s = calibrate(CALIBRATION_SHARE * CALIBRATE_AFTER_S)
    setup_scale = REFERENCE_S / loop_s
    pass_s = ref_pass_s = stretch_s = 0.0
    for i, cmd in enumerate(cmds):
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                code = minitori.cli.main(list(cmd.argv))
                status = "ok" if code == 0 else f"exit {code}"
            except Exception as exc:  # a crash is a failed command, not a failed pass
                status = type(exc).__name__
        stretch_s += time.perf_counter() - t0
        records.append({"status": status, "stdout": out.getvalue()})
        if stretch_s >= CALIBRATE_AFTER_S or i == len(cmds) - 1:
            loop_after = calibrate(CALIBRATION_SHARE * stretch_s)
            pass_s += stretch_s
            ref_pass_s += stretch_s * REFERENCE_S / ((loop_s + loop_after) / 2)
            loop_s, stretch_s = loop_after, 0.0
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"import_done": IMPORT_DONE, "setup_scale": setup_scale, "pass_s": pass_s,
            "ref_pass_s": ref_pass_s, "peak_rss_mib": rss_kib / 1024,
            "commands": records, "layers": tracer.metrics() if tracer else None}


if __name__ == "__main__":
    wl, sd, tr, wd = sys.argv[1:5]
    result = run_pass(wl, int(sd), tr == "1", wd)
    sys.stdout.write(json.dumps(result) + "\n")
