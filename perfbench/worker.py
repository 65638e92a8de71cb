"""One pass of one workload, in a fresh interpreter so that charp's module
caches start cold, as they do for every ``charp`` command.

    python3 perfbench/worker.py WORKLOAD SEED MODE TRACE

MODE ``setup`` stops once the inputs are built; MODE ``pass`` also runs and
checks the jobs.  With TRACE 1 the jobs run under ``tracer.Tracer`` and the
spans are written to .perfbench_out/.  The last line of standard output is a
JSON record: ``ready`` is the time.monotonic() reading once charp is imported
and the inputs are built, which the caller compares with its own reading at
spawn time to get the set-up time.  An untraced pass also samples the host's
speed and reports its time in reference seconds as well (``hostspeed.py``).
"""

import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports charp from src/)
from hostspeed import HostSpeed  # noqa: E402


def run_pass(jobs, trace_path):
    """Time the jobs, then check them; returns the pass record."""
    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    outputs = []
    # the reference loop would land inside the spans of a traced pass
    speed = None if tracer else HostSpeed()
    t0 = time.perf_counter()
    with speed or contextlib.nullcontext():
        for job in jobs:
            try:
                outputs.append((True, job.run()))
            except Exception as exc:  # a wrong answer, not a reason to stop
                outputs.append((False, f"{type(exc).__name__}: {exc}"))
    record = {"wall_s": speed.wall_s() if speed else time.perf_counter() - t0,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if speed:
        record["reference_s"] = speed.reference_s()
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        tracer.write(trace_path)
    record["failures"] = failures = []
    for job, (ran, out) in zip(jobs, outputs):
        wrong, reason = job.units, out
        if ran:
            try:
                wrong, reason = job.check(out)
            except Exception:
                reason = "check raised: " + traceback.format_exc(limit=2)
        if wrong:
            failures.append({"job": job.name, "wrong": wrong, "reason": reason,
                             "known": job.name in workloads.KNOWN_DEFECTS})
    return record


def main():
    name, seed, mode, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    try:
        jobs = workloads.WORKLOADS[name](seed, workdir)
        record = {"ready": time.monotonic(), "units": sum(j.units for j in jobs)}
        if mode == "pass":
            trace_path = os.path.join(OUT, f"spans-{name}-seed{seed}") \
                if trace == "1" else None
            record.update(run_pass(jobs, trace_path))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
