"""The charp benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a charp checkout.  Every pass runs in a fresh
interpreter (``worker.py``), so charp's module caches start cold.  The run
first builds the inputs a few times without running them to measure set-up
time, then runs passes for ``--seconds``, starting a pass only if it should
end in time.  Passes are timed in reference seconds, which take the shared
host's changing speed out (``hostspeed.py``).  With ``--trace 1``
it alternates untraced and traced passes and reports per-layer metrics and
the tracing overhead instead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Workloads, metrics and
references are described in NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

UNITS = {"raster": "cells", "thresholds": "thresholds and tau answers",
         "groebner": "reduced bases", "xi": "group elements and identities"}
SETUP_PROBES = 6
DEADLINE_S = 170  # a run must end within 180 s, whatever a pass does


def spawn(workload, seed, mode, trace, timeout):
    """Run the worker once; returns (record, None) or (None, reason)."""
    cmd = [sys.executable, WORKER, workload, str(seed), mode, str(trace)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"over the {timeout:.0f} s budget"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited with code {proc.returncode}"
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - started
    return record, None


def summary(values):
    """Median, quartiles and the highest percentile with ten values beyond it."""
    v = sorted(values)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
    if len(v) > 10:
        tail = f"p{100 * (len(v) - 10) // len(v)} {v[-11]:.4f}"
    else:
        tail = "no percentile has ten passes beyond it"
    return (f"median {statistics.median(v):.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
            f"{tail}  n {len(v)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(UNITS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "charp", "__init__.py")):
        sys.exit("perfbench: src/charp not found; run from a charp checkout")
    began = time.monotonic()

    def left():
        return DEADLINE_S - (time.monotonic() - began)

    # the first start compiles bytecode, which users pay once, not per run
    warm, err = spawn(args.workload, args.seed, "setup", 0, left())
    if warm is None:
        sys.exit(f"perfbench: {args.workload} does not start: {err}")
    units = warm["units"]
    setups = []
    for _ in range(SETUP_PROBES):
        rec, err = spawn(args.workload, args.seed, "setup", 0, left())
        if rec is None:
            sys.exit(f"perfbench: {args.workload} set-up failed: {err}")
        setups.append(rec["setup_s"])

    modes = (0, 1) if args.trace else (0,)
    passes = {0: [], 1: []}
    attempted = failed = 0
    unknown = []  # failures that are not known defects
    known = set()
    durations = []
    measuring = time.monotonic()
    while left() > 1:
        trace = modes[len(durations) % len(modes)]
        started = time.monotonic()
        rec, err = spawn(args.workload, args.seed, "pass", trace, left())
        durations.append(time.monotonic() - started)
        attempted += units
        if rec is None:
            failed += units
            unknown.append(f"whole pass: {err}")
            break
        passes[trace].append(rec)
        setups.append(rec["setup_s"])
        for f in rec["failures"]:
            failed += f["wrong"]
            if f["known"]:
                known.add(f["job"])
            else:
                unknown.append(f"{f['job']}: {f['reason']}")
        # start another pass only if it should end within --seconds
        spent = time.monotonic() - measuring
        if len(durations) >= len(modes) and spent + max(durations) > args.seconds:
            break

    plain, traced = passes[0], passes[1]
    print(f"perfbench {args.workload}, seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced passes of {units} {UNITS[args.workload]}")
    if plain:
        print("wall_s       " + summary([r["wall_s"] for r in plain]))
        print("ref_wall_s   " + summary([r["reference_s"] for r in plain]))
    print("setup_s      " + summary(setups))
    print(f"error_rate   {failed / attempted:.6f} ({failed} of {attempted} wrong)")
    for job in sorted(known):
        print(f"known defect: {job}")
    for line in unknown[:20]:
        print(f"FAILED {line}")

    if args.trace:
        metrics = traced_metrics(plain, traced)
    else:
        walls = [r["reference_s"] for r in plain]
        metrics = {
            "ref_wall_s": (statistics.median(walls), "s"),
            "ref_ops_per_s": (statistics.median(units / w for w in walls), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        } if plain else {}
    os.makedirs(OUT, exist_ok=True)
    report = os.path.join(OUT, f"report-{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}.json")
    with open(report, "w") as fh:
        json.dump({"setups": setups, "passes": plain, "traced": traced}, fh, indent=1)
    print(json.dumps({
        "correct": not unknown and bool(plain),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def traced_metrics(plain, traced):
    """Medians of the traced passes' layer metrics, plus the tracing overhead.
    Work counts must repeat exactly from pass to pass."""
    if not plain or not traced:
        return {}
    layers = [r["layers"] for r in traced]
    out = {}
    for key in layers[0]:
        values = [lay[key] for lay in layers]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                print(f"NOT REPEATABLE {key}: {values}", file=sys.stderr)
            out[key] = (statistics.median_low(values), "count")
        else:
            unit = "s" if key.endswith("_s") else "ratio"
            out[key] = (statistics.median(values), unit)
    plain_s = statistics.median(r["wall_s"] for r in plain)
    traced_s = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    out["trace.overhead_ratio"] = (traced_s / plain_s - 1, "ratio")
    return out


if __name__ == "__main__":
    main()
