#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workload hot-jobs --seeds 1-10 --seconds 45

For every metric of the result line it prints the median, the spread (the
distance between the first and third quartile as a share of the median,
from statistics.quantiles(values, n=4)), and the minimum and maximum. Run
it from the repository root; the runs are sequential.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", default="45")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values, units, host = {}, {}, ""
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        took = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        host = next((l for l in lines if l.startswith("host ")), host)
        res = json.loads(lines[-1])
        ops = next((l for l in lines if l.startswith("ops ")), "")
        evicted = ops.partition("evicted=")[2] or "?"
        print(f"seed {seed} ({took:.0f}s): correct={res['correct']} attempted={res['attempted']} failed={res['failed']} evicted={evicted} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
            units[k] = v["unit"]

    print(host)
    print(f"{'metric':34} {'unit':6} {'n':>3} {'median':>12} {'spread':>8} {'min':>12} {'max':>12}")
    for k in sorted(values):
        xs = values[k]
        med = statistics.median(xs)
        spread = float("nan")
        if len(xs) >= 2 and med != 0:
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        print(f"{k:34} {units[k]:6} {len(xs):3d} {med:12.6g} {spread:8.3f} {min(xs):12.6g} {max(xs):12.6g}")


if __name__ == "__main__":
    main()
