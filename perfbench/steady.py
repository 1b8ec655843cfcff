#!/usr/bin/env python3
"""Steadiness check: runs one workload several times, each with its own
seed (1, 2, …), and prints every metric's median, quartiles and spread (the
distance between the first and third quartile as a share of the median),
next to the bound BENCHMARK.json gives the metric. The bounds are set
from this output: each spread should stay below a third of its bound.

    python3 perfbench/steady.py --workload cams-drift --runs 10
    python3 perfbench/steady.py --workload cams-drift --runs 3 --same-seed

--same-seed runs every time with seed 1 and also requires the
printed score-trace digests (cams-drift) to be identical across runs.
Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--same-seed", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, shares, digests = {}, set(), set()
    for i in range(args.runs):
        seed = 1 if args.same_seed else 1 + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit("run %d failed (exit %d):\n%s" % (i, proc.returncode, proc.stderr))
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        for line in lines:
            if line.startswith("score-trace digest"):
                digests.add(line.split()[-1])
            if "medians over rounds" in line:
                p99 = float(line.split("p99 ")[1].split()[0])
                values.setdefault("frame_p99_ms (printed)", []).append(p99)
            if line.startswith("set-up, median of"):
                wall = float(line.split("CPU, ")[1].split()[0])
                values.setdefault("setup_wall_s (printed)", []).append(wall)
        if not res["correct"]:
            sys.exit("run %d (seed %d) failed its checks:\n%s" % (i, seed, proc.stderr))
        shares.add(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("run %2d seed %3d: %s" % (i, seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))), flush=True)

    print("\n%-32s %14s %14s %14s %8s %8s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread >= bound / 3:
            flag = "  <-- spread at or above a third of the bound"
        print("%-32s %14.6g %14.6g %14.6g %8.4f %8s%s" % (
            name, q1, med, q3, spread, "-" if bound is None else bound, flag))
    print("failed share across runs: %s" % sorted(shares))
    if shares != {0.0}:
        sys.exit("frames failed: every workload must run with none")
    if args.same_seed and len(digests) > 1:
        sys.exit("score-trace digests differ across runs at one seed: %s" % sorted(digests))
    if digests:
        print("score-trace digests: %s" % sorted(digests))


if __name__ == "__main__":
    main()
