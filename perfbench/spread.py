#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread on one workload.

Run from the repository root:

    python3 perfbench/spread.py fleet --runs 5 --first-seed 1

Runs the benchmark once per seed (first-seed, first-seed + 1, ...) and
prints, per end-to-end metric, the median of the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
Exits with code 1 if any run fails or is incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()
    values = {}
    bad = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            bad += 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            bad += 1
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append(f"{name}={m['value']:.5g}")
        print(f"seed {seed}: failed={result['failed']} " + " ".join(row), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
        else:
            spread = float("nan")
        bound = bounds.get(name, float("nan"))
        flag = "" if spread < bound / 3 else "  <-- above a third of its bound"
        print(f"{name:24s} median {med:12.6g}  spread {spread:7.2%}  bound {bound:.0%}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
