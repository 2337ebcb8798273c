#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--trace 0]

Runs perfbench/run.py once per seed, one run at a time, and prints for
each metric its values, median, and the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median. Untraced, each spread is compared with the metric's bound in
BENCHMARK.json: it must stay within the bound, and should stay below a
third of it. `setup_s` is exempt from the spread rule. Exits non-zero
when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    ok = True
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            ok = False
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
        else:
            spread = 0.0
        bound = bounds.get(name) if args.trace == "0" else None
        flag = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif spread > bound / 3:
                flag = "  above bound/3"
        shown = " ".join(f"{v:.4g}" for v in vals)
        print(f"{name:<32} median={med:<12.6g} spread={spread:.4f} bound={bound}{flag}\n"
              f"    {shown}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
