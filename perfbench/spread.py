#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload serve_tenants --seeds 1-10 --seconds 10

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread: (Q3 - Q1) / median,
the figure each end-to-end bound in BENCHMARK.json is compared with. It
also prints the attempted and failed counts of every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values = {}
    for seed in seeds_of(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        print("seed %d: exit %d correct %s attempted %s failed %s" %
              (seed, done.returncode, result.get("correct"),
               result.get("attempted"), result.get("failed")), flush=True)
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print("%-24s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f" %
              (name, median, q1, q3, spread))


if __name__ == "__main__":
    sys.exit(main())
