#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark once per seed on each workload, then prints, per
metric, the median of the runs and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, next to the bound BENCHMARK.json fixes for the metric.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Run from the repository root. It invokes BENCHMARK.json's command, so
the first run builds the benchmark.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(bench["command"], workload, seed, args.seconds) for seed in seeds]
        print(f"{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}, {args.seconds} s each")
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<16} median {median:<14.6g} spread {spread:7.2%}  "
                  f"bound {bound:.0%}  ({spread / bound:.2f} of bound)  "
                  f"runs: {' '.join(f'{v:.4g}' for v in values)}")
    print(f"largest spread, setup_s aside: {worst:.2f} of its bound")


if __name__ == "__main__":
    main()
