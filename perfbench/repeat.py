#!/usr/bin/env python3
"""Runs the benchmark several times and reports each metric's spread.

    python3 perfbench/repeat.py --workload W [--seeds 1-10] [--trace 0]
        [--seconds S] [--out results.json]

For every end-to-end metric: the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound from BENCHMARK.json. Each run
uses its own seed. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds",
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or str(bench["run_seconds"])

    runs = []
    for seed in parse_seeds(args.seeds):
        begin = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", args.trace],
            stdout=subprocess.PIPE, cwd=root)
        wall = time.monotonic() - begin
        lines = proc.stdout.decode().strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        runs.append({"seed": seed, "exit": proc.returncode, "wall_s": wall,
                     "result": result})
        print("seed %d: exit %d, %.1f s wall, correct %s"
              % (seed, proc.returncode, wall, result.get("correct")),
              flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)

    ok = [r["result"] for r in runs if r["exit"] == 0]
    if len(ok) < 2:
        sys.exit("fewer than two successful runs")
    print("%-24s %14s %9s %7s" % ("metric", "median", "iqr/med", "bound"))
    for name in ok[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in ok]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-24s %14.6g %9.4f %7s" % (name, med, spread,
                                          "-" if bound is None else bound))


if __name__ == "__main__":
    main()
