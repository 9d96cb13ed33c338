#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: one run per seed, then
each metric's median, quartiles and spread (interquartile range over
median), the figure BENCHMARK.json's bounds are set against.

    python3 perfbench/spread.py --workload sql_queries --seeds 1-10 \\
        --seconds 25
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds")

    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit("seed %d: %d of %d ops failed" % (
                seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (name, m["value"])
            for name, m in result["metrics"].items())), flush=True)

    print("%-18s %12s %12s %12s %7s" % ("metric", "median", "q1", "q3",
                                        "spread"))
    for name, samples in values.items():
        q1, q3 = benchstats.quartiles(samples)
        print("%-18s %12.5g %12.5g %12.5g %7.3f" % (
            name, benchstats.median(samples), q1, q3,
            benchstats.spread(samples)))


if __name__ == "__main__":
    main()
