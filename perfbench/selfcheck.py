#!/usr/bin/env python3
"""Determinism self-check: two traced runs of each workload with one seed
must report identical deterministic metrics (simulated cycles, modeled
seconds, DSE point counts, SQL rows out).

    python3 perfbench/selfcheck.py [--seed 7] [--seconds 1]

Exits 1 and names the metric on any difference, or if a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def traced_metrics(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s: run reported incorrect outputs" % workload)
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()

    differing = 0
    for workload in run.WORKLOADS:
        first = traced_metrics(workload, args.seed, args.seconds)
        second = traced_metrics(workload, args.seed, args.seconds)
        for name in run.DETERMINISTIC:
            a, b = first[name]["value"], second[name]["value"]
            same = a == b
            differing += not same
            print("%-12s %-22s %-24r %s" % (
                workload, name, a, "identical" if same else "DIFFERS: %r" % b))
    if differing:
        print("%d deterministic metric(s) differ between runs" % differing)
        return 1
    print("all deterministic metrics identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
