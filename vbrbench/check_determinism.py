#!/usr/bin/env python3
"""Checks that the benchmark's exact work counts repeat across two runs.

Usage, from the repository root:

    python3 vbrbench/check_determinism.py [--seed N] [--data-seed D] \
        [--seconds S]

For each in-process workload it makes two traced runs and two untraced runs
with the same seeds and requires identical values of the counts named in
COUNTS (traced) and of plan_cost_geomean (untraced). These counts are the
candidates for hard gates: unlike times, a change in them is a change in
the work the program does. wire_churn is not checked: its requests race the
catalog deltas and two service workers, so its counts legitimately vary.
Exits non-zero on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("repeat_m2", "cold_catalog_m1")
COUNTS = ("cost.subsets_costed", "engine.join_rows", "cq.containment_checks",
          "rewrite.view_tuples")


def run(workload, seed, data_seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--data-seed", str(data_seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--data-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        checks = [(1, COUNTS), (0, ("plan_cost_geomean",))]
        for trace, names in checks:
            first, second = (run(workload, args.seed, args.data_seed,
                                 args.seconds, trace) for _ in range(2))
            for name in names:
                a, b = first[name]["value"], second[name]["value"]
                same = a == b
                ok &= same
                print(f"{workload:16} {name:24} {a!r:>22} {b!r:>22} "
                      f"{'same' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
