#!/usr/bin/env python3
"""Regenerate the benchmark's committed reference results.

    python3 perfbench/make_reference.py [--first 0] [--last 49]

For the default seed (42) the benchmark writes every checked result line to
perfbench/reference/<workload>.txt; for every seed in [first, last] it
prints a digest of the lines, collected here into
perfbench/reference/digests.txt.  Run it only when a change is meant to
alter simulated results, and say so in the change.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["cmrpo_cold", "replay_warm", "closed_loop"]
DEFAULT_SEED = 42


def reference_line(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0",
         "--write-reference"],
        capture_output=True, text=True, check=True)
    for line in out.stdout.splitlines():
        if line.startswith("@@REF "):
            return line[len("@@REF "):]
    raise RuntimeError("no reference line for %s seed %d" % (workload, seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=49)
    args = parser.parse_args()
    seeds = sorted(set(range(args.first, args.last + 1)) | {DEFAULT_SEED})
    lines = []
    for workload in WORKLOADS:
        for seed in seeds:
            lines.append(reference_line(workload, seed))
            print(lines[-1], flush=True)
    with open(os.path.join(HERE, "reference", "digests.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
