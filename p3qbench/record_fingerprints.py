#!/usr/bin/env python3
"""Re-records p3qbench/fingerprints.txt, the correctness gate's reference.

    python3 p3qbench/record_fingerprints.py

Records, for every workload, the full-scale fingerprint of the default and
the held-out seed at the benchmark's run length, and the tiny-replica
fingerprint of seeds 0..99. Run it only when a change is meant to alter the
simulation's results, and say so in the change.
"""
import json
import os
import subprocess
import sys

import run

WORKLOADS = ("converge", "query", "churn")
FULL_SEEDS = (1, 7919)  # default seed, held-out seed
TINY_SEEDS = range(100)


def fingerprints(binary, argv):
    done = subprocess.run([binary] + argv, capture_output=True, text=True,
                          check=True, timeout=run.RUN_TIMEOUT_S)
    return [line.split(" ", 1)[1] for line in done.stdout.splitlines()
            if line.startswith("fingerprint ")]


def main():
    binary = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        seconds = str(json.load(f)["run_seconds"])
    lines = []
    for workload in WORKLOADS:
        for seed in FULL_SEEDS:
            print("full", workload, seed, file=sys.stderr)
            lines += fingerprints(binary, [
                "--workload", workload, "--seed", str(seed),
                "--seconds", seconds])
        for seed in TINY_SEEDS:
            # A minimal measured pass; only the tiny replica's line is kept.
            lines += [l for l in fingerprints(binary, [
                "--workload", workload, "--seed", str(seed), "--users", "100",
                "--cycles", "1"]) if "-tiny " in l]
    with open(run.FINGERPRINTS, "w") as f:
        f.write("# <workload> users=<U> cycles=<C> seed=<S> <fingerprint>\n"
                "# Written by record_fingerprints.py; checked by every run.\n")
        for line in sorted(set(lines)):
            f.write(line + "\n")


if __name__ == "__main__":
    main()
