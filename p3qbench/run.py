#!/usr/bin/env python3
"""Builds the P3Q benchmark from source and runs one workload.

    python3 p3qbench/run.py --workload query --seed 1 --seconds 15 --trace 0

Run from the repository root. The benchmark program is built with CMake into
the directory named by CARGO_TARGET_DIR (default: .bench_build at the
repository root); later runs only re-check the build. Every argument is
passed on to the program (see p3qbench.cc for the full list); this script
adds the recorded fingerprints and, for traced runs, the file the spans are
written to. The program's last line of standard output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.txt")
RUN_TIMEOUT_S = 170


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, configured)


def build():
    """Configures (once) and builds the program; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "p3q_system.h")):
        sys.exit("p3qbench: no p3q sources under %s/src; run from a checkout "
                 "of the repository" % ROOT)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("p3qbench: build step failed: %s" % " ".join(step))
    return os.path.join(out, "p3qbench")


def option(args, flag, default):
    return args[args.index(flag) + 1] if flag in args[:-1] else default


def main(argv):
    binary = build()
    args = list(argv)
    if "--fingerprints" not in args:
        args += ["--fingerprints", FINGERPRINTS]
    if option(args, "--trace", "0") == "1" and "--spans" not in args:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(spans, "%s-%s.jsonl" % (
            option(args, "--workload", "none"), option(args, "--seed", "1")))]
    try:
        done = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("p3qbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
