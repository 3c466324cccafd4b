#!/usr/bin/env python3
"""Self-test of the P3Q benchmark at tiny scale.

    python3 p3qbench/selftest.py

For every workload it checks that:
  - an untraced run prints every end-to-end metric of BENCHMARK.json with its
    unit, and a traced run every per-layer metric;
  - the deterministic metrics repeat exactly across two runs and across
    --threads 1 and 2;
  - the traced run splits the time between layers as the workload predicts;
  - every run's correctness gate makes its checks and passes, the tiny
    replica's against the fingerprint recorded in fingerprints.txt;
  - the gate fails a run when either recorded fingerprint (the measured
    pass's or the tiny replica's) is perturbed.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

import run

# Metrics that are wall-clock or memory measurements; every other end-to-end
# metric is deterministic in (workload, seed, scale).
MEASURED = {"setup_s", "user_cycles_per_s", "queries_per_s", "peak_rss_mb"}
TINY = ["--users", "240", "--cycles", "12"]
SEED = "5"  # its tiny-replica fingerprints are recorded in fingerprints.txt

# Per-layer totals that must be zero on a workload (the layer is bypassed)
# and non-zero (the layer is exercised).
ZERO = {
    "converge": ["core.eager_s", "core.seed_networks_s", "core.churn_s",
                 "profile.apply_update_s"],
    "query": ["core.lazy_s", "core.churn_s", "profile.apply_update_s"],
    "churn": [],
}
NONZERO = {
    "converge": ["core.lazy_s", "baseline.ideal_networks_s"],
    "query": ["core.eager_s", "core.seed_networks_s", "core.issue_query_s",
              "baseline.reference_topk_s"],
    "churn": ["core.lazy_s", "core.eager_s", "core.churn_s",
              "profile.apply_update_s", "core.seed_networks_s"],
}


def fail(message):
    sys.exit("selftest FAILED: " + message)


def invoke(binary, workload, extra, fingerprints=run.FINGERPRINTS):
    argv = [binary, "--workload", workload, "--seed", SEED] + extra
    argv += ["--fingerprints", fingerprints]
    done = subprocess.run(argv, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("%s exited %d: %s" % (argv, done.returncode, done.stderr))
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), lines


def check_metrics(result, expected, what):
    got = result["metrics"]
    if set(got) != set(expected):
        fail("%s: metric names differ: missing %s, unexpected %s" % (
            what, sorted(set(expected) - set(got)),
            sorted(set(got) - set(expected))))
    for name, unit in expected.items():
        if got[name]["unit"] != unit:
            fail("%s: %s has unit %s, expected %s" % (
                what, name, got[name]["unit"], unit))
    if result["attempted"] < 1:
        fail("%s: attempted < 1" % what)


def deterministic(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k not in MEASURED}


def main():
    binary = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    scratch = os.path.join(run.build_dir(), "selftest")
    os.makedirs(scratch, exist_ok=True)

    for workload in [w["name"] for w in bench["workloads"]]:
        first, lines = invoke(binary, workload, TINY + ["--threads", "2"])
        check_metrics(first, end_to_end, workload)
        if not first["correct"] or first["failed"] != 0:
            fail("%s: untraced tiny run not correct" % workload)
        tiny_ok = "ok   matches recorded %s-tiny " % workload
        if not any(l.startswith(tiny_ok) for l in lines):
            fail("%s: gate did not check the recorded tiny fingerprint"
                 % workload)
        for name, m in first["metrics"].items():
            if m["value"] == 0:
                fail("%s: end-to-end metric %s is 0" % (workload, name))
        again, _ = invoke(binary, workload, TINY + ["--threads", "2"])
        single, _ = invoke(binary, workload, TINY + ["--threads", "1"])
        if deterministic(first) != deterministic(again):
            fail("%s: deterministic metrics differ between two runs" % workload)
        if deterministic(first) != deterministic(single):
            fail("%s: deterministic metrics differ between --threads 1 and 2"
                 % workload)

        spans = os.path.join(scratch, workload + ".jsonl")
        traced, _ = invoke(binary, workload,
                           TINY + ["--trace", "1", "--spans", spans])
        check_metrics(traced, per_layer, workload + " traced")
        if not traced["correct"]:
            fail("%s: traced pass differs from the untraced pass" % workload)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        for name in ZERO[workload]:
            if layer[name] != 0:
                fail("%s: %s should be 0, is %s" % (workload, name, layer[name]))
        for name in NONZERO[workload]:
            if layer[name] <= 0:
                fail("%s: %s should be > 0" % (workload, name))
        with open(spans) as f:
            records = [json.loads(line) for line in f]
        if len(records) != layer["trace.spans"] or not records:
            fail("%s: span file does not hold every span" % workload)

        # The gate: a run checked against its own two fingerprints passes;
        # a run with either of them perturbed fails.
        recorded = [l.split(" ", 1)[1] for l in lines
                    if l.startswith("fingerprint ")]
        if len(recorded) != 2:
            fail("%s: expected 2 fingerprint lines, got %d"
                 % (workload, len(recorded)))
        good = os.path.join(scratch, workload + "-good.txt")
        with open(good, "w") as f:
            f.write("\n".join(recorded) + "\n")
        passed, passed_lines = invoke(binary, workload, TINY, fingerprints=good)
        checked = [l for l in passed_lines if l.startswith("ok   matches ")]
        if not passed["correct"] or passed["failed"] != 0 or len(checked) != 2:
            fail("%s: gate rejects or skips the recorded fingerprints"
                 % workload)
        for i, line in enumerate(recorded):
            key, value = line.rsplit(" ", 1)
            bad = os.path.join(scratch, "%s-bad%d.txt" % (workload, i))
            with open(bad, "w") as f:
                for j, other in enumerate(recorded):
                    if j == i:
                        other = "%s %016x" % (key, int(value, 16) ^ 1)
                    f.write(other + "\n")
            rejected, _ = invoke(binary, workload, TINY, fingerprints=bad)
            if rejected["correct"] or rejected["failed"] != 1:
                fail("%s: gate accepts a perturbed fingerprint for %s"
                     % (workload, key))
        print("ok", workload)
    print("selftest passed")


if __name__ == "__main__":
    main()
