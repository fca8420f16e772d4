#!/usr/bin/env python3
"""Same-host benchmark of the model checker and the Bakery++ runtime lock.

Run from the root of the repository:

    python3 perfbench/run.py --workload check_seq --seed 1 --seconds 50 --trace 0

It builds perfbench/perfbench.exe with dune, then

  --trace 0  repeats untraced repetitions of the workload, each in a
             process of its own, for about --seconds seconds (at least
             four), and reports the median of each end-to-end metric
             over the repetitions whose result checked out;
  --trace 1  makes one traced run and reports every per-layer metric.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Metric names and units come from BENCHMARK.json; the workloads and what
each metric should move are described in perfbench/NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SPANS_DIR = ".perfbench_out"
MIN_REPS = 4
BUILD_TIMEOUT_S = 850
CALL_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        die("run from the repository root (dune-project and lib/ not found)")
    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed with code %d" % r.returncode)


def call(*args):
    """Run perfbench.exe and return the JSON object on its last line."""
    try:
        r = subprocess.run(
            [EXE] + [str(a) for a in args],
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            timeout=CALL_TIMEOUT_S,
            text=True,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die("%s %s: %s" % (EXE, " ".join(map(str, args)), e))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die("%s %s exited with %d" % (EXE, " ".join(map(str, args)), r.returncode))
    return json.loads(lines[-1])


def untraced(workload, seed, seconds):
    host0 = call("hostref")
    start = time.monotonic()
    reps = []
    while True:
        t = time.monotonic()
        reps.append(call("rep", workload, seed))
        took = time.monotonic() - t
        if len(reps) >= MIN_REPS and time.monotonic() - start + took > seconds:
            break
    host1 = call("hostref")
    # A repetition whose result did not check out is a failure, never a
    # time: only the good ones are measured.
    good = [r for r in reps if r["failed"] == 0]
    for r in reps:
        if r["error"] is not None:
            print("failed repetition: " + r["error"])

    def med(f):
        return statistics.median(f(r) for r in good) if good else 0.0

    metrics = {
        "setup_s": statistics.median(s for r in good for s in r["setup_s"])
        if good
        else 0.0,
        "wall_s": med(lambda r: r["wall_s"]),
        "ops_per_s": med(lambda r: r["ops"] / r["wall_s"]),
        "cpu_s": med(lambda r: r["cpu_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    }
    print(
        "%s: %d repetitions, wall_s %s; host.ref_ns %.4f at start, %.4f at end"
        % (
            workload,
            len(reps),
            " ".join("%.3f" % r["wall_s"] for r in reps),
            host0,
            host1,
        )
    )
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return bool(good) and failed == 0, attempted, failed, metrics


def traced(workload, seed):
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, "spans-%s-seed%d.jsonl" % (workload, seed))
    out = call("trace", workload, seed, spans)
    for e in out["errors"]:
        print("traced run: " + e)
    correct = out["failed"] == 0 and all(
        v is not None for v in out["metrics"].values()
    )
    return correct, out["attempted"], out["failed"], out["metrics"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % a.workload)
    build()
    if a.trace:
        declared = spec["per_layer"]
        correct, attempted, failed, values = traced(a.workload, a.seed)
    else:
        declared = spec["end_to_end"]
        correct, attempted, failed, values = untraced(a.workload, a.seed, a.seconds)
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        die("metrics %s do not match BENCHMARK.json" % sorted(set(names) ^ set(values)))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
