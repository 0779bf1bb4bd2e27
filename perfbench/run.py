#!/usr/bin/env python3
"""Runs one workload of the repository's benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark (perfbench/Cargo.toml)
twice from source: the timed build, with telemetry compiled out, and the
traced build (`--features trace`: telemetry and the counting allocator).
Build output lands in $CARGO_TARGET_DIR, `.bench_build` by default.

With `--trace 0` the timed build runs and the end-to-end metrics are
printed. With `--trace 1` the timed build runs first, then the traced build
on the same seed and length; the per-layer metrics come from the traced run,
which also writes its spans to `.bench_trace/`, and `trace.overhead_pct` is
how much slower the traced run went. The last line of standard output is
one JSON object: correct, attempted, failed and metrics (value and unit).
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run must end within 180 s; the binaries share this much of it after the
# build, which only takes long in a fresh checkout.
RUN_BUDGET_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    """Builds both binaries; returns their paths. Cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for profile in (["--release"], ["--profile", "trace", "--features", "trace"]):
        cmd = ["cargo", "build", "--offline", "--manifest-path", MANIFEST, *profile]
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return (os.path.join(target_dir, "release", "perfbench"),
            os.path.join(target_dir, "trace", "perfbench"))


def run(binary, args, deadline, extra=()):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} ran past the {RUN_BUDGET_S} s budget")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited with {done.returncode}")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    timed_bin, traced_bin = build(target_dir)
    deadline = time.monotonic() + RUN_BUDGET_S

    timed = run(timed_bin, args, deadline)
    result = timed
    wanted = spec["end_to_end"]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_trace")
        os.makedirs(trace_dir, exist_ok=True)
        spans = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
        result = run(traced_bin, args, deadline, ["--spans", spans])
        fast = timed["metrics"]["peer_rounds_per_s"]
        slow = result["metrics"]["peer_rounds_per_s"]
        result["metrics"]["trace.peer_rounds_per_s"] = slow
        result["metrics"]["trace.overhead_pct"] = 100.0 * (fast - slow) / fast
        wanted = spec["per_layer"]

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        fail(f"the benchmark did not report {', '.join(missing)}")
    print(json.dumps({
        "correct": result["correct"] and timed["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
