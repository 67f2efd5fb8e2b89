#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_query --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The library and the benchmark binary are
built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr.  The binary's own
progress lines are passed through, and the last line of stdout is its JSON
result, checked here against the metric lists in BENCHMARK.json.  Exit
codes: 0 ok, 1 a wrong answer, 2 the run failed, 3 build failure or
timeout, 4 the result does not match BENCHMARK.json.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(3, "build timed out: " + " ".join(cmd))
        if r.returncode != 0:
            fail(3, "build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def check_result(line, spec, trace):
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    if set(got) != set(want):
        return f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, " \
               f"extra {sorted(set(got) - set(want))}"
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(m.get("value"), (int, float)) \
                or not math.isfinite(m["value"]):
            return f"metric {name} is malformed: {m}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(2, f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(2, f"unknown workload {args.workload!r}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    # Its own process group, so a timeout also stops the setup children the
    # binary forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(2, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1):
        fail(2, f"{args.workload} exited with {proc.returncode}")
    problem = check_result(lines[-1], spec, args.trace == 1)
    if problem:
        fail(4, problem)
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
