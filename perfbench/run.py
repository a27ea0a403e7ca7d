#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload bulk_ingest|analytics|serving \\
        --seed N --seconds S --trace 0|1 \\
        --rates-kops WORKLOAD:r1,r2,r3 ... --read-p99-limit-us L

Builds the library and xpg_perfbench from source (CMake, into
$CARGO_TARGET_DIR or .bench_build under the repository root) on first use,
runs one workload, and prints as the last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). Metric names and units come from BENCHMARK.json; a
metric xpg_perfbench did not produce is an error. With --trace 1 the spans
are written to the build directory as trace-<workload>-<seed>.json.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(REPO, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure (once) and build; returns the benchmark binary's path."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(out_dir, "xpg_perfbench")


def source_id():
    """The commit when run from a git checkout, else a digest of the
    sources the benchmark builds."""
    try:
        rev = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(os.path.join(REPO, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--rates-kops", action="append", default=[])
    ap.add_argument("--read-p99-limit-us", required=True)
    args = ap.parse_args()

    spec_path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if not os.path.exists(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--read-p99-limit-us", args.read_p99_limit_us,
           "--commit", source_id()]
    for ladder in args.rates_kops:
        cmd += ["--rates-kops", ladder]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            out_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out", 1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"xpg_perfbench exited with {done.returncode}", 1)
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            fail(f"xpg_perfbench did not report metric {m['name']}", 1)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
