#!/usr/bin/env python3
"""Builds and runs the ctp perf benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-matrix --seed 1 \
        --seconds 30 --trace 0

The first run configures and builds perfbench/ (the ctp libraries from
src/ plus the ctp-perfbench program) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench. Later runs only re-check the build.

The last line of stdout is one JSON object with correct, attempted, failed
and metrics: every end_to_end metric of BENCHMARK.json with --trace 0,
every per_layer metric with --trace 1 (0 for a layer the workload never
reaches). A traced run also writes its spans as Chrome trace-event JSON to
<build>/traces/<workload>-seed<N>.json.

Determinism: each run's per-layer counts are kept under <build>/counts,
keyed by workload, seed and ctp-perfbench binary; a later run at the same
seed that reports a different count is a determinism defect and fails.

--print-digests prints the run's output digests in the format of
perfbench/digests.txt instead of checking them.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("analyze-matrix", "serve-demand", "certify")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    src = os.path.join(root, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        die("no ctp sources at %s; run from a full checkout" % src)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "ctp-perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            die("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "ctp-perfbench")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_counts(path):
    counts = {}
    with open(path) as f:
        for line in f:
            key, value = line.split()
            counts[key] = int(value)
    return counts


def check_determinism(build_dir, binary, args, counts_path):
    """Compares this run's counts with an earlier run at the same seed."""
    counts = read_counts(counts_path)
    store = os.path.join(build_dir, "counts")
    os.makedirs(store, exist_ok=True)
    record = os.path.join(store, "%s-seed%d-%s.json" % (
        args.workload, args.seed, sha256(binary)[:16]))
    drift = []
    if os.path.isfile(record):
        with open(record) as f:
            earlier = json.load(f)
        for key in sorted(set(earlier) & set(counts)):
            if earlier[key] != counts[key]:
                drift.append("%s: %d then %d" % (key, earlier[key],
                                                 counts[key]))
        earlier.update(counts)
        counts = earlier
    with open(record + ".tmp", "w") as f:
        json.dump(counts, f, sort_keys=True)
    os.replace(record + ".tmp", record)
    for d in drift:
        print("perfbench: FAILED: determinism defect: " + d, file=sys.stderr)
    return len(drift)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--print-digests", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("run from the repository root (no BENCHMARK.json here)")
    with open(spec_path) as f:
        spec = json.load(f)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)

    work = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    counts_path = os.path.join(work, "counts.txt")
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--digests", os.path.join(BENCH_DIR, "digests.txt"),
           "--counts-out", counts_path,
           "--trace-out", os.path.join(traces, "%s-seed%d.json" % (
               args.workload, args.seed))]
    if args.print_digests:
        cmd.append("--print-digests")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            die("ctp-perfbench exited with %d" % proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            die("ctp-perfbench printed no result")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        drift = check_determinism(build_dir, binary, args, counts_path)
    except subprocess.TimeoutExpired:
        die("ctp-perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["metrics"]
    metrics = {}
    correct = result["correct"] and drift == 0
    for m in wanted:
        name = m["name"]
        if name in measured:
            metrics[name] = {"value": measured[name]["value"],
                             "unit": m["unit"]}
        elif args.trace:
            metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            print("perfbench: FAILED: %s not measured" % name,
                  file=sys.stderr)
            correct = False
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"] + drift,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
