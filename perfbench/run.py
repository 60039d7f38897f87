#!/usr/bin/env python3
"""End-to-end benchmark of the RP-BCM stack: build, run, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload infer_a84 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the libraries from src/ plus
the benchmark binary) into .bench_build/perfbench; later calls rebuild
incrementally. The binary's output is passed through; its last line, the
result JSON, is checked against the metric list in BENCHMARK.json before it
is printed. --self-test runs every workload briefly, traced and untraced, and
checks that every named metric prints with its unit, that every check
passes, and that the modeled hw cycle counts repeat exactly across seeds.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no RP-BCM sources next to perfbench/ (expected src/)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                fail(f"configure failed, see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail(f"build failed, see {log_path}")


def source_id():
    """The git commit when there is one, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            return "git:" + p.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace, source):
    """Runs the binary; returns (output lines, parsed result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--source", source]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(p.stderr)
    lines = p.stdout.rstrip("\n").splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{workload} exited with code {p.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}, units "
             f"{sorted(k for k in got if k in want and got[k] != want[k])}")
    return lines, result


def self_test(source):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    problems = []
    for workload in workloads:
        hw = []
        for seed, trace in ((1, False), (1, True), (2, True)):
            _, result = run_once(workload, seed, 2, trace, source)
            label = f"{workload} seed {seed} trace {int(trace)}"
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: {result['failed']} failed")
            if not trace:
                problems += [f"{label}: {k} is not positive"
                             for k, v in result["metrics"].items()
                             if not v["value"] > 0]
            else:
                hw.append({k: v["value"] for k, v in result["metrics"].items()
                           if k.startswith("hw.") and "cycles" in k})
            print(f"self-test {label}: {result['attempted']} ops, "
                  f"{result['failed']} failed, "
                  f"{len(result['metrics'])} metrics")
        if hw[0] != hw[1]:
            problems.append(f"{workload}: hw cycle counts differ across seeds")
    for p in problems:
        print(f"self-test FAILED: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build()
    source = source_id()
    if args.self_test:
        sys.exit(self_test(source))
    lines, _ = run_once(args.workload, args.seed, args.seconds,
                        bool(args.trace), source)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
