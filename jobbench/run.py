#!/usr/bin/env python3
"""Builds and runs jobbench, the job-level benchmark.

Run from the repository root:

    python3 jobbench/run.py --workload hz2-exact --seed 1 --seconds 30 --trace 0
    python3 jobbench/run.py --smoke

The first form configures and builds jobbench/ (and the library modules it
links) into .bench_build/jobbench on first use, runs one workload, and
passes its output through: the last line of standard output is the result
JSON. Build output goes to standard error. `--smoke` runs every workload
once with a tiny job, untraced and traced, and checks that every metric
BENCHMARK.json names appears with its unit, that every job matched the
oracle, and that predictions.json only names known metrics and workloads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "jobbench")
BINARY = os.path.join(BUILD, "jobbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"jobbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "jobbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args):
    """Runs jobbench with `args`; returns (stdout lines, parsed result)."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"jobbench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last output line is not JSON")
    return lines, result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "predictions.json")) as f:
        predictions = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            _, result = run_binary(["--workload", workload, "--seed", "1",
                                    "--seconds", "0", "--trace", str(trace),
                                    "--smoke", "--trace-dir", TRACE_DIR])
            where = f"{workload} trace={trace}"
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{where}: jobs failed the oracle check")
            metrics = result.get("metrics", {})
            for metric in expected[trace]:
                got = metrics.get(metric["name"])
                if got is None:
                    problems.append(f"{where}: missing {metric['name']}")
                elif got.get("unit") != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} unit "
                                    f"{got.get('unit')} != {metric['unit']}")
            self_sum = metrics.get("trace.self_sum_frac", {}).get("value")
            if trace and workload != "serve3-prune" and not 0.95 <= self_sum <= 1.05:
                problems.append(f"{where}: layer self times cover {self_sum} "
                                "of the program's Run time, not 0.95..1.05")
            extra = set(metrics) - {m["name"] for m in expected[trace]}
            if extra:
                problems.append(f"{where}: unlisted metrics {sorted(extra)}")
            print(f"smoke {where}: {len(metrics)} metrics", file=sys.stderr)
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for row in predictions["map"]:
        for key in ("layer_metric", "moves"):
            for name in row[key] if isinstance(row[key], list) else [row[key]]:
                if name not in names:
                    problems.append(f"predictions.json: unknown metric {name}")
        for workload in row["on"]:
            if workload not in workloads:
                problems.append(f"predictions.json: unknown workload {workload}")
    for problem in problems:
        print(f"smoke FAIL {problem}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print("smoke OK", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    if args.smoke:
        smoke()
        return
    if not args.workload:
        fail("--workload is required")
    lines, _ = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace), "--trace-dir", TRACE_DIR])
    print("\n".join(lines))


if __name__ == "__main__":
    main()
