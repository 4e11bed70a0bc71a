#!/usr/bin/env python3
"""memlp benchmark entry point: builds the benchmark from source, runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload xbar-paper --seed 1 --seconds 25 --trace 0

Builds perfbench/ (the library in src/ plus the harness) into the directory
named by CARGO_TARGET_DIR, default .bench_build, runs the metric self-tests,
then runs the harness. The harness prints one line per metric; this script
ends the output with one JSON line holding the metrics BENCHMARK.json lists
for the mode: end_to_end with --trace 0, per_layer with --trace 1.

Exit codes: 0 success, 1 a correctness or determinism check failed, 2 the
sources or the build are missing or broken, or the arguments are wrong.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "RelWithDebInfo"
# A run must end within 180 s; leave the harness the rest after the build.
RUN_TIMEOUT_S = 170
# Library variables that would trace, export or redirect the program under
# test; the benchmark controls those itself.
SCRUBBED_ENV = ("MEMLP_TRACE", "MEMLP_METRICS_OUT", "MEMLP_CSV_DIR",
                "MEMLP_FULL", "MEMLP_THREADS")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"memlp sources not found under {ROOT / 'src'}")
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            fail(f"build step failed: {' '.join(step)}")


def git_sha():
    """HEAD of the checkout run.py sits in, or "unknown" outside git."""
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                           "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def child_env(bdir):
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    # The SHA CMake baked in at configure time goes stale when a build
    # directory is reused across checkouts; the library prefers this one.
    env["MEMLP_GIT_SHA"] = git_sha()
    # A failed analog solve dumps its flight recorder; keep it in the build
    # directory rather than the working directory.
    env["MEMLP_FLIGHT_DUMP"] = str(bdir / "memlp_flight.jsonl")
    return env


def select_metrics(result, wanted):
    """The metrics BENCHMARK.json lists for this mode, with its units."""
    chosen = {}
    for spec in wanted:
        row = result["metrics"].get(spec["name"])
        if row is None:
            fail(f"harness did not report metric {spec['name']}", 1)
        if row["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} is in {row['unit']}, "
                 f"BENCHMARK.json says {spec['unit']}", 1)
        if not math.isfinite(row["value"]):
            fail(f"metric {spec['name']} is not finite", 1)
        chosen[spec["name"]] = {"value": row["value"], "unit": spec["unit"]}
    return chosen


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    bdir = build_dir()
    build(bdir)
    env = child_env(bdir)
    selftest = subprocess.run([str(bdir / "perfbench_selftest")], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        fail("metric self-tests failed", 1)

    command = [str(bdir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if done.returncode in (0, 1) else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        sys.stdout.write(done.stdout)
        fail(f"harness exited with code {done.returncode} and no result",
             done.returncode or 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": bool(result["correct"]) and done.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": select_metrics(result, wanted),
    }))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
