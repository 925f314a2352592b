#!/usr/bin/env python3
"""Build and run the madfhe benchmark.

    python3 perfbench/run.py --workload bootstrap|graph_apps|serve_mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library from src/ together with perfbench/ in a pinned Release build
under .bench_build/perfbench; later calls only rebuild what changed.
The benchmark binary then runs with one pool thread and every other
madfhe environment knob unset, and the last line of standard output is
the run's JSON result. --selftest builds and runs the tests of the
benchmark's output checks instead.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# Knobs that would change what is measured; the benchmark pins or clears
# them all.
UNSET = ["MADFHE_FAULT", "MADFHE_INTEGRITY", "MADFHE_KEYCACHE_BYTES",
         "MADFHE_BATCH_MAX", "MADFHE_DEADLINE_MS", "MADFHE_QUEUE_DEPTH",
         "MADFHE_RETRY", "MADFHE_BACKEND", "MADFHE_STREAM",
         "MADFHE_STREAM_CACHE_BYTES", "MADFHE_SIMD",
         "MADFHE_TENANT_QUEUE_DEPTH", "MADFHE_BREAKER",
         "MADFHE_BREAKER_COOLDOWN_MS", "MADFHE_TCP_TIMEOUT_MS",
         "MADFHE_TELEMETRY_TRACE_OUT", "MADFHE_TELEMETRY_REPORT",
         "MADFHE_VIRTUAL_LATENCY"]

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no madfhe source tree next to perfbench/ (expected src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def pinned_env():
    env = dict(os.environ)
    for k in UNSET:
        env.pop(k, None)
    env["MADFHE_THREADS"] = "1"
    # Timed passes run with telemetry off; the traced mode raises the
    # level itself around the passes it reads spans from.
    env["MADFHE_TELEMETRY"] = "off"
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    if a.selftest:
        binary = build("checks_test")
        sys.exit(subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode)
    if not a.workload:
        ap.error("--workload is required")
    if a.seed < 0 or not 1 <= a.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")

    binary = build("madbench")
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=pinned_env(), cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result: " + lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
