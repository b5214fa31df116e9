#!/usr/bin/env python3
"""Builds the live-stack benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload of BENCHMARK.json in turn, printing one
report and one JSON line each, and fails if any of them fails.

The first call configures and builds perfbench/CMakeLists.txt (the
repository's libraries, geminid, geminicoordd and the driver) into
.bench_build/perfbench; later calls reuse the build. The driver's report is
relayed to stdout and its last line is the JSON result. Everything the run
writes stays under .bench_build, and every process it starts is stopped
before this script exits: the driver runs in its own process group, which is
killed on timeout, on a signal, and once more on the way out.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TIMEOUT_S = 700  # plus RUN_TIMEOUT_S stays within 900 s
RUN_TIMEOUT_S = 170

_child = None


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def kill_group():
    if _child is None:
        return
    try:
        os.killpg(_child.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def on_signal(signum, _frame):
    kill_group()
    sys.exit(128 + signum)


def build():
    """Configures and builds under a lock, so concurrent runs build once."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                log("build step failed: %s" % e)
                return False
            if done.returncode != 0:
                log("build step failed: %s" % " ".join(cmd))
                return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace):
    """Runs the driver once; relays its report; returns the exit status."""
    global _child
    work = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--bin-dir", BUILD, "--work-dir", work]
    if trace:
        cmd += ["--spans-out",
                os.path.join(BUILD_ROOT, "spans-%s.csv" % workload)]
    try:
        _child = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                  start_new_session=True, text=True)
        try:
            out, _ = _child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            kill_group()
            _child.communicate()
            log("driver timed out after %d s" % RUN_TIMEOUT_S)
            return 1
    finally:
        kill_group()
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
    except (ValueError, KeyError, TypeError):
        log("driver printed no JSON result (status %d)" % _child.returncode)
        return 1
    if _child.returncode != 0 or not result.get("correct"):
        # A failed check: show the result, but never exit 0.
        sys.stdout.write(lines[-1] + "\n")
        log("driver exited with status %d" % _child.returncode)
        return _child.returncode if _child.returncode > 0 else 1
    want = expected_metrics(trace)
    if names != want:
        log("metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(want - names), sorted(names - want)))
        return 1
    sys.stdout.write(lines[-1] + "\n")
    sys.stdout.flush()
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)

    if not build():
        return 1
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for workload in workloads:
        rc = run_one(workload, args.seed, args.seconds, args.trace)
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
