#!/usr/bin/env python3
"""Builds smpxbench from source and runs one workload, or its self-test.

  python3 smpxbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 smpxbench/run.py --selftest

Run from the repository root. The build goes to .bench_build/ (CMake,
Release); generated inputs and span files go to .bench_build/data/ and are
removed again after each run, except the span file of a traced run. The
last line of standard output is the result JSON of the C++ driver. The
self-test checks the measurement math, then runs all three workloads at
smoke size, traced and untraced, and checks each result's metric names and
units against BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RUN_TIMEOUT_S = 170
# Every workload the driver knows; BENCHMARK.json gates a subset of them.
WORKLOADS = ("medline-bulk", "xmark-tenants", "medline-serve")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run(cmd, timeout=RUN_TIMEOUT_S, capture=False):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("timed out after %d s: %s" % (timeout, " ".join(cmd)))
        return 124, b""
    return proc.returncode, out or b""


def bench_cmd(workload, seed, seconds, trace, smoke=False):
    cmd = [os.path.join(BUILD, "smpxbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--data", os.path.join(".bench_build", "data")]
    return cmd + (["--smoke"] if smoke else [])


def selftest():
    code, _ = run([os.path.join(BUILD, "smpxbench_selftest")])
    if code != 0:
        log("measurement self-test failed")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(bench_cmd(workload, 7, 2, trace, smoke=True),
                            capture=True)
            lines = out.decode().strip().splitlines()
            ok = code == 0 and bool(lines)
            if ok:
                result = json.loads(lines[-1])
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                ok = (result["correct"] and result["failed"] == 0 and
                      result["attempted"] >= 1 and got == want)
            log("smoke %s trace=%d: %s" % (workload, trace,
                                           "ok" if ok else "FAILED"))
            failures += 0 if ok else 1
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload or --selftest is required")
    if not build():
        return 1
    if args.selftest:
        return selftest()
    code, _ = run(bench_cmd(args.workload, args.seed, args.seconds, args.trace))
    return code


if __name__ == "__main__":
    sys.exit(main())
