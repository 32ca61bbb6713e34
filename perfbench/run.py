#!/usr/bin/env python3
"""Builds and runs the time-to-verdict benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--perturb KEY]

Compiles the opentla library and the driver into .bench_build/perfbench
under the repository root (CMake, RelWithDebInfo), then replaces itself
with the driver, whose last line on standard output is the result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fig9_proof", "abp_liveness", "cq_explore")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(env):
    """Configures once, then builds incrementally. Build output goes to
    stderr so that the driver's result stays the last line of stdout."""
    # Compiler temporaries stay inside the checkout too.
    os.makedirs(env["TMPDIR"], exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            code = subprocess.run(cmd, stdout=sys.stderr, env=env).returncode
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if code != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description="opentla time-to-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", help="add one to this pinned count (gate self-test)")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the opentla sources (src/) are missing; run from a full checkout")

    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    exe = build(env)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    sys.stdout.flush()
    os.execve(exe, cmd, env)


if __name__ == "__main__":
    main()
