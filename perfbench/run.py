#!/usr/bin/env python3
"""Build the benchmark program from source, then run one workload.

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run it from the root of a source tree. The library sources under src/
and the program under perfbench/ are compiled with CMake into
.bench_build/ (build output goes to stderr), so the last line of
stdout is the program's one-line JSON result. Scratch files live in
.bench_build/ and are removed when the run ends.

Exit status: the program's (0 = every correctness gate held), or
non-zero without a result when the tree cannot be built.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["build", "query-hot", "query-cold"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run may take at most 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pipeline.hh")):
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full source tree")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_one(workload, seed, seconds, trace):
    workdir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", workdir]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 124
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)
    sys.stdout.flush()

    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    status = 0
    for workload in WORKLOADS:
        print("=== %s" % workload, flush=True)
        code = run_one(workload, args.seed, args.seconds, args.trace)
        print("=== %s: %s" % (workload, "ok" if code == 0 else
                                "FAILED (exit %d)" % code), flush=True)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
