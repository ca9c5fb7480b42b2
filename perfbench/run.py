#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark, one workload per call.

    python3 perfbench/run.py --workload flow-40k --seed 9 --seconds 25 --trace 0

Run it from the repository root. It configures and builds perfbench/ (a
CMake project that compiles the library from src/) into
.bench_build/perfbench, runs the benchmark in a fresh work directory under
.bench_build/ (every generated design, sweep directory and span dump goes
there), removes that directory afterwards unless --keep-work is given, and
exits with the benchmark's exit code. The last line of standard output is
the benchmark's JSON result. Build output goes to standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("flow-40k", "dse-anneal", "serve-mix")
# Compiler and library temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))


def build():
    """Configures (once) and builds; the build is incremental after that."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=ENV)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, env=ENV)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (seconds, not minutes)")
    parser.add_argument("--fault", choices=("flip-rule",),
                        help="negative test: corrupt the reference result")
    parser.add_argument("--keep-work", action="store_true",
                        help="keep the work directory (designs, span dump)")
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    work = os.path.join(BUILD_ROOT, "work-%s-%d" % (args.workload, os.getpid()))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.tiny:
        cmd.append("--tiny")
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        code = subprocess.run(cmd, env=ENV).returncode
    finally:
        if args.keep_work:
            print("perfbench: work directory kept at %s" % work,
                  file=sys.stderr)
        else:
            shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
