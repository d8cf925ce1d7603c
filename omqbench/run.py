#!/usr/bin/env python3
"""Builds and runs the omqc end-to-end benchmark.

Usage, from the root of an omqc checkout:

  python3 omqbench/run.py --workload <serve_hot|contain_corpus> \
      --seed <n> --seconds <s> --trace <0|1>
  python3 omqbench/run.py --selftest

The first call configures and builds omqbench/ (and the omqc libraries it
compiles from ../src) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls only rebuild what changed. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
Traced runs write their spans under .omqbench/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"omqbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no omqc sources next to {HERE} (expected ../src)")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    step = ["cmake", "--build", build_dir, "-j", jobs, "--target", target]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return os.path.join(build_dir, target)


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if argv == ["--selftest"]:
        binary = build(build_dir, "omqbench_selftest")
        sys.exit(subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode)
    if not argv:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    binary = build(build_dir, "omqbench")
    command = [binary] + argv + ["--trace-dir", ".omqbench"]
    proc = subprocess.Popen(command)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
