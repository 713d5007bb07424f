#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload optimize_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build goes to <target>/cmake, where <target> is $CARGO_TARGET_DIR
(default .bench_build) under the repository root; the first call configures and compiles src/ and the
benchmark (about a minute on four cores), later calls only rebuild what
changed. The benchmark's stdout is passed through: its last line is the
JSON result. Traced runs (--trace 1) also write a Chrome-trace JSON file
into <target>/trace/. --selftest builds and runs the checks' own tests,
which hand every correctness check a wrong value.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, target):
    """Configures (once) and builds `target`; compiler output goes to stderr.

    The compiler's temporary files go to <build>/tmp, so a build writes
    nothing outside the checkout.
    """
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no optimizer sources at %s/src" % ROOT,
              file=sys.stderr)
        return 2
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(target_dir, "cmake")
    args = sys.argv[1:]
    if args == ["--selftest"]:
        if not build(build_dir, "perfbench_checks_test"):
            return 1
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_checks_test")]).returncode
    if not build(build_dir, "perfbench"):
        return 1
    trace_dir = os.path.join(target_dir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([os.path.join(build_dir, "perfbench")] + args +
                          ["--trace-dir", trace_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
