#!/usr/bin/env python3
"""Build and run the tcmsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds perfbench/ (the simulator libraries plus the tcmbench harness)
into $CARGO_TARGET_DIR (default .bench_build); later calls rebuild
incrementally. Build output goes to stderr; tcmbench's standard output,
whose last line is the JSON result, passes through unchanged.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources not found next to perfbench/",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs,
                  "--target", "tcmbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    exe = os.path.join(build, "tcmbench")
    work = os.path.join(ROOT, target, "work")
    digests = os.path.join(HERE, "digests.txt")
    return subprocess.run([exe, "--work", work, "--digests", digests] +
                          sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
