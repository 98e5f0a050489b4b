#!/usr/bin/env python3
"""Build and run the drsim benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload detail_sweep|sampled_sweep|serve_mix \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles ../src) into
.bench_build/cmake, then runs the benchmark binary with the same
arguments.  Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result.  Exits non-zero, printing no result, when
the build fails.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    os.chdir(root)
    build_dir = os.path.join(".bench_build", "cmake")
    out_dir = os.path.join(".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", here, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            print("perfbench: configure failed", file=sys.stderr)
            return 1
    if subprocess.call(["cmake", "--build", build_dir, "--target",
                        "drsim_perfbench", "-j", "4"],
                       stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(build_dir, "drsim_perfbench")
    log_path = os.path.join(out_dir, "stderr.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen([binary] + sys.argv[1:], stderr=log)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1
    if code != 0:
        with open(log_path) as log:
            tail = log.readlines()[-40:]
        sys.stderr.writelines(tail)
    return code


if __name__ == "__main__":
    sys.exit(main())
