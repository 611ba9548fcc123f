#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench)
and its output to stderr, so the last line on stdout is the benchmark's
JSON result. Every argument is passed on to the benchmark binary (see
README.md).
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The binary stops starting rounds after 140 s; this only catches a wedge.
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # Serialises concurrent runs in one checkout around the build.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # A configure that failed leaves a cache but no build files.
        if not any(os.path.exists(os.path.join(build_dir, f)) for f in ("Makefile", "build.ninja")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                log("configure failed")
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("build failed")
            return False
    return True


def main():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "e2ebench")
    try:
        return subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("e2ebench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
