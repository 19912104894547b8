#!/usr/bin/env python3
"""Builds and runs the benchmark of record.

    python3 perfbench/run.py --workload paper_feed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The driver binary is built from ../src with
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Build output goes to stderr, so the last line of
stdout is the driver's JSON result. README.md in this directory describes
the workloads and every metric.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at src/; run from a full checkout")
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "sp_perfbench", "-j", jobs],
    ):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "sp_perfbench")


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    workdir = os.path.join(build_root, "perfbench-work")
    done = subprocess.run([binary, *sys.argv[1:], "--workdir", workdir])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
