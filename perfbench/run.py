#!/usr/bin/env python3
"""Builds the benchmark (CMake, Release) and runs one workload.

Usage, from the repository root:
    python3 perfbench/run.py --workload lsched_closed --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental. Build output goes to stderr; the benchmark's last stdout
line is its JSON result. The exit code is non-zero when the build fails or
the benchmark refuses to run.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Configures (once) and builds; returns the binary path or None."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                         stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench") if rc == 0 else None


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.dirname(binary)
    return subprocess.call([binary, *sys.argv[1:], "--out-dir", out_dir])


if __name__ == "__main__":
    sys.exit(main())
