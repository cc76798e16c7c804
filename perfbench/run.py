#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload relational|vertex|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), is a Release build of ../src plus the
benchmark, and is reused by later runs. The benchmark's self-test runs
before every measurement; any build, self-test or digest failure exits
non-zero. The last line of standard output is the benchmark's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator,
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1), "--target", "perfbench",
                    "perfbench_selftest"], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["relational", "vertex", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        build(build_dir)
        subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                       check=True, stdout=sys.stderr)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    trace_out = os.path.join(
        build_dir, f"trace_{args.workload}_{args.seed}.jsonl")
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--golden", os.path.join(HERE, "golden_digests.txt"),
           "--trace-out", trace_out]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
