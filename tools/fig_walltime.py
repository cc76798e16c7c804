#!/usr/bin/env python3
"""Host wall time of the six figure benches at 1 and 4 pool threads.

    python3 tools/fig_walltime.py BUILD_DIR --label NAME \
        [--out BENCH_e2e.json] [--commit REV] [--stdout-dir DIR]

BUILD_DIR is a Release build tree holding bench/fig1_gmm ...
bench/fig6_lda_spark_java. Each bench runs once at MLBENCH_THREADS=1 and
once at MLBENCH_THREADS=4, one after another, and its wall seconds are
recorded. The result is written into --out as the block named --label
(for example "parent" or "change"), next to whatever other blocks the
file already holds, so two trees measured back to back on one host end
up side by side in one file. Each block also records nproc, the load
average before and after, and the commit (--commit, else
`git describe --always --dirty` of the current directory).

With --stdout-dir, each run's standard output is saved as
DIR/<bench>.t<threads>.out, so two trees' tables can be diffed.

A full run takes several minutes per tree; it is not part of CI.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys
import time

FIGS = ["fig1_gmm", "fig2_lasso", "fig3_hmm", "fig4_lda", "fig5_imputation",
        "fig6_lda_spark_java"]
THREADS = [1, 4]


def load_average():
    return [round(x, 2) for x in os.getloadavg()]


def describe_commit():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             check=True, capture_output=True, text=True)
        return out.stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        return "unknown"


def run_fig(binary, threads, stdout_path):
    env = dict(os.environ, MLBENCH_THREADS=str(threads))
    start = time.monotonic()
    proc = subprocess.run([binary], env=env, capture_output=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"{binary} exited {proc.returncode}")
    if stdout_path:
        with open(stdout_path, "wb") as f:
            f.write(proc.stdout)
    return wall


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("build_dir")
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", default="BENCH_e2e.json")
    parser.add_argument("--commit")
    parser.add_argument("--stdout-dir")
    args = parser.parse_args()

    if args.stdout_dir:
        os.makedirs(args.stdout_dir, exist_ok=True)
    block = {
        "commit": args.commit or describe_commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "nproc": os.cpu_count(),
        "loadavg_start": load_average(),
        "wall_s": {},
    }
    for fig in FIGS:
        binary = os.path.join(args.build_dir, "bench", fig)
        block["wall_s"][fig] = {}
        for threads in THREADS:
            out = (os.path.join(args.stdout_dir, f"{fig}.t{threads}.out")
                   if args.stdout_dir else None)
            wall = run_fig(binary, threads, out)
            block["wall_s"][fig][f"t{threads}"] = round(wall, 2)
            print(f"{args.label} {fig} threads={threads} {wall:.2f} s",
                  flush=True)
    block["loadavg_end"] = load_average()
    for threads in THREADS:
        block[f"total_t{threads}_s"] = round(
            sum(v[f"t{threads}"] for v in block["wall_s"].values()), 2)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc.setdefault("what", "host wall seconds of bench/fig1-fig6 at "
                   "MLBENCH_THREADS 1 and 4 (tools/fig_walltime.py)")
    doc[args.label] = block
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
