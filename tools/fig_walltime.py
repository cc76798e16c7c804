#!/usr/bin/env python3
"""Host wall time of the figure benches in two build trees, interleaved.

    python3 tools/fig_walltime.py PARENT_BUILD CHANGE_BUILD \
        [--figs fig1_gmm,...] [--commits REV,REV] [--out BENCH_e2e.json] \
        [--stdout-dir DIR]

PARENT_BUILD and CHANGE_BUILD are Release build trees holding bench/fig1_gmm
... bench/fig6_lda_spark_java. For each bench and each pool size
(MLBENCH_THREADS 1 and 4), the two trees' binaries run in alternation,
three times each, the tree that goes first swapping every round. Running
them back to back keeps host load drift out of the comparison, which
separate whole-tree passes let in. Each tree's wall seconds are recorded
as min / median / max over its rounds.

The result replaces --out: a "parent" and a "change" block, each with its
commit (--commits, else `git describe` of the checkout the tree was
configured from), plus nproc and the load average before and after. Build
the two trees from checkouts at paths of equal length: the checkout path
is compiled into the binaries, and a different length shifts code layout.

With --stdout-dir, the first round's standard output of each run is saved
as DIR/{parent,change}/<bench>.t<threads>.out, so the two trees' tables
can be diffed.

A full run takes several minutes per round; it is not part of CI.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

FIGS = ["fig1_gmm", "fig2_lasso", "fig3_hmm", "fig4_lda", "fig5_imputation",
        "fig6_lda_spark_java"]
THREADS = [1, 4]
ROUNDS = 3
LABELS = ["parent", "change"]


def load_average():
    return [round(x, 2) for x in os.getloadavg()]


def describe_commit(build_dir):
    """`git describe` of the checkout the build tree was configured from."""
    source = build_dir
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    source = line.split("=", 1)[1].strip()
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=source, check=True, capture_output=True,
                             text=True)
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


def spread(walls):
    return {"min": round(min(walls), 2),
            "median": round(statistics.median(walls), 2),
            "max": round(max(walls), 2),
            "runs": [round(w, 2) for w in walls]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("parent_build")
    parser.add_argument("change_build")
    parser.add_argument("--figs", default=",".join(FIGS))
    parser.add_argument("--commits")
    parser.add_argument("--out", default="BENCH_e2e.json")
    parser.add_argument("--stdout-dir")
    args = parser.parse_args()

    trees = dict(zip(LABELS, [args.parent_build, args.change_build]))
    commits = dict(zip(LABELS, args.commits.split(",") if args.commits else
                       [describe_commit(trees[label]) for label in LABELS]))
    figs = args.figs.split(",")
    for fig in figs:
        if fig not in FIGS:
            parser.error(f"unknown bench {fig}")
        for tree in trees.values():
            if not os.path.isfile(os.path.join(tree, "bench", fig)):
                parser.error(f"{tree} has no bench/{fig}")
    if args.stdout_dir:
        for label in LABELS:
            os.makedirs(os.path.join(args.stdout_dir, label), exist_ok=True)

    start_load = load_average()
    walls = {label: {fig: {t: [] for t in THREADS} for fig in figs}
             for label in LABELS}
    for fig in figs:
        for threads in THREADS:
            for r in range(ROUNDS):
                order = LABELS if r % 2 == 0 else LABELS[::-1]
                for label in order:
                    out = None
                    if args.stdout_dir and r == 0:
                        out = os.path.join(args.stdout_dir, label,
                                           f"{fig}.t{threads}.out")
                    wall = run_fig(os.path.join(trees[label], "bench", fig),
                                   threads, out)
                    walls[label][fig][threads].append(wall)
                    print(f"{label} {fig} threads={threads} round={r} "
                          f"{wall:.2f} s", flush=True)

    date = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")
    doc = {
        "what": "host wall seconds of the figure benches at MLBENCH_THREADS "
                + " and ".join(str(t) for t in THREADS)
                + ", two build trees interleaved per bench, min / median / "
                "max over rounds (tools/fig_walltime.py)",
        "date": date,
        "nproc": os.cpu_count(),
        "rounds": ROUNDS,
        "loadavg_start": start_load,
        "loadavg_end": load_average(),
    }
    for label in LABELS:
        block = {"commit": commits[label], "wall_s": {}}
        for fig in figs:
            block["wall_s"][fig] = {
                f"t{t}": spread(walls[label][fig][t]) for t in THREADS}
        for t in THREADS:
            block[f"total_median_t{t}_s"] = round(
                sum(block["wall_s"][fig][f"t{t}"]["median"] for fig in figs), 2)
        doc[label] = block
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
