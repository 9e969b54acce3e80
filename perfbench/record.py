#!/usr/bin/env python3
"""Run every workload once untraced and once traced, and record the results.

Usage, from the repository root:

    python3 perfbench/record.py --label <name>

Every record uses seed 1 and BENCHMARK.json's run_seconds, so that records
of different commits compare.  Prints every end-to-end metric of every workload with its unit and sample
count, and writes perfbench/results/<label>.json with both runs' JSON, the
environment (Python, numpy and scipy versions, nproc, commit) and the
line count of src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import run as bench

RESULTS = os.path.join(bench.BENCH_DIR, "results")
SEED = 1


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    src_lines = 0
    for dirpath, _, filenames in os.walk(bench.SRC):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as f:
                    src_lines += sum(1 for _ in f)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_lines": src_lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    seconds = bench.load_spec()["run_seconds"]
    record = {"env": environment(), "seed": SEED, "seconds": seconds, "runs": {}}
    for workload in bench.WORKLOADS:
        record["runs"][workload] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(SEED),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=bench.ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            if trace == 0:
                print("\n".join(lines[:-1]), flush=True)
            record["runs"][workload]["traced" if trace else "untraced"] = json.loads(lines[-1])
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.label}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"recorded: {os.path.relpath(path, bench.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
