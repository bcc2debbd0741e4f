"""Run every workload once and print the end-to-end metrics as one table.

Usage, from the repository root::

    python3 perfbench/all.py [--seed N]

Each workload runs through `run.py` exactly as a single run would, for the
`run_seconds` of `BENCHMARK.json`; the exit code is non-zero when any run
fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import workloads
from run import BENCH_DIR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = workloads.spec()["run_seconds"]
    results = {}
    status = 0
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", "0"],
            capture_output=True, text=True, check=False)
        status |= done.returncode != 0
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{workload}: run failed\n{done.stderr}", file=sys.stderr)
            continue
        results[workload] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"]) if results else []
    print(f"{'metric':<44} {'unit':<6}"
          + "".join(f" {w:>16}" for w in results))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        values = (r["metrics"][name]["value"] for r in results.values())
        print(f"{name:<44} {unit:<6}" + "".join(f" {v:>16.6g}"
                                                for v in values))
    print(f"{'correct':<51}" + "".join(
        f" {str(r['correct']):>16}" for r in results.values()))
    print(f"{'failed/attempted':<51}" + "".join(
        f" {r['failed']:>9}/{r['attempted']:<6}" for r in results.values()))
    return status


if __name__ == "__main__":
    sys.exit(main())
