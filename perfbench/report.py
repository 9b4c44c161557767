#!/usr/bin/env python3
"""Run every workload and print every metric by name, unit and workload.

    python3 perfbench/report.py [--seed N]

For each workload: one end-to-end run (--trace 0) and two traced runs
(--trace 1) with the same seed, each as long as run_seconds in
BENCHMARK.json.  Prints one line per metric, the tracing overhead of
each workload, and whether every work counter (every per-layer metric
not in ms) came out identical in the two traced runs.  Exit status 0 when every run
passed its correctness checks and every counter repeated, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("FAILED "):
            print(f"{workload}: {line}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{workload} trace={trace}: no result (exit {proc.returncode})\n"
              f"{proc.stderr.strip()}")
        return {"correct": False, "metrics": {}}
    result["exit"] = proc.returncode
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    print(f"{'workload':<10} {'layer':<10} {'metric':<52} {'value':>14}  unit")
    for workload in WORKLOADS:
        plain = run(workload, args.seed, SECONDS, 0)
        traced = [run(workload, args.seed, SECONDS, 1) for _ in range(2)]
        for result, layer in ((plain, "end2end"), (traced[0], "per-layer")):
            for name, m in result["metrics"].items():
                print(f"{workload:<10} {layer:<10} {name:<52} "
                      f"{m['value']:>14.6g}  {m['unit']}")
        counts = [{k: m["value"] for k, m in t["metrics"].items()
                   if m["unit"] not in ("ms", "ratio")} for t in traced]
        repeat = bool(counts[0]) and counts[0] == counts[1]
        overheads = [t["metrics"].get("trace.overhead", {}).get("value")
                     for t in traced]
        runs_ok = all(r.get("correct") and r.get("exit") == 0
                      for r in [plain] + traced)
        failed = plain.get("failed", "?"), plain.get("attempted", "?")
        print(f"{workload:<10} summary    correct={str(runs_ok).lower()} "
              f"failed={failed[0]}/{failed[1]} "
              f"counters_repeat={str(repeat).lower()} "
              f"trace_overhead={overheads}")
        ok = ok and runs_ok and repeat
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
