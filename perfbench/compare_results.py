#!/usr/bin/env python3
"""Check that two benchmark runs simulated the same results.

    python3 perfbench/compare_results.py A.jsonl B.jsonl

A and B are results files written by run.py with the same workload and
seed, for example before and after a change meant only to be faster.
Job runs are matched by pass and job index (the runs both files hold are
compared); their inputs must be identical, text results equal and numbers
equal to RTOL relative.  Exit status 0 when everything matched, 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

RTOL = 1e-10


def load(path: str) -> dict:
    jobs = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if "job" in record:
                jobs[(record["pass"], record["job"])] = record
    return jobs


def diff(a, b, rtol: float, where: str, out: list) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append(f"{where}.{key}: present in one run only")
            else:
                diff(a[key], b[key], rtol, f"{where}.{key}", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{where}: length {len(a)} vs {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, rtol, f"{where}[{i}]", out)
    elif (isinstance(a, (int, float)) and isinstance(b, (int, float))
          and not isinstance(a, bool) and not isinstance(b, bool)):
        scale = max(abs(a), abs(b))
        if not (a == b or (math.isfinite(scale) and abs(a - b) <= rtol * scale)):
            out.append(f"{where}: {a!r} vs {b!r}")
    elif a != b:
        out.append(f"{where}: {a!r} vs {b!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    a, b = load(args.a), load(args.b)
    common = sorted(set(a) & set(b))
    problems: list[str] = []
    for key in common:
        ra, rb = a[key], b[key]
        where = f"job {key[1]} " + ("(warm-up)" if key[0] < 0 else f"pass {key[0]}")
        if ra["inputs"] != rb["inputs"]:
            problems.append(f"{where}: different inputs")
            continue
        if ra["ok"] != rb["ok"]:
            problems.append(f"{where}: ok {ra['ok']} vs {rb['ok']}")
            continue
        diff(ra["results"], rb["results"], RTOL, where, problems)
    for line in problems[:50]:
        print(line)
    print(f"compared {len(common)} job runs, {len(problems)} differences "
          f"(rtol {RTOL:g})")
    return 0 if common and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
