#!/usr/bin/env python3
"""Time the bracket DP alone on random pairs with no constant runs.

    python3 scripts/bench_bracket.py [--lengths 100,300,1000] [--runs 5]
        [--parent-src DIR] > BENCH.json

For each length n one n-by-n pair, seeded with SEED, is drawn as the
brackets workload of perfbench/workloads.py draws its pairs (colours 1..k
with k in 2..6, weights p/q with p, q in 1..12, no two neighbours equal),
and bracket(r, s) is timed `runs` times. Each length reports the median
and the spread (slowest minus fastest) of its run times next to the work
counter cells = n*m, with the value and a digest of the witness.

With --parent-src the same measurement first runs in a child interpreter on
the unclab package under DIR (say, an unpacked copy of the parent commit's
src/); the document then holds both sides per length and the ratio of their
medians, and the script exits 1 if the two sides disagree on a value or a
witness.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 8


def measure(lengths: list[int], runs: int) -> list[dict]:
    sys.path.insert(0, str(PERFBENCH))
    from workloads import Brackets

    from unclab.resolutions import Resolution, bracket

    stream = Brackets(SEED, None, None)

    def draw(n: int, k: int) -> Resolution:
        _, pattern, alpha = stream.resolution(n, k)
        return Resolution(k, tuple(pattern), tuple(alpha))

    out = []
    for n in lengths:
        k = stream.rng.randint(2, 6)
        r, s = draw(n, k), draw(n, k)
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            value, witness = bracket(r, s)
            times.append(time.perf_counter() - start)
        out.append({
            "n": n, "m": n, "cells": n * n,
            "median_s": statistics.median(times),
            "spread_s": max(times) - min(times),
            "runs_s": times,
            "value": f"{value.numerator}/{value.denominator}",
            "witness_sha256": hashlib.sha256(json.dumps(witness).encode()).hexdigest(),
        })
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lengths", default="100,300,1000")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--parent-src", default=None)
    args = ap.parse_args()
    lengths = [int(x) for x in args.lengths.split(",")]

    doc = {
        "kernel": "unclab.resolutions.bracket, method dp",
        "inputs": "one seeded n-by-n pair per length, no constant runs",
        "seed": SEED,
        "runs": args.runs,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
    }
    ok = True
    if args.parent_src is None:
        doc["sizes"] = measure(lengths, args.runs)
    else:
        env = dict(os.environ, PYTHONPATH=args.parent_src)
        child = subprocess.run(
            [sys.executable, __file__, "--lengths", args.lengths,
             "--runs", str(args.runs)],
            env=env, capture_output=True, text=True, check=True)
        parent = json.loads(child.stdout)["sizes"]
        change = measure(lengths, args.runs)
        doc["sizes"] = []
        for p, c in zip(parent, change):
            same = (p["value"], p["witness_sha256"]) == (c["value"], c["witness_sha256"])
            ok = ok and same
            doc["sizes"].append({
                "n": c["n"], "m": c["m"], "cells": c["cells"],
                "parent": {key: p[key] for key in ("median_s", "spread_s", "runs_s")},
                "change": {key: c[key] for key in ("median_s", "spread_s", "runs_s")},
                "parent_over_change_median": p["median_s"] / c["median_s"],
                "value": c["value"],
                "same_value_and_witness": same,
            })
    print(json.dumps(doc, indent=2))
    if not ok:
        sys.exit("parent and change disagree on a value or a witness")


if __name__ == "__main__":
    main()
