#!/usr/bin/env python3
"""Time the exact kernels alone (the bracket DP, eval_norm, the grid, the
structured DP, the matching search) and start-up.

    python3 scripts/bench_kernels.py [--lengths 100,300,1000] [--runs 5]
        [--parent-src DIR] > BENCH.json

Inputs are seeded with SEED and drawn as perfbench/workloads.py draws the
workloads' inputs:
  startup    one CLI job in a fresh interpreter, started as perfbench/run.py
             starts its jobs ([python, -c, "from unclab.cli import main;
             main()", ...] from the repository root), timed from spawn to
             exit: `--help`, a `bracket` on the two resolution fixtures, a
             grid `constant` (C_uncond, step 1/2) on norm_summing4.json, and
             the two heaviest kinds of `certificates` job, a sampled
             `hereditary` check and the rung-1 `elton` certificate; work
             counters modules_executed, the unclab module bodies the job
             runs, modules_loaded, len(sys.modules) when it exits, and
             frozen_at_exit, gc.get_freeze_count() when it exits (the
             objects the collections at interpreter exit skip; all three
             counted in one more, untimed, run through an audit hook).
             The `--help` result is the sorted verb names it lists, so
             usage text that differs in layout compares equal.
             Where PYTHONDONTWRITEBYTECODE is set every job compiles what it
             executes; the document records it as dont_write_bytecode
  bracket    bracket(r, s) on one n-by-n pair per length in --lengths, as the
             brackets workload draws its pairs (colours 1..k with k in 2..6,
             weights p/q with p, q in 1..12, no two neighbours equal);
             work counter cells = n*m
  eval_norm  eval_norm on a batch of CALLS vectors against one instance of
             4 functionals per (dim, class) in NORM_SIZES, as the constants
             workload draws its norm jobs; work counter calls
  grid       compute_constant(method="grid") in mode C_uncond on one
             instance of 3 functionals per (dim, 1/s, class) in GRID_SIZES,
             as the constants workload draws its grid jobs; work counter
             lattice_points
  structured_dp
             structured_dp on the standard vector of ladder rung 1, of one
             K = 3 layout and of ladder rung 2; the first two drawn as the
             certificates workload draws its rung-1 and K = 3 layout jobs,
             rung 2 (universe 34818) being no workload's job; work counters
             universe and cells, the value runs above b times the slots,
             summed over the shapes (a, b) the search expands (counted in one
             more, untimed, call)
  search_matching
             the exhaustive scan at universe 10 and 11, horizon 6, on a map
             drawn as the certificates workload draws its match jobs (depth
             2, every component empty, so no pair matches); work counter
             checked
Each size is timed `runs` times and reports the median and the spread
(slowest minus fastest) of its run times next to its work counter, with a
digest of its results.

With --parent-src every size is measured on two sides: the unclab package
under DIR (say, an unpacked copy of the parent commit's src/) and the
package this interpreter imports. Each run of a size is one child
interpreter of this script, started with --size and --runs 1, and the two
sides alternate run by run, the side that goes first alternating too, so
drift of the machine spreads over both. Each side's times are pooled into
its median, spread and run list. The document then holds both sides per
size and the ratio of their medians, and the script exits 1 if any two
children disagree on a result. A child that fails, in either mode, ends
the script with exit 1 and its stderr passed on. A side whose
layout_universe cap is below rung 2's universe refuses that size; the
children inherit the environment, so UNCLAB_CAPS=layout_universe=40000 on
this script measures it there too.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SEED = 8
CALLS = 200
NORM_SIZES = ((4, "all_subsets"), (8, "initial_segments"), (12, "intervals"))
GRID_SIZES = ((2, 8, "initial_segments"), (3, 4, "intervals"), (3, 8, "all_subsets"))
DP_SLOTS = (("rung1", "elton"), ("layout", "elton", 3))   # Certificates.SLOTS entries
DP_RUNG2 = (1, 16, 6, Fraction(1, 20))   # n1, n2, K, eps of the ladder's rung 2
MATCH_SLOTS = (("match", 10, 6), ("match", 11, 6))   # Certificates.SLOTS entries
STARTUP = (("help", ["--help"]),
           ("bracket", ["bracket", "tests/fixtures/resolution_r.json",
                        "tests/fixtures/resolution_s.json"]),
           ("constant", ["constant", "--instance", "tests/fixtures/norm_summing4.json",
                         "--mode", "C_uncond", "--step", "1/2"]),
           ("hereditary", ["hereditary", "--universe", "12", "--m1", "1", "--m2", "3",
                           "--mode", "hereditary", "--samples", "4", "--seed", "7"]),
           ("elton", ["elton", "--n1", "1", "--n2", "8", "--K", "4", "--eps", "13/100"]))
JOB = "from unclab.cli import main; main()"
# prints the unclab module bodies executed, the modules loaded and the objects
# frozen as the last stderr line
COUNT_MODULES = """\
import atexit, gc, os, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec"
                 and getattr(args[0], "co_name", None) == "<module>"
                 and os.path.basename(os.path.dirname(args[0].co_filename)) == "unclab"
                 and ran.add(args[0].co_filename))
atexit.register(lambda: sys.stderr.write(
    f"\\n{len(ran)} {len(sys.modules)} {gc.get_freeze_count()}\\n"))
"""
# a verb line of a usage text: an indented lower-case name, then its help or nothing
VERB_LINE = re.compile(r"^ {2,}([a-z][a-z0-9-]*)(?: {2,}\S|$)", re.M)
TIMES = ("median_s", "spread_s", "runs_s")
# reported for each side apart
PER_SIDE = TIMES + ("modules_executed", "modules_loaded", "frozen_at_exit")


def run_child(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run a child interpreter; if it fails, pass its stderr on and exit 1."""
    proc = subprocess.run(argv, capture_output=True, text=True, **kwargs)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(1)
    return proc


def summary(times: list[float]) -> dict:
    return {"median_s": statistics.median(times),
            "spread_s": max(times) - min(times), "runs_s": times}


def timed(run, runs: int) -> tuple[object, dict]:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return result, summary(times)


def sizes(lengths: list[int]):
    """Every size in a fixed order, as (kernel, fields, run, summarize).

    Inputs are drawn as the generator advances, so the i-th size gets the
    same inputs whether or not the sizes before it are measured. `run()`
    computes the timed result; `summarize(result)` gives its value and
    digest, and for start-up its work counters.
    """
    sys.path.insert(0, str(PERFBENCH))
    from workloads import Brackets, Certificates, Constants

    import unclab
    from unclab import elton
    from unclab.constants import ConstantQuery, compute_constant
    from unclab.elton import EltonParams, LayoutVector, build_layout, structured_dp
    from unclab.norms import SparseVector, eval_norm
    from unclab.ramsey import search_matching
    from unclab.rationals import parse_rational
    from unclab.resolutions import Resolution, bracket
    from unclab.serialize import dump_json, load_norm_instance, load_prefix_map

    def digest(obj) -> str:
        return hashlib.sha256(dump_json(obj).encode()).hexdigest()

    env = dict(os.environ, PYTHONPATH=str(Path(unclab.__file__).parent.parent))
    env.pop("UNCLAB_CAPS", None)

    def job(code: str, argv: list[str]) -> subprocess.CompletedProcess:
        return run_child([sys.executable, "-c", code, *argv], cwd=ROOT, env=env)

    def startup_summary(case: str, argv: list[str]):
        def summarize(proc) -> dict:
            executed, loaded, frozen = job(COUNT_MODULES + JOB, argv).stderr.split()[-3:]
            result = (" ".join(sorted(VERB_LINE.findall(proc.stdout))) if case == "help"
                      else proc.stdout)
            return {"modules_executed": int(executed), "modules_loaded": int(loaded),
                    "frozen_at_exit": int(frozen),
                    "digest": hashlib.sha256(result.encode()).hexdigest()}
        return summarize

    for case, argv in STARTUP:
        yield ("startup", {"case": case, "argv": argv},
               lambda argv=argv: job(JOB, argv), startup_summary(case, argv))

    pairs = Brackets(SEED, None, None)
    for n in lengths:
        k = pairs.rng.randint(2, 6)
        r, s = (Resolution(k, tuple(pattern), tuple(alpha))
                for _, pattern, alpha in (pairs.resolution(n, k), pairs.resolution(n, k)))
        yield ("bracket", {"n": n, "m": n, "cells": n * n},
               lambda r=r, s=s: bracket(r, s),
               lambda out: {"value": f"{out[0].numerator}/{out[0].denominator}",
                            "digest": digest(out[1])})

    stream = Constants(SEED, None, None)
    for dim, cls in NORM_SIZES:
        inst = load_norm_instance(stream.instance(dim, cls, 4))
        vectors = [SparseVector.from_pairs(
            (i, stream.rational(-8, 8, 8))
            for i in stream.rng.sample(range(1, dim + 1), stream.rng.randint(1, dim)))
            for _ in range(CALLS)]
        yield ("eval_norm", {"dim": dim, "class": cls, "calls": CALLS},
               lambda inst=inst, vectors=vectors: [eval_norm(inst, v) for v in vectors],
               lambda values: {"digest": digest(values)})
    for dim, s, cls in GRID_SIZES:
        inst = load_norm_instance(stream.instance(dim, cls, 3))
        yield ("grid", {"dim": dim, "step": f"1/{s}", "class": cls},
               lambda inst=inst, s=s: compute_constant(
                   inst, ConstantQuery("C_uncond"), "grid", Fraction(1, s)),
               lambda report: {"lattice_points": report.details["lattice_points"],
                               "value": f"{report.value_lower.numerator}/"
                                        f"{report.value_lower.denominator}",
                               "digest": digest(report)})

    def dp_cells(layout, x) -> int:
        values = elton._dense_values(layout, x)[1:]   # coordinates 1..universe
        expanded = []   # (b, slots) of each shape structured_dp expands
        tiling = elton._slot_tiling

        def spy(p, a, b, count):
            slots, unit = tiling(p, a, b, count)
            expanded.append((b, len(slots)))
            return slots, unit

        elton._slot_tiling = spy
        try:
            structured_dp(layout, x)
        finally:
            elton._slot_tiling = tiling
        return sum(len(list(itertools.groupby(values[b:]))) * n for b, n in expanded)

    class Drawn(Certificates):
        """Keeps the input document a job would write in `doc`."""

        def write(self, name: str, doc) -> str:
            self.doc = doc
            return name

    certs = Drawn(SEED, None, None)
    dp_cases = []
    for slot in DP_SLOTS:
        argv = getattr(certs, "make_" + slot[0])(*slot[1:])[1]
        opts = dict(zip(argv[1::2], argv[2::2]))
        dp_cases.append((slot[0], EltonParams(int(opts["--n1"]), int(opts["--n2"]),
                                              int(opts["--K"]), parse_rational(opts["--eps"]))))
    dp_cases.append(("rung2", EltonParams(*DP_RUNG2)))
    for case, p in dp_cases:
        layout = build_layout(p)
        x = LayoutVector(Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))
        yield ("structured_dp", {"case": case, "n1": p.n1, "n2": p.n2, "K": p.K,
                                 "universe": layout.universe},
               lambda layout=layout, x=x: structured_dp(layout, x),
               lambda out, layout=layout, x=x: {
                   "cells": dp_cells(layout, x),
                   "value": f"{out[0].numerator}/{out[0].denominator}",
                   "digest": digest(list(out))})
    for slot in MATCH_SLOTS:
        argv = certs.make_match(*slot[1:])[1]
        opts = dict(zip(argv[1::2], argv[2::2]))
        pmap = load_prefix_map(certs.doc)
        universe, horizon = int(opts["--universe"]), int(opts["--horizon"])
        yield ("search_matching", {"universe": universe, "horizon": horizon,
                                   "components": pmap.components},
               lambda pmap=pmap, universe=universe, horizon=horizon: search_matching(
                   pmap, universe, horizon=horizon),
               lambda report: {"checked": report["checked"], "digest": digest(report)})


def measure(size, runs: int) -> dict:
    kernel, fields, run, summarize = size
    result, times = timed(run, runs)
    return {"kernel": kernel, **fields, **times, **summarize(result)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lengths", default="100,300,1000")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--parent-src", default=None)
    ap.add_argument("--size", type=int, default=None,
                    help="measure only the size with this index and print its entry")
    args = ap.parse_args()
    lengths = [int(x) for x in args.lengths.split(",")]
    if args.size is not None:
        size = next(itertools.islice(sizes(lengths), args.size, None))
        print(json.dumps(measure(size, args.runs)))
        return

    doc = {
        "kernels": "CLI start-up (--help, bracket, constant, hereditary, elton), "
                   "unclab.resolutions.bracket (method dp), unclab.norms.eval_norm, "
                   "unclab.constants.compute_constant (method grid, mode C_uncond), "
                   "unclab.elton.structured_dp, unclab.ramsey.search_matching",
        "seed": SEED,
        "runs": args.runs,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
        "dont_write_bytecode": sys.dont_write_bytecode,
        "sizes": {},
    }
    ok = True
    if args.parent_src is None:
        for size in sizes(lengths):
            entry = measure(size, args.runs)
            doc["sizes"].setdefault(entry.pop("kernel"), []).append(entry)
    else:
        import unclab

        sides = {"parent": args.parent_src, "change": str(Path(unclab.__file__).parent.parent)}
        for i in range(len(STARTUP) + len(lengths) + len(NORM_SIZES) + len(GRID_SIZES)
                       + len(DP_SLOTS) + 1 + len(MATCH_SLOTS)):
            got = {"parent": [], "change": []}
            for run in range(args.runs):
                for side in (("parent", "change") if (i + run) % 2 == 0
                             else ("change", "parent")):
                    child = run_child(
                        [sys.executable, __file__, "--lengths", args.lengths,
                         "--runs", "1", "--size", str(i)],
                        env=dict(os.environ, PYTHONPATH=sides[side]))
                    got[side].append(json.loads(child.stdout))
            same = len({e["digest"] for entries in got.values() for e in entries}) == 1
            ok = ok and same
            p, c = ({**entries[0], **summary([t for e in entries for t in e["runs_s"]])}
                    for entries in (got["parent"], got["change"]))
            doc["sizes"].setdefault(c["kernel"], []).append({
                **{key: v for key, v in c.items()
                   if key not in PER_SIDE + ("kernel", "digest")},
                "parent": {key: p[key] for key in PER_SIDE if key in p},
                "change": {key: c[key] for key in PER_SIDE if key in c},
                "parent_over_change_median": p["median_s"] / c["median_s"],
                "same_results": same,
            })
    print(json.dumps(doc, indent=2))
    if not ok:
        sys.exit("parent and change disagree on a result")


if __name__ == "__main__":
    main()
