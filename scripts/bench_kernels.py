#!/usr/bin/env python3
"""Time the exact kernels alone (the bracket DP, eval_norm, the grid, the
LP, the structured DP, the matching search, the hereditary check, the
mr-demo report) and start-up.

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
  grid       compute_constant(method="grid") on one instance of 3
             functionals per (mode, dim, 1/s, class) in GRID_SIZES, with the
             mode's query, as the constants workload draws its grid jobs:
             C_uncond at three sizes, and BOU and schreier at the workload's
             own size (dim 2, step 1/8) and at dim 3, step 1/4; work counter
             lattice_points
  lp         compute_constant(method="fractional_lp") on the dim-4 summing
             norm of tests/fixtures/norm_summing4.json, in C_uncond and in K
             at delta = 1/2 (heavier than the constants workload's LP jobs,
             which run on dim-2 point clouds); work counter cells, the LP
             cells the report counts
  structured_dp
             structured_dp on the standard vector of ladder rung 1, of one
             K = 3 layout and of ladder rungs 2 and 3, the vector's values
             built inside the timing as the certificate builds them; the
             first two drawn as the certificates workload draws its rung-1
             and K = 3 layout jobs, rungs 2 and 3 (universes 34818 and
             2129922) being no workload's job; work counters universe and
             pieces, the pieces the piecewise-linear DP builds, as the call
             returns them
  weakly_hereditary
             the `hereditary` verb's body, remark_family and
             weakly_hereditary on each sampled restriction set, on a
             sampled hereditary job and a sampled weakly job, drawn as the
             certificates workload draws them; work counters family_size
             and checked, summed over the samples
  search_matching
             the exhaustive scan at universe 10 and 11, horizon 6, on a map
             drawn as the certificates workload draws its match jobs (depth
             2, every component empty, so no pair matches); work counter
             checked
  mr_demo    mr_demo at k = 10 on the family of perfbench's MR_FAMILY,
             drawn as the certificates workload draws its largest mr-demo
             job, and at k = 16 on a seeded family of three resolutions of
             lengths 300..500 (no workload's job); work counters universe
             and functionals, the size of the coded norm's family with its
             negations
Each size is timed `runs` times and reports the median and the spread
(slowest minus fastest) of its run times next to its work counter, with a
digest of its results.

With --parent-src every size is measured on two sides: the unclab package
under DIR (say, an unpacked copy of the parent commit's src/) and the
package this interpreter imports, which must share the kernels' signatures.
Each run of a size is one child interpreter of this script, started with
--size and --runs 1, and the two sides alternate run by run, the side that
goes first alternating too, so drift of the machine spreads over both.
Each side's times are pooled into its median, spread and run list. The
document then holds both sides per size and the ratio of their medians, and
the script exits 1 if any two children disagree on a result. A child that
fails marks its side of that size failed, with the last line of its stderr
(passed on in full), and that side is not run again for the size; the
sweep goes on, and the script exits 1 at its end. Without --parent-src a
failing size ends the script with exit 1. In both modes each size is
printed as it finishes, so a sweep cut short keeps the sizes it measured.
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
import textwrap
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SEED = 8
CALLS = 200
NORM_SIZES = ((4, "all_subsets"), (8, "initial_segments"), (12, "intervals"))
GRID_SIZES = (("C_uncond", 2, 8, "initial_segments"), ("C_uncond", 3, 4, "intervals"),
              ("C_uncond", 3, 8, "all_subsets"), ("BOU", 2, 8, "initial_segments"),
              ("BOU", 3, 4, "intervals"), ("schreier", 2, 8, "initial_segments"),
              ("schreier", 3, 4, "intervals"))
LP_SIZES = (("C_uncond", None), ("K", "1/2"))   # mode, delta on norm_summing4.json
DP_SLOTS = (("rung1", "elton"), ("layout", "elton", 3))   # Certificates.SLOTS entries
DP_RUNGS = (("rung2", (1, 16, 6, Fraction(1, 20))),   # n1, n2, K, eps of the ladder's
            ("rung3", (1, 64, 8, Fraction(1, 50))))   # rungs 2 and 3
HEREDITARY_SLOTS = (("hereditary", "hereditary"), ("hereditary", "weakly"))
MATCH_SLOTS = (("match", 10, 6), ("match", 11, 6))   # Certificates.SLOTS entries
MR_SLOT = ("mr_demo", 10)   # a Certificates.SLOTS entry
MR_DRAWN = (16, 3, 300, 500)   # k, members and their least and greatest lengths
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


def write_document(header: dict, entries) -> None:
    """Print {**header, "sizes": {kernel: [entry, ...]}} as indented JSON,
    each (kernel, entry) flushed as it comes, entries grouped by kernel."""
    out = sys.stdout
    out.write(json.dumps(header, indent=2)[:-2] + ',\n  "sizes": {')
    last = None
    for kernel, entry in entries:
        out.write(",\n" if kernel == last else
                  ("\n    ]," if last else "") + f"\n    {json.dumps(kernel)}: [\n")
        out.write(textwrap.indent(json.dumps(entry, indent=2), " " * 6))
        out.flush()
        last = kernel
    out.write(("\n    ]\n  " if last else "") + "}\n}\n")


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
    from unclab import cli
    from unclab.constants import ConstantQuery, compute_constant
    from unclab.elton import STANDARD_PAIR, EltonParams, _value_runs, structured_dp
    from unclab.mrdemo import coded_norm_instance, mr_demo, special_sequence
    from unclab.norms import SparseVector, eval_norm
    from unclab.ramsey import search_matching
    from unclab.rationals import parse_rational
    from unclab.resolutions import Resolution, bracket
    from unclab.serialize import (dump_json, load_norm_instance, load_prefix_map,
                                  load_resolution_list)

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
    for mode, dim, s, cls in GRID_SIZES:
        inst = load_norm_instance(stream.instance(dim, cls, 3))
        q = stream.query(mode)   # draws nothing for C_uncond
        query = ConstantQuery(mode, **{key: v if key == "order" else parse_rational(v)
                                       for key, v in q.items() if key != "mode"})
        yield ("grid", {"mode": mode, "query": q, "dim": dim, "step": f"1/{s}", "class": cls},
               lambda inst=inst, query=query, s=s: compute_constant(
                   inst, query, "grid", Fraction(1, s)),
               lambda report: {"lattice_points": report.details["lattice_points"],
                               "value": f"{report.value_lower.numerator}/"
                                        f"{report.value_lower.denominator}",
                               "digest": digest(report)})
    summing4 = load_norm_instance(json.loads(
        (ROOT / "tests" / "fixtures" / "norm_summing4.json").read_text()))
    for mode, delta in LP_SIZES:
        query = ConstantQuery(mode, delta=None if delta is None else parse_rational(delta))
        yield ("lp", {"mode": mode, "delta": delta, "instance": "norm_summing4.json"},
               lambda query=query: compute_constant(summing4, query, "fractional_lp"),
               lambda report: {"cells": report.details["cells"],
                               "value": f"{report.value_lower.numerator}/"
                                        f"{report.value_lower.denominator}",
                               "digest": digest(report)})

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
    dp_cases += [(case, EltonParams(*params)) for case, params in DP_RUNGS]
    for case, p in dp_cases:
        yield ("structured_dp", {"case": case, "n1": p.n1, "n2": p.n2, "K": p.K,
                                 "universe": p.universe},
               lambda p=p: structured_dp(p, _value_runs(p, STANDARD_PAIR[0])),
               lambda out: {"pieces": out[2],
                            "value": f"{out[0].numerator}/{out[0].denominator}",
                            "digest": digest(list(out[:2]))})
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
    for slot in HEREDITARY_SLOTS:
        argv = certs.make_hereditary(*slot[1:])[1]
        opts = {key[2:]: value if key == "--mode" else int(value)
                for key, value in zip(argv[1::2], argv[2::2])}
        yield ("weakly_hereditary", opts,
               lambda opts=opts: cli.hereditary(**opts, restrict=None)[1],
               lambda out: {"family_size": out["family_size"],
                            "checked": sum(run["checked"] for run in out["runs"]),
                            "digest": digest(out)})
    argv = certs.make_mr_demo(*MR_SLOT[1:])[1]
    opts = dict(zip(argv[1::2], argv[2::2]))
    mr_cases = [("MR_FAMILY", load_resolution_list(certs.doc), int(opts["--k"]),
                 int(opts["--seed"]))]
    k, members, low, high = MR_DRAWN
    colours = pairs.rng.randint(2, 6)
    drawn = [Resolution(colours, tuple(pattern), tuple(alpha)) for _, pattern, alpha in (
        pairs.resolution(pairs.rng.randint(low, high), colours) for _ in range(members))]
    mr_cases.append(("drawn", drawn, k, pairs.rng.randint(0, 10 ** 6)))
    for case, family, k, seed in mr_cases:
        yield ("mr_demo", {"family": case, "lengths": [len(r) for r in family],
                           "k": k, "seed": seed},
               lambda family=family, k=k, seed=seed: mr_demo(family, k, seed),
               lambda report, family=family, k=k, seed=seed: {
                   "universe": report["universe"],
                   "functionals": len(coded_norm_instance(
                       special_sequence(family, k, seed)).functionals),
                   "digest": digest(report)})


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

    header = {
        "kernels": "CLI start-up (--help, bracket, constant, hereditary, elton), "
                   "unclab.resolutions.bracket (method dp), unclab.norms.eval_norm, "
                   "unclab.constants.compute_constant (method grid, modes C_uncond, "
                   "BOU and schreier), unclab.lp via compute_constant (method "
                   "fractional_lp, modes C_uncond and K), unclab.elton.structured_dp, "
                   "unclab.ramsey.search_matching, "
                   "the hereditary verb (unclab.ramsey.weakly_hereditary), "
                   "unclab.mrdemo.mr_demo",
        "seed": SEED,
        "runs": args.runs,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
        "dont_write_bytecode": sys.dont_write_bytecode,
    }
    if args.parent_src is None:
        write_document(header, ((entry.pop("kernel"), entry)
                                for entry in (measure(size, args.runs)
                                              for size in sizes(lengths))))
        return
    import unclab

    sides = {"parent": args.parent_src, "change": str(Path(unclab.__file__).parent.parent)}
    faults = []

    def compare(i: int) -> dict:
        got = {"parent": [], "change": []}
        failed = {}
        for run in range(args.runs):
            for side in ("parent", "change") if (i + run) % 2 == 0 else ("change", "parent"):
                if side in failed:
                    continue
                child = subprocess.run(
                    [sys.executable, __file__, "--lengths", args.lengths,
                     "--runs", "1", "--size", str(i)],
                    capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=sides[side]))
                if child.returncode:
                    sys.stderr.write(child.stderr)
                    failed[side] = (child.stderr.strip().splitlines() or
                                    [f"exit status {child.returncode}"])[-1]
                else:
                    got[side].append(json.loads(child.stdout))
        digests = {e["digest"] for side, entries in got.items() if side not in failed
                   for e in entries}
        if failed or len(digests) > 1:
            faults.append(i)
        measured = {side: {**entries[0], **summary([t for e in entries for t in e["runs_s"]])}
                    for side, entries in got.items() if side not in failed}
        # fields both measured sides report alike are shared, the rest per side
        shared = {key: v for key, v in next(iter(measured.values()), {}).items()
                  if key not in PER_SIDE + ("kernel", "digest")
                  and all(m.get(key) == v for m in measured.values())}
        entry = dict(shared)
        for side in ("parent", "change"):
            entry[side] = ({"failed": failed[side]} if side in failed else
                           {key: v for key, v in measured[side].items()
                            if key not in shared and key not in ("kernel", "digest")})
        if not failed:
            entry["parent_over_change_median"] = (measured["parent"]["median_s"]
                                                  / measured["change"]["median_s"])
            entry["same_results"] = len(digests) == 1
        return entry

    write_document(header, ((kernel, compare(i))
                            for i, (kernel, *_) in enumerate(sizes(lengths))))
    if faults:
        sys.exit(f"a side failed or the sides disagree at sizes {faults}")


if __name__ == "__main__":
    main()
