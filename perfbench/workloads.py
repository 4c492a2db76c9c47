"""Seeded job streams for the three benchmark workloads.

A workload is an endless stream of CLI jobs built from one seed.  Each job
names its verb arguments, writes its JSON inputs into the run's work
directory, and carries the check that its report must pass.  Jobs follow a
fixed cycle of slots: the slot fixes the job's kind and size class, the seed
fixes its contents.  A run ends on a whole cycle unless its time limit cuts
it short, so runs see the same mix of kinds and sizes and only the contents
change with the seed.

Every job stays inside the default unclab Caps.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

import oracles

CLASSES = ("initial_segments", "intervals", "all_subsets")
MODES = ("K", "Kprime", "L", "Lprime", "A", "C_uncond",
         "quasi_greedy", "BOU", "Kstar", "schreier")

# The family shipped as tests/fixtures/mr_family.json.
MR_FAMILY = [
    (2, [1, 2], [Fraction(1, 2), Fraction(1, 2)]),
    (2, [2, 1], [Fraction(1, 2), Fraction(1, 2)]),
    (2, [1, 1, 2, 2], [Fraction(1, 4)] * 4),
]


@dataclass
class Job:
    index: int
    kind: str
    args: list[str]
    check: Callable[[dict], None]
    # An LP job and the grid job on its instance and query share a twin
    # key; the run checks grid <= LP across the pair.
    twin: tuple | None = None


def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def resolution_doc(res) -> dict:
    k, pattern, alpha = res
    return {"k": k, "pattern": pattern, "alpha": [fmt(a) for a in alpha]}


class Stream:
    """Base class: job i of the stream is slot i % len(SLOTS) of the cycle."""

    SLOTS: tuple = ()

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.root = root
        self.count = 0

    @property
    def cycle(self) -> int:
        return len(self.SLOTS)

    def write(self, name: str, doc) -> str:
        path = self.workdir / f"j{self.count}_{name}.json"
        path.write_text(json.dumps(doc))
        return str(path.relative_to(self.root))

    def __next__(self) -> Job:
        slot = self.SLOTS[self.count % self.cycle]
        kind, args, check, twin = getattr(self, "make_" + slot[0])(*slot[1:])
        job = Job(self.count, kind, args, check, twin)
        self.count += 1
        return job


class Brackets(Stream):
    """bracket --mutual on random resolution pairs with fixed sizes per slot,
    plus one chain job per cycle.  Cells per direction run from 1.5k to 7k;
    two slots share the largest size so the 90th percentile falls inside
    that class rather than on its edge."""

    SLOTS = (
        ("bracket", 15, 100), ("bracket", 20, 100), ("bracket", 30, 100),
        ("bracket", 200, 18), ("bracket", 50, 80), ("bracket", 60, 75),
        ("bracket", 20, 250), ("bracket", 70, 100), ("bracket", 280, 25),
        ("chain",),
    )

    def resolution(self, n: int, k: int):
        # Weights are drawn per entry and neighbours never share a
        # (colour, weight) pair, so the inputs have no constant runs.
        pattern, alpha = [], []
        while len(pattern) < n:
            c = self.rng.randint(1, k)
            a = Fraction(self.rng.randint(1, 12), self.rng.randint(1, 12))
            if pattern and (c, a) == (pattern[-1], alpha[-1]):
                continue
            pattern.append(c)
            alpha.append(a)
        return (k, pattern, alpha)

    def make_bracket(self, n: int, m: int):
        k = self.rng.randint(2, 6)
        r, s = self.resolution(n, k), self.resolution(m, k)
        args = ["bracket", self.write("r", resolution_doc(r)),
                self.write("s", resolution_doc(s)), "--mutual"]
        return "bracket", args, lambda rep: oracles.check_bracket_mutual(rep, r, s), None

    def make_chain(self):
        # Patterns grow by random insertions from a few seeds, so long chains
        # exist, and are then shuffled among unrelated patterns.
        k = self.rng.randint(2, 4)
        patterns = []
        for _ in range(4):
            p = [self.rng.randint(1, k) for _ in range(3)]
            for _ in range(self.rng.randint(4, 7)):
                patterns.append(list(p))
                for _ in range(self.rng.randint(1, 2)):
                    p.insert(self.rng.randint(0, len(p)), self.rng.randint(1, k))
        patterns += [[self.rng.randint(1, k) for _ in range(self.rng.randint(3, 14))]
                     for _ in range(12)]
        self.rng.shuffle(patterns)
        args = ["chain", "--patterns", self.write("patterns", patterns), "--k", str(k)]
        return "chain", args, lambda rep: oracles.check_chain(rep, patterns), None


class Certificates(Stream):
    """Structured inputs: Rademacher tables, layout certificates on ladder
    rung 1 and on seeded valid parameters, mr-demo on the shipped family,
    exhaustive matching scans that find nothing, and hereditary samples.

    The three slowest kinds (the Rademacher table and both rung-1
    certificates, about a second each) fill 15% of the cycle and everything
    else takes at most half as long, so the 90th percentile falls inside the
    slow group instead of on the gap below it.  They sit a third of a cycle
    apart, so a run cut inside a cycle keeps about the same mix."""

    SLOTS = (
        ("rademacher",), ("layout", "elton", 3), ("match", 10, 6), ("mr_demo", 4),
        ("hereditary", "hereditary"), ("hereditary", "weakly"), ("mr_demo", 6),
        ("rung1", "elton"), ("layout", "quasi", 3), ("match", 11, 6),
        ("hereditary", "hereditary"), ("hereditary", "weakly"), ("mr_demo", 8),
        ("rung1", "quasi"), ("layout", None, 4), ("mr_demo", 10),
    ) + (("hereditary", "hereditary"), ("hereditary", "weakly")) * 2

    def make_rademacher(self):
        """The k0 = 2, m = 3, n = 1 table: three length-72 members."""
        m, n, ns = 3, 1, (1, 17)
        choice = ["--ns", "1,17"] if self.rng.random() < 0.5 else ["--auto-ns"]
        args = ["rademacher", "--k0", "2", "--m", str(m), "--n", str(n), *choice]
        return "rademacher", args, lambda rep: oracles.check_rademacher(rep, 2, m, n, ns), None

    def layout_job(self, verb: str, p: dict, alpha: Fraction | None):
        args = [verb, "--n1", str(p["n1"]), "--n2", str(p["n2"]), "--K", str(p["K"]),
                "--eps", fmt(p["eps"])]
        if alpha is not None:
            args += ["--alpha", fmt(alpha)]
        return verb, args, lambda rep: oracles.check_elton(rep, p, alpha), None

    def alpha(self) -> Fraction:
        return self.rng.choice([Fraction(1, 3), Fraction(1, 2), Fraction(3, 5),
                                Fraction(2, 3), Fraction(3, 4), Fraction(1)])

    def make_rung1(self, verb: str):
        p = {"n1": 1, "n2": 8, "K": 4, "eps": Fraction(13, 100)}
        return self.layout_job(verb, p, self.alpha() if verb == "quasi" else None)

    def make_layout(self, verb: str | None, K: int):
        """Random parameters passing validate_params: n1 < n2,
        (2 n1 + n2) < n1 2^K, and eps above n1/(2 n2) + 2^-K.  Universes
        are 98..418 for K = 3 and 386..642 for K = 4."""
        if K == 3:
            n1 = self.rng.randint(1, 2)
            n2 = self.rng.randint(n1 + 1, min(6 * n1 - 1, 13 - n1))
        else:
            n1, n2 = self.rng.choice([(1, 2), (1, 3), (1, 4), (2, 3)])
        slack = Fraction(n1, 2 * n2) + Fraction(1, 2 ** K)
        eps = Fraction(int(slack * 100) + self.rng.randint(1, 20), 100)
        p = {"n1": n1, "n2": n2, "K": K, "eps": eps}
        verb = verb or self.rng.choice(["elton", "quasi"])
        return self.layout_job(verb, p, self.alpha() if verb == "quasi" else None)

    def make_mr_demo(self, k: int):
        seed = self.rng.randint(0, 10 ** 6)
        path = self.write("family", [resolution_doc(r) for r in MR_FAMILY])
        args = ["mr-demo", "--family", path, "--k", str(k), "--seed", str(seed)]
        return "mr-demo", args, lambda rep: oracles.check_mr_demo(rep, MR_FAMILY, k), None

    def make_match(self, universe: int, horizon: int):
        """A depth-2 map whose components are all empty; with horizon above
        universe/2 no pair matches, so the exhaustive scan runs to its end."""
        components = self.rng.randint(1, 3)
        entries = [{"prefix": list(p), "F": [[] for _ in range(components)]}
                   for p in combinations(range(1, universe + 1), 2)]
        self.rng.shuffle(entries)
        path = self.write("map", {"depth": 2, "entries": entries})
        args = ["match", "--maps", path, "--universe", str(universe),
                "--horizon", str(horizon)]
        return "match", args, lambda rep: oracles.check_match(
            rep, universe, 2, horizon, components), None

    def make_hereditary(self, mode: str):
        universe = self.rng.randint(10, 14)
        m1, m2 = self.rng.choice([(1, 2), (1, 3), (2, 3)])
        samples = self.rng.randint(3, 6)
        seed = self.rng.randint(0, 10 ** 6)
        args = ["hereditary", "--universe", str(universe), "--m1", str(m1), "--m2", str(m2),
                "--mode", mode, "--samples", str(samples), "--seed", str(seed)]
        return "hereditary", args, lambda rep: oracles.check_hereditary(
            rep, universe, m1, m2, mode, samples, 8), None


class Constants(Stream):
    """Extremal constants by grid search in all ten modes over the three
    projection classes, one exact-LP job with its grid twin per cycle, and
    norm evaluations at dim 4..12."""

    # Two rounds of every mode on dim 2 at step 1/8 and three cheap modes on
    # dim 3 at step 1/4, six norm jobs, and one LP job with its grid twin
    # between the rounds: an LP job costs as much as six grid jobs, so it
    # stays a minority.
    ROUNDS = tuple(
        tuple(("grid", 2, 8, mode, i + turn) for i, mode in enumerate(MODES))
        + (("grid", 3, 4, "Kprime", turn), ("grid", 3, 4, "Lprime", turn + 1),
           ("grid", 3, 4, "Kstar", turn + 2),
           ("norm", turn), ("norm", turn + 1), ("norm", turn + 2))
        for turn in (0, 1))
    SLOTS = ROUNDS[0] + (("lp_pair",), ("lp",)) + ROUNDS[1]
    LP_QUERY = {"mode": "Kstar", "delta": "1/2"}

    def rational(self, lo: int, hi: int, den: int = 4) -> Fraction:
        while True:
            x = Fraction(self.rng.randint(lo, hi), self.rng.randint(1, den))
            if x:
                return x

    def instance(self, dim: int, cls: str, nfuncs: int) -> dict:
        funcs = []
        for _ in range(nfuncs):
            coords = sorted(self.rng.sample(range(1, dim + 1), self.rng.randint(1, dim)))
            funcs.append([{"i": i, "v": fmt(self.rational(-4, 4))} for i in coords])
        return {"dim": dim, "projection_class": cls, "include_sup": True, "functionals": funcs}

    def query(self, mode: str) -> dict:
        rng = self.rng
        if mode in ("K", "Kprime", "L", "Lprime", "A", "Kstar"):
            return {"mode": mode, "delta": rng.choice(["1/4", "1/2", "3/4", "1/1"])}
        if mode == "BOU":
            return {"mode": mode, "D": rng.choice(["1/1", "3/2", "2/1"]),
                    "d": rng.choice(["1/1", "3/2"])}
        if mode == "schreier":
            return {"mode": mode, "order": rng.randint(1, 2)}
        return {"mode": mode}

    def constant_job(self, doc: dict, path: str, q: dict, step: Fraction | None,
                     twin: tuple | None = None):
        flags = {"delta": "--delta", "D": "--D", "d": "--d", "order": "--order"}
        args = ["constant", "--instance", path, "--mode", q["mode"]]
        for key, flag in flags.items():
            if key in q:
                args += [flag, str(q[key])]
        args += ["--method", "lp"] if step is None else ["--step", fmt(step)]
        inst = oracles.instance_from_doc(doc)
        return "constant", args, lambda rep: oracles.check_constant(rep, inst, q, step), twin

    def make_grid(self, dim: int, s: int, mode: str, turn: int):
        # The class rotates with the cycle so each mode meets all three.
        cls = CLASSES[(turn + self.count // self.cycle) % 3]
        doc = self.instance(dim, cls, self.rng.randint(1, 3))
        return self.constant_job(doc, self.write("inst", doc), self.query(mode),
                                 Fraction(1, s))

    def make_lp_pair(self):
        """A dim-2 point cloud for Kstar with delta 1/2: the first point has
        exactly one coordinate of size >= 1/2 and the second none, so the LP
        solves two cells; the points are independent, so the cloud norm never
        vanishes on a nonzero vector."""
        rng = self.rng
        big = [Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2), Fraction(2)]
        small = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)]
        def pick(values):
            return rng.choice(values) * rng.choice([1, -1])

        first = [pick(small), pick(small)]
        first[rng.randint(0, 1)] = pick(big)
        second = [pick(small), pick(small)]
        if first[0] * second[1] == first[1] * second[0]:
            second[1] = -second[1]
        doc = {"dim": 2, "projection_class": "initial_segments", "include_sup": False,
               "functionals": [[{"i": j + 1, "v": fmt(v)} for j, v in enumerate(point)]
                               for point in (first, second)]}
        self.lp_instance = (doc, self.write("cloud", doc))
        return self.constant_job(*self.lp_instance, self.LP_QUERY, Fraction(1, 4), self.count)

    def make_lp(self):
        return self.constant_job(*self.lp_instance, self.LP_QUERY, None, self.count - 1)

    def make_norm(self, turn: int):
        dim = self.rng.randint(4, 12)
        cls = CLASSES[(turn + self.count // self.cycle) % 3]
        if cls == "all_subsets":
            dim = min(dim, 8)
        doc = self.instance(dim, cls, self.rng.randint(2, 4))
        coords = sorted(self.rng.sample(range(1, dim + 1), self.rng.randint(1, dim)))
        vec = {"entries": [{"i": i, "v": fmt(self.rational(-8, 8, 8))} for i in coords]}
        args = ["norm", "--instance", self.write("inst", doc), "--vector", self.write("vec", vec)]
        inst, v = oracles.instance_from_doc(doc), oracles.sparse(vec)
        return "norm", args, lambda rep: oracles.check_norm(rep, inst, v), None


WORKLOADS = {"brackets": Brackets, "certificates": Certificates, "constants": Constants}


def grid_le_lp(results) -> set[int]:
    """Indices of LP jobs whose value is below the grid value of their twin."""
    grid, lp = {}, {}
    for job, report in results:
        if job.twin is None or report is None:
            continue
        side = lp if report.get("method") == "fractional_lp" else grid
        side[job.twin] = (job.index, oracles.rat(report["value_lower"]))
    return {idx for key, (idx, value) in lp.items() if key in grid and grid[key][1] > value}
