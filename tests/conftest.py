import contextlib
import io
import os
import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path
from typing import NamedTuple

import pytest

import unclab
from unclab import cli
from unclab.elton import EltonLayout, _dense_values
from unclab.errors import DomainError
from unclab.lp import _kstar_denominator
from unclab.norms import SparseVector, eval_norm
from unclab.resolutions import Resolution
from unclab.schreier import oscillation, schreier_decompose, schreier_member

FIXTURES = Path(__file__).parent / "fixtures"
# the source tree this test process imported unclab from
SRC = str(Path(unclab.__file__).resolve().parent.parent)


def child_env() -> dict:
    """The environment for a child Python: this one without UNCLAB_CAPS, so
    the child runs at the default caps, and with SRC first on PYTHONPATH, so
    it imports the same unclab."""
    env = dict(os.environ)
    env.pop("UNCLAB_CAPS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def fixtures():
    return FIXTURES


class CliResult(NamedTuple):
    exit_code: int
    stdout_bytes: bytes
    stderr_bytes: bytes

    @property
    def stdout(self) -> str:
        return self.stdout_bytes.decode()

    @property
    def stderr(self) -> str:
        return self.stderr_bytes.decode()


def _invoke_cli(args: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args, prog_name="unclab")
        except SystemExit as e:
            code = e.code or 0
    return CliResult(code, out.getvalue().encode(), err.getvalue().encode())


@pytest.fixture
def invoke_cli():
    """Run `unclab ARGS...` in this process: its exit code and its stdout
    and stderr as UTF-8 bytes. An exception other than SystemExit
    propagates."""
    return _invoke_cli


def rand_resolution(rng: random.Random, max_len: int = 6, max_k: int = 4,
                    k: int | None = None) -> Resolution:
    if k is None:
        k = rng.randint(1, max_k)
    n = rng.randint(1, max_len)
    pattern = tuple(rng.randint(1, k) for _ in range(n))
    alpha = tuple(Fraction(rng.randint(1, 8), rng.randint(1, 8))
                  for _ in range(n))
    return Resolution(k, pattern, alpha)


def colour_weight(r: Resolution, j: int) -> Fraction:
    """Total weight of r's colour-j coordinates."""
    return sum((a for c, a in zip(r.pattern, r.alpha) if c == j), Fraction(0))


def build_standard(kind: str, n: int, points: list[list[Fraction]] | None = None):
    """Stock norm instances on coordinates 1..n: l1, linf, summing, pointcloud.

    l1: all sign-pattern functionals over all_subsets (the fully
    unconditional reference). linf: coordinate functionals. summing: partial
    sum functionals over initial segments (the classic conditional example).
    pointcloud: one functional per point row; the instance norm carries no
    sup term so that full-support evaluation is the sup over the cloud.
    """
    from unclab.norms import Functional, NormInstance
    if kind == "l1":
        fams = [Functional.from_pairs((i + 1, 1 if mask >> i & 1 else -1) for i in range(n))
                for mask in range(1 << n)]
        return NormInstance.build(n, fams, "all_subsets", True)
    if kind == "linf":
        fams = [Functional.from_pairs([(i, 1)]) for i in range(1, n + 1)]
        return NormInstance.build(n, fams, "initial_segments", True)
    if kind == "summing":
        fams = [Functional.from_pairs((i, 1) for i in range(1, m + 1))
                for m in range(1, n + 1)]
        return NormInstance.build(n, fams, "initial_segments", True)
    if kind == "pointcloud":
        fams = [Functional.from_pairs((i + 1, c) for i, c in enumerate(row)) for row in points]
        return NormInstance.build(n, fams, "initial_segments", False)
    raise ValueError(f"unknown standard instance kind {kind!r}")


class LevelSplit(NamedTuple):
    threshold_set: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    levels: int


def interval_ladder(delta: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Closed dyadic intervals [2^-j, 2^-j+1], j = 1..k, covering [delta, 1].

    k = floor(log2(1/delta)) + 1, so the lowest endpoint 2^-k is <= delta and
    each interval has max = 2 * min.
    """
    k = (delta.denominator // delta.numerator).bit_length()
    return [(Fraction(1, 2 ** j), Fraction(1, 2 ** (j - 1))) for j in range(1, k + 1)]


def level_split(a, delta: Fraction) -> LevelSplit:
    """Partition the delta-threshold set of a by dyadic coefficient size.

    Block j collects coordinates with 2^-j < |a_i| <= 2^-(j-1); with
    sup |a_i| <= 1 the blocks cover everything at or above delta. Each
    block has oscillation at most 2.
    """
    threshold = tuple(i for i, v in a.entries if abs(v) >= delta)
    av = a.as_dict()
    blocks = tuple(tuple(i for i in threshold if lo < abs(av[i]) <= hi)
                   for lo, hi in interval_ladder(delta))
    return LevelSplit(threshold, blocks, len(blocks))


def rand_sparse(rng: random.Random, dim: int, denom: int = 8,
                allow_zero: bool = False):
    while True:
        entries = [(i, Fraction(rng.randint(-denom, denom), denom))
                   for i in range(1, dim + 1)]
        v = SparseVector.from_pairs([(i, x) for i, x in entries if x != 0])
        if allow_zero or not v.is_zero():
            return v


def brute_norm(inst, v) -> Fraction:
    """||v|| from the definition, in Fractions: the sup term and f(P_E v) for
    every functional f and every E of the projection class."""
    coords = range(1, inst.dim + 1)
    if inst.projection_class == "all_subsets":
        sets = [E for r in range(inst.dim + 1) for E in combinations(coords, r)]
    elif inst.projection_class == "intervals":
        sets = [()] + [tuple(range(s, t + 1)) for s in coords for t in range(s, inst.dim + 1)]
    else:
        sets = [tuple(range(1, t + 1)) for t in range(inst.dim + 1)]
    av = v.as_dict()
    vals = [sum((c * av.get(i, 0) for i, c in f.entries if i in E), Fraction(0))
            for f in inst.functionals for E in sets]
    if inst.include_sup:
        vals.append(sup_norm(v))
    return max(vals, default=Fraction(0))


def sup_norm(v) -> Fraction:
    """max |v_i| of a SparseVector, 0 for the zero vector."""
    return max((abs(x) for _, x in v.entries), default=Fraction(0))


def restrict(v, keep):
    """P_keep v: the SparseVector v with the coordinates outside keep dropped."""
    keep = set(keep)
    return SparseVector(tuple((i, x) for i, x in v.entries if i in keep))


def verify_witness(inst, query, wit) -> Fraction:
    """Recompute a constant witness's ratio from scratch in Fractions,
    checking the mode's feasibility; a DomainError names the first failure."""
    a, E = wit.a, wit.E
    av = a.as_dict()
    mode = query.mode
    if mode in ("K", "L") and sup_norm(a) > 1:
        raise DomainError("witness violates sup bound")
    if mode in ("K", "Kprime"):
        if any(abs(av.get(i, 0)) < query.delta for i in E):
            raise DomainError("witness E leaves the threshold set")
    if mode in ("L", "Lprime"):
        if any(abs(v) < query.delta for _, v in a.entries):
            raise DomainError("witness support dips under delta")
    if mode == "quasi_greedy":
        v = wit.threshold
        expect = tuple(i for i in range(1, inst.dim + 1) if abs(av.get(i, 0)) >= v)
        if tuple(sorted(E)) != expect:
            raise DomainError("witness E is not the threshold set")
    if mode == "BOU":
        if oscillation(a, E) > query.D:
            raise DomainError("witness oscillation exceeds D")
        if schreier_decompose(a, E, query.d) is None:
            raise DomainError("witness has no admissible block split")
    if mode == "schreier" and not schreier_member(query.order, E):
        raise DomainError("witness E is not Schreier-admissible")
    if mode == "Kstar":
        f = inst.functionals[wit.point_index]
        fv = f.as_dict()
        if any(abs(fv.get(i, 0)) < query.delta for i in E):
            raise DomainError("witness E leaves the point's delta-large set")
        num = f.apply(restrict(a, E))
        den = _kstar_denominator(inst, a)
    else:
        num = eval_norm(inst, restrict(a, E))
        den = eval_norm(inst, a)
    if mode == "A":
        total = sum((abs(av.get(i, 0)) for i in E), Fraction(0))
        if query.delta * total > num:
            raise DomainError("witness fails the A-feasibility inequality")
    if mode in ("Kprime", "Lprime") and den > 1:
        raise DomainError("witness norm exceeds 1")
    if den == 0:
        raise DomainError("witness denominator vanishes")
    return num / den


def brute_miniature(layout: EltonLayout, v) -> tuple[Fraction, dict]:
    """Exhaustive family maximum for small universes.

    For every sign, shape (a, b), and subset of coordinates above b, assigns
    the shape's slot values in order to the subset's coordinates (a prefix of
    the slot sequence; shorter subsets are the slot truncations) and takes
    the best total. Half-coefficient-only candidates cover truncations that
    cut before b.

    Kept apart from structured_dp's scaling and tiling: every candidate is
    an int at the scale d * W, with d the values' common denominator and
    W = lcm(n1, n2) 2^(K N), at which the coefficients 1/2 and 1 and every
    slot value 1/(n 2^(Kb-1)), b <= N, are ints.
    """
    N = layout.universe
    vals = _dense_values(layout, v)
    p = layout.params
    d = lcm(*(x.denominator for x in vals))
    l = lcm(p.n1, p.n2)
    W = l << (p.K * N)
    best = 0
    best_wit: dict = {"kind": "zero"}
    for sigma in (1, -1):
        sv = [sigma * x.numerator * (d // x.denominator) for x in vals]
        for a in range(1, N + 1):
            if W // 2 * sv[a] > best:
                best = W // 2 * sv[a]
                best_wit = {"kind": "half_only", "a": a, "sigma": sigma}
        for a in range(1, N + 1):
            for b in range(a + 1, N + 1):
                # slot j lies in an I-run (value u1) or a J-run (u2); the runs
                # hold n1 2^(K(b-a)) and n2 2^(K(b-a)) slots
                run = 2 ** (p.K * (b - a))
                count = min(N - b, (p.n1 + p.n2) * 2 ** (p.K * b - 1))
                slots = [(l // p.n1 if j % ((p.n1 + p.n2) * run) < p.n1 * run
                          else l // p.n2) << (p.K * (N - b) + 1) for j in range(count)]
                above = sv[b + 1:]

                def rec(idx: int, slot_i: int, acc: int):
                    nonlocal best, best_wit
                    if acc > best:
                        best = acc
                        best_wit = {"kind": "shape", "a": a, "b": b,
                                    "sigma": sigma, "slots_used": slot_i}
                    if idx >= len(above) or slot_i >= len(slots):
                        return
                    rec(idx + 1, slot_i, acc)
                    rec(idx + 1, slot_i + 1, acc + slots[slot_i] * above[idx])

                rec(0, 0, W // 2 * sv[a] + W * sv[b])
    return Fraction(best, d * W), best_wit
