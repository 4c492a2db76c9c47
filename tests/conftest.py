import contextlib
import io
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import pytest

from unclab import cli
from unclab.resolutions import Resolution

FIXTURES = Path(__file__).parent / "fixtures"


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


def rand_sparse(rng: random.Random, dim: int, denom: int = 8,
                allow_zero: bool = False):
    from unclab.norms import SparseVector
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
        vals.append(v.sup_norm())
    return max(vals, default=Fraction(0))
