"""Oscillation and Schreier admissibility, by one greedy block rule.

`_split(E, fits)` cuts sorted E into successive blocks, each extended while
`fits` holds, and gives up once the blocks outnumber min E. Its blocks are

  S_n  sets in S_{n-1}, where S_0 holds the sets of size <= 1: E is in S_n
       when it splits into at most min E successive S_{n-1} blocks, so S_1
       is |E| <= min E
  BOU  sets of oscillation <= d (schreier_decompose)

Exactness. Every singleton fits, and each family of blocks is hereditary:
oscillation, a max/min, does not grow on a subset, and a subset F of E in
S_n takes E's blocks cut to F, still in S_{n-1} by induction and at most
min E <= min F of them. Take any split B_1 < ... < B_k of E into fitting
blocks. Every prefix of B_1 fits, so the greedy first block contains B_1
and leaves a final segment R of what B_1 leaves; B_2, ..., B_k cut to R
still fit, so R needs at most k - 1 blocks. By induction on |E|, greedy
needs the fewest blocks.

Bounded recursion. S_n grows with n (S_0 is in S_1, and a split into
S_{n-1} blocks is one into S_n blocks), and for n >= |E|, E is in S_n
exactly when min E >= 2 or |E| <= 1. If |E| <= 1, E is in S_0. If min E = 1
and |E| >= 2, E is its own one block, so it must lie in S_{n-1}, and so on
down to S_0, which fails. If min E >= 2 and 2 <= |E| <= n, the blocks
{min E} and the rest R (min R >= 2, |R| <= n - 1, so R is in S_{n-1} by
induction) are two, at most min E. So the test at n >= |E| is the test at
|E|: `schreier_member` clamps the order at |E| and recurses at most |E|
deep.

Coefficients come as a sequence x with x[i - 1] at coordinate i, and only
ratios of |x_i| are read, so the grid in constants.py passes its int
lattice point as it is.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .rationals import _coords
from .record import Record


def _split(E: tuple[int, ...], fits) -> list[tuple[int, ...]] | None:
    """Sorted E's successive blocks, each extended while fits holds, or None
    once they outnumber min E. Every singleton must fit."""
    blocks: list[tuple[int, ...]] = []
    for i in E:
        if blocks and fits(blocks[-1] + (i,)):
            blocks[-1] += (i,)
        elif len(blocks) == E[0]:
            return None
        else:
            blocks.append((i,))
    return blocks


@lru_cache(maxsize=4096)
def _member(order: int, E: tuple[int, ...]) -> bool:
    """E in S_order, for order <= |E|. The greedy asks about runs of E at
    every lower order, whose count grows exponentially with |E| uncached;
    4096 entries hold every (order, run) of a set of up to 27 coordinates."""
    if order == 0:
        return len(E) <= 1
    return _split(E, lambda block: _member(min(order - 1, len(block)), block)) is not None


def schreier_member(order: int, E) -> bool:
    """Membership of E in the Schreier family S_order, order >= 1 (the empty
    set belongs to each)."""
    if order < 1:
        raise DomainError(f"schreier order must be >= 1, got {order}")
    E = _coords(E)
    return _member(min(order, len(E)), E)


def oscillation(x, E) -> Fraction:
    """max |x_i| / min nonzero |x_i| over i in E; 1 when E misses x's support."""
    mags = [abs(x[i - 1]) for i in set(E) if x[i - 1]]
    return Fraction(max(mags), min(mags)) if mags else Fraction(1)


class SchreierDecomposition(Record):
    blocks: tuple[tuple[int, ...], ...]


def schreier_decompose(x, E, d: Fraction) -> SchreierDecomposition | None:
    """E's fewest successive blocks of oscillation <= d under x, greedily
    maximal; None when they outnumber min E."""
    if d < 1:
        raise DomainError(f"block oscillation bound must be >= 1, got {d}")
    blocks = _split(_coords(E), lambda block: oscillation(x, block) <= d)
    return None if blocks is None else SchreierDecomposition(tuple(blocks))
