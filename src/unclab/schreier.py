"""Oscillation, Schreier-style admissibility, and dyadic level machinery.

A finite set E of coordinates is first-order admissible when |E| <= min E.
Second order means E splits into successive first-order blocks whose count
stays at or below min E; greedy maximal blocks decide this exactly because
a sub-block of an admissible block is admissible, so extending each block as
far as possible never increases the number of parts needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalError
from .norms import SparseVector

TWO = Fraction(2)


def oscillation(a: SparseVector, E) -> Fraction:
    """max |a_i| / min nonzero |a_j| over E; 1 when E misses the support."""
    av = a.as_dict()
    vals = [abs(av.get(i, 0)) for i in set(E)]
    nonzero = [v for v in vals if v != 0]
    if not nonzero:
        return Fraction(1)
    return max(nonzero) / min(nonzero)


def _dyadic_level_count(delta: Fraction) -> int:
    # k = floor(log2(1/delta)) + 1, exact
    if not (0 < delta <= 1):
        raise DomainError(f"delta must be in (0, 1], got {delta}")
    inv = 1 / delta
    m = 0
    while TWO ** (m + 1) <= inv:
        m += 1
    return m + 1


def interval_ladder(delta: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Closed dyadic intervals [2^-j, 2^-j+1], j = 1..k, covering [delta, 1].

    k = floor(log2(1/delta)) + 1, so the lowest endpoint 2^-k is <= delta and
    each interval has max = 2 * min.
    """
    k = _dyadic_level_count(delta)
    return [(TWO ** (-j), TWO ** (-j + 1)) for j in range(1, k + 1)]


@dataclass(frozen=True)
class LevelSplit:
    threshold_set: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    levels: int


def level_split(a: SparseVector, delta: Fraction) -> LevelSplit:
    """Partition the delta-threshold set of a by dyadic coefficient size.

    Block j collects coordinates with 2^-j < |a_i| <= 2^-(j-1); requires
    sup |a_i| <= 1 so the blocks cover everything at or above delta. Each
    block has oscillation at most 2.
    """
    if a.sup_norm() > 1:
        raise DomainError("level_split needs sup |a_i| <= 1")
    k = _dyadic_level_count(delta)
    threshold = tuple(i for i, v in a.entries if abs(v) >= delta)
    av = a.as_dict()
    blocks = []
    for j in range(1, k + 1):
        lo, hi = TWO ** (-j), TWO ** (-j + 1)
        blocks.append(tuple(i for i in threshold if lo < abs(av[i]) <= hi))
    covered = [i for b in blocks for i in b]
    if sorted(covered) != sorted(threshold):
        raise InternalError("dyadic blocks must cover the threshold set")
    return LevelSplit(threshold, tuple(blocks), k)


def schreier_member(order: int, E) -> bool:
    """Membership of E in the first or second Schreier family.

    Order 1: |E| <= min E (empty set belongs). Order 2: greedy split of E
    into successive maximal first-order blocks, member iff the block count
    is <= min E. Greedy is exact: the first block may always be grown to
    min E elements (any split's first block is no larger), and growing it
    only shrinks what remains.
    """
    E = sorted(set(E))
    if any(i < 1 for i in E):
        raise DomainError("coordinates must be >= 1")
    if not E:
        return True
    if order == 1:
        return len(E) <= E[0]
    if order == 2:
        count = 0
        pos = 0
        while pos < len(E):
            take = min(E[pos], len(E) - pos)
            pos += take
            count += 1
        return count <= E[0]
    raise DomainError(f"schreier order must be 1 or 2, got {order}")


@dataclass(frozen=True)
class SchreierDecomposition:
    blocks: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.blocks)


def schreier_decompose(a: SparseVector, E, d: Fraction) -> SchreierDecomposition | None:
    """Split E into successive blocks of oscillation <= d, greedily maximal.

    Returns None when even the minimal split needs more blocks than min E
    allows. Sub-blocks inherit the oscillation bound, so greedy maximal
    extension minimises the block count.
    """
    if d < 1:
        raise DomainError(f"block oscillation bound must be >= 1, got {d}")
    E = sorted(set(E))
    if any(i < 1 for i in E):
        raise DomainError("coordinates must be >= 1")
    if not E:
        return SchreierDecomposition(())
    blocks: list[tuple[int, ...]] = []
    current: list[int] = []
    for i in E:
        if not current:
            current = [i]
            continue
        if oscillation(a, current + [i]) <= d:
            current.append(i)
        else:
            blocks.append(tuple(current))
            current = [i]
    blocks.append(tuple(current))
    if len(blocks) > E[0]:
        return None
    return SchreierDecomposition(tuple(blocks))
