"""Oscillation and Schreier-style admissibility.

A finite set E of coordinates is first-order admissible when |E| <= min E.
Second order means E splits into successive first-order blocks whose count
stays at or below min E; greedy maximal blocks decide this exactly because
a sub-block of an admissible block is admissible, so extending each block as
far as possible never increases the number of parts needed.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .norms import SparseVector
from .record import Record


def oscillation(a: SparseVector, E) -> Fraction:
    """max |a_i| / min nonzero |a_j| over E; 1 when E misses the support."""
    av = a.as_dict()
    vals = [abs(av.get(i, 0)) for i in set(E)]
    nonzero = [v for v in vals if v != 0]
    if not nonzero:
        return Fraction(1)
    return max(nonzero) / min(nonzero)


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


class SchreierDecomposition(Record):
    blocks: tuple[tuple[int, ...], ...]


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
