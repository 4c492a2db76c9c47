import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (brute_decompose_count, brute_member, brute_oscillation, interval_ladder,
                      level_split, rand_sparse, sup_norm)
from unclab.errors import DomainError
from unclab.norms import SparseVector
from unclab.schreier import oscillation, schreier_decompose, schreier_member

H = Fraction(1, 2)


def vec(pairs):
    return SparseVector.from_pairs((i, Fraction(v)) for i, v in pairs)


def test_oscillation():
    a = vec([(1, H), (2, Fraction(1, 8)), (3, -1)])
    assert oscillation(a, [1, 2]) == 4
    assert oscillation(a, [1, 3]) == 2
    assert oscillation(a, [2]) == 1
    assert oscillation(a, [5, 6]) == 1  # off-support convention
    assert oscillation(a, []) == 1


def test_interval_ladder():
    ladder = interval_ladder(Fraction(1, 5))
    assert ladder == [(H, Fraction(1)), (Fraction(1, 4), H),
                      (Fraction(1, 8), Fraction(1, 4))]
    assert ladder[0][1] == 1
    assert ladder[-1][0] <= Fraction(1, 5)


def test_interval_ladder_seeded():
    rng = random.Random(9)
    for _ in range(100):
        delta = Fraction(rng.randint(1, 64), 64)
        ladder = interval_ladder(delta)
        assert ladder[0][1] == 1
        assert ladder[-1][0] <= delta
        for lo, hi in ladder:
            assert hi == 2 * lo
        for (lo, _), (lo2, hi2) in zip(ladder, ladder[1:]):
            assert hi2 == lo


def test_level_split_frozen():
    a = vec([(1, 1), (2, H), (3, Fraction(1, 3)), (4, Fraction(1, 10))])
    split = level_split(a, Fraction(1, 4))
    assert split.threshold_set == (1, 2, 3)
    assert split.levels == 3
    # strict lower ends: 1/2 sits in the second rung, not the first
    assert split.blocks == ((1,), (2, 3), ())


def test_level_split_seeded():
    rng = random.Random(21)
    for _ in range(200):
        a = rand_sparse(rng, 6, denom=32)
        a = a.scale(Fraction(1, max(1, sup_norm(a))))
        delta = Fraction(rng.randint(1, 32), 32)
        split = level_split(a, delta)
        threshold = tuple(i for i, v in a.entries if abs(v) >= delta)
        assert split.threshold_set == threshold
        covered = sorted(i for b in split.blocks for i in b)
        assert covered == sorted(threshold)
        for block in split.blocks:
            if block:
                assert oscillation(a, block) <= 2


def test_schreier_member_order1():
    assert schreier_member(1, [])
    assert schreier_member(1, [3, 4, 5])
    assert not schreier_member(1, [2, 3, 4])
    assert schreier_member(1, [1])
    assert not schreier_member(1, [1, 2])
    with pytest.raises(DomainError):
        schreier_member(1, [0, 1])
    with pytest.raises(DomainError):
        schreier_member(3, [1])


def test_schreier_member2_exhaustive():
    universe = list(range(1, 10))
    for size in range(0, 9):
        for E in combinations(universe, size):
            for order in (1, 2):
                assert schreier_member(order, E) == brute_member(order, E)


def test_schreier_member2_bell_cross_check():
    # disjoint covers (not necessarily successive) never beat successive
    # splits: exhaustive set-partition check on small sets
    def parts(xs):
        if not xs:
            yield []
            return
        first, rest = xs[0], xs[1:]
        for p in parts(rest):
            for i in range(len(p)):
                yield p[:i] + [[first] + p[i]] + p[i + 1:]
            yield [[first]] + p

    rng = random.Random(3)
    for _ in range(40):
        size = rng.randint(1, 6)
        E = sorted(rng.sample(range(1, 12), size))
        ok_disjoint = any(
            all(len(b) <= min(b) for b in p) and len(p) <= E[0]
            for p in parts(E))
        assert schreier_member(2, E) == ok_disjoint


def test_schreier_decompose_frozen():
    a = vec([(2, 1), (3, H), (4, Fraction(1, 8)), (5, Fraction(1, 16))])
    dec = schreier_decompose(a, [2, 3, 4, 5], Fraction(2))
    assert dec is not None
    assert dec.blocks == ((2, 3), (4, 5))
    assert len(dec.blocks) == 2
    # four distinct magnitudes at d=1 need four blocks, but min E = 2
    assert schreier_decompose(a, [2, 3, 4, 5], Fraction(1)) is None
    b = vec([(4, 1), (5, H), (6, Fraction(1, 8)), (7, Fraction(1, 16))])
    fine = schreier_decompose(b, [4, 5, 6, 7], Fraction(1))
    assert fine is not None and len(fine.blocks) == 4
    tight = schreier_decompose(vec([(1, 1), (2, Fraction(1, 4))]), [1, 2], Fraction(2))
    assert tight is None
    with pytest.raises(DomainError):
        schreier_decompose(a, [2, 3], Fraction(1, 2))


def test_schreier_decompose_greedy_optimal_seeded():
    rng = random.Random(17)
    for _ in range(200):
        dim = rng.randint(1, 8)
        a = rand_sparse(rng, dim, denom=16, allow_zero=True)
        lo = rng.randint(1, 4)
        E = sorted(rng.sample(range(lo, lo + 10), min(rng.randint(1, 8), 10)))
        d = Fraction(rng.randint(1, 8))
        dec = schreier_decompose(a, E, d)
        best = brute_decompose_count(a, E, d)
        assert oscillation(a, E) == brute_oscillation(a, E)
        if dec is None:
            assert best is None or best > min(E)
        else:
            assert best == len(dec.blocks)
            for block in dec.blocks:
                assert oscillation(a, block) <= d
            flat = [i for b in dec.blocks for i in b]
            assert flat == sorted(E)


def test_empty_decompose():
    dec = schreier_decompose(SparseVector.zero(), [], Fraction(2))
    assert dec is not None and dec.blocks == ()
