import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (brute_decompose_count, brute_member, brute_oscillation, dense,
                      interval_ladder, level_split, rand_sparse)
from unclab.errors import DomainError
from unclab.norms import SparseVector
from unclab.schreier import oscillation, schreier_decompose, schreier_member

H = Fraction(1, 2)


def vec(pairs):
    return SparseVector.from_pairs((i, Fraction(v)) for i, v in pairs)


def test_oscillation():
    # a sequence x with x[i - 1] at coordinate i, zeros at 4..6
    a = [H, Fraction(1, 8), -1, 0, 0, 0]
    assert oscillation(a, [1, 2]) == 4
    assert oscillation(a, [1, 3]) == 2
    assert oscillation(a, [2]) == 1
    assert oscillation(a, [5, 6]) == 1  # off-support convention
    assert oscillation(a, []) == 1
    # only ratios are read: the int point 8a has a's oscillations
    assert oscillation([4, 1, -8], [1, 2]) == 4


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
        delta = Fraction(rng.randint(1, 32), 32)
        split = level_split(a, delta)
        threshold = tuple(i for i, v in a.entries if abs(v) >= delta)
        assert split.threshold_set == threshold
        covered = sorted(i for b in split.blocks for i in b)
        assert covered == sorted(threshold)
        for block in split.blocks:
            if block:
                assert oscillation(dense(a, 6), block) <= 2


def test_schreier_member_order1():
    assert schreier_member(1, [])
    assert schreier_member(1, [3, 4, 5])
    assert not schreier_member(1, [2, 3, 4])
    assert schreier_member(1, [1])
    assert not schreier_member(1, [1, 2])
    with pytest.raises(DomainError):
        schreier_member(1, [0, 1])
    with pytest.raises(DomainError):
        schreier_member(0, [1])


def test_schreier_member_exhaustive():
    checks, differ = 0, []
    for size in range(0, 11):
        for E in combinations(range(1, 11), size):
            members = [schreier_member(order, E) for order in (1, 2, 3)]
            assert members == [brute_member(order, E) for order in (1, 2, 3)], E
            checks += 3
            if members[1] != members[2]:
                differ.append(E)
    assert checks == 3 * 2 ** 10
    # S_2 and S_3 first differ on sets that reach coordinate 8
    assert len(differ) == 24 and all(max(E) >= 8 for E in differ)
    # {2..8} needs 3 blocks of S_1 ({2, 3}, {4..7}, {8}), but 2 of S_2
    assert not schreier_member(2, range(2, 9))
    assert schreier_member(3, range(2, 9))


def test_schreier_families_nest():
    # S_n is inside S_{n+1}
    for size in range(0, 9):
        for E in combinations(range(1, 9), size):
            members = [schreier_member(order, E) for order in range(1, 6)]
            assert members == sorted(members), E


def test_schreier_member_clamp_law():
    # at every order >= |E|, E belongs exactly when min E >= 2 or |E| <= 1
    for size in range(0, 8):
        for E in combinations(range(1, 8), size):
            law = size <= 1 or E[0] >= 2
            for order in range(max(size, 1), size + 3):
                assert schreier_member(order, E) == law, (order, E)
    assert schreier_member(5000, (2, 3, 4))
    assert not schreier_member(10 ** 6, (1, 2))


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
    a = [0, 1, H, Fraction(1, 8), Fraction(1, 16)]
    dec = schreier_decompose(a, [2, 3, 4, 5], Fraction(2))
    assert dec is not None
    assert dec.blocks == ((2, 3), (4, 5))
    assert len(dec.blocks) == 2
    # four distinct magnitudes at d=1 need four blocks, but min E = 2
    assert schreier_decompose(a, [2, 3, 4, 5], Fraction(1)) is None
    b = [0, 0, 0, 1, H, Fraction(1, 8), Fraction(1, 16)]
    fine = schreier_decompose(b, [4, 5, 6, 7], Fraction(1))
    assert fine is not None and len(fine.blocks) == 4
    tight = schreier_decompose([1, Fraction(1, 4)], [1, 2], Fraction(2))
    assert tight is None
    # the int point 16a splits as a does
    assert schreier_decompose([0, 16, 8, 2, 1], [2, 3, 4, 5], Fraction(2)) == dec
    with pytest.raises(DomainError):
        schreier_decompose(a, [2, 3], Fraction(1, 2))


def test_schreier_decompose_greedy_optimal_seeded():
    rng = random.Random(17)
    for _ in range(200):
        dim = rng.randint(1, 8)
        a = rand_sparse(rng, dim, denom=16, allow_zero=True)
        lo = rng.randint(1, 4)
        E = sorted(rng.sample(range(lo, lo + 10), min(rng.randint(1, 8), 10)))
        x = dense(a, lo + 9)
        d = Fraction(rng.randint(1, 8))
        dec = schreier_decompose(x, E, d)
        best = brute_decompose_count(a, E, d)
        assert oscillation(x, E) == brute_oscillation(a, E)
        if dec is None:
            assert best is None or best > min(E)
        else:
            assert best == len(dec.blocks)
            for block in dec.blocks:
                assert oscillation(x, block) <= d
            flat = [i for b in dec.blocks for i in b]
            assert flat == sorted(E)


def test_empty_decompose():
    dec = schreier_decompose([], [], Fraction(2))
    assert dec is not None and dec.blocks == ()
