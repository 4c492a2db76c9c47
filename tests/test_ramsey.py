"""Prefix-continuous matchings and hereditary colour families."""

import itertools
import random

import pytest

from unclab import serialize as ser
from unclab.errors import DomainError, SchemaError, SizeError
from unclab.ramsey import (
    ColourFamily,
    MatchingWitness,
    PrefixContinuousMap,
    is_initial_segment,
    remark_family,
    restrict_pattern,
    search_matching,
    validate_matching,
    weakly_hereditary,
)


def identity_map(universe, depth):
    # each prefix maps to itself as the single component
    return PrefixContinuousMap.from_dict(depth, {
        p: (frozenset(p),)
        for p in itertools.combinations(range(1, universe + 1), depth)})


@pytest.fixture
def map_a(fixtures):
    return ser.load_prefix_map(ser.read_json_file(str(fixtures / "map_family_a.json")))


@pytest.fixture
def map_b(fixtures):
    return ser.load_prefix_map(ser.read_json_file(str(fixtures / "map_family_b.json")))


# ------------------------------------------------------------- map invariants

def test_map_construction_errors():
    with pytest.raises(DomainError):
        PrefixContinuousMap(0, 1, ())
    with pytest.raises(DomainError):
        PrefixContinuousMap(1, 0, ())
    with pytest.raises(DomainError):  # unsorted prefix
        PrefixContinuousMap(2, 1, (((2, 1), (frozenset(),)),))
    with pytest.raises(DomainError):  # duplicate prefix
        PrefixContinuousMap(1, 1, (((1,), (frozenset(),)), ((1,), (frozenset(),))))
    with pytest.raises(DomainError):  # component count mismatch
        PrefixContinuousMap(1, 2, (((1,), (frozenset(),)),))
    with pytest.raises(DomainError):  # F leaves the prefix
        PrefixContinuousMap(2, 1, (((1, 2), (frozenset({3}),)),))
    with pytest.raises(DomainError):  # components out of order
        PrefixContinuousMap(2, 2, (((1, 2), (frozenset({2}), frozenset({1}))),))
    with pytest.raises(DomainError):
        PrefixContinuousMap.from_dict(1, {})
    # empty components may interleave anywhere
    PrefixContinuousMap(2, 3, (((1, 2), (frozenset({1}), frozenset(), frozenset({2}))),))


def test_map_missing_prefixes():
    pmap = identity_map(4, 2)
    small = PrefixContinuousMap.from_dict(2, {(1, 2): (frozenset({1}),)})
    assert len(small.missing_prefixes(4)) == 5
    assert pmap.missing_prefixes(4) == []


def test_is_initial_segment():
    assert is_initial_segment((), (1, 2))
    assert is_initial_segment((1, 2), (1, 2))
    assert is_initial_segment({2, 1}, (1, 2, 7))
    assert not is_initial_segment((2,), (1, 2))
    assert not is_initial_segment((1, 2, 3), (1, 2))


# ---------------------------------------------------------- matching validity

def validate_matching_data(L, M, FL, FM) -> dict:
    return validate_matching(MatchingWitness(
        tuple(L), tuple(M), tuple(map(frozenset, FL)), tuple(map(frozenset, FM))))


def test_validate_matching_basic():
    ok = validate_matching_data(
        L=(1, 2, 3, 5), M=(1, 2, 4, 6),
        FL=[{1, 2}], FM=[{1, 2}])
    assert ok["ok"] and ok["failures"] == []
    # not initial-segment comparable
    bad = validate_matching_data(L=(1, 2), M=(2, 3), FL=[{2}], FM=[{3}])
    assert not bad["ok"]
    assert any("comparable" in f for f in bad["failures"])
    # overlap not glued: 2 is shared but appears in neither component overlap
    bad = validate_matching_data(L=(1, 2), M=(2, 3), FL=[{1}], FM=[{3}])
    assert not bad["ok"]
    assert any("overlap" in f for f in bad["failures"])
    # component leaves its set
    bad = validate_matching_data(L=(1,), M=(1,), FL=[{2}], FM=[{1}])
    assert not bad["ok"]
    with pytest.raises(DomainError):
        validate_matching(MatchingWitness((1,), (1,), (frozenset(),), ()))


def test_matching_fixtures(fixtures):
    for sign, expect in (("pos", True), ("neg", False)):
        for i in range(1, 11):
            d = ser.read_json_file(str(fixtures / "matching" / f"{sign}_{i:02d}.json"))
            res = validate_matching_data(d["L"], d["M"], d["FL"], d["FM"])
            assert res["ok"] is expect, f"{sign}_{i:02d}"
            assert (res["failures"] == []) is expect


# -------------------------------------------------------------------- search

def test_search_family_a_frozen(map_a):
    rep = search_matching(map_a, 12, horizon=4)
    assert rep["found"] is True
    assert rep["witness"].L == (1, 2, 3, 4)
    assert rep["witness"].M == (1, 2, 5, 6, 7, 8, 9, 10, 11, 12)
    assert rep["checked"] == 1
    assert rep["horizon"] == 4
    assert rep["determinacy"] == {"model": "fixed_depth", "depth": 2}
    assert "inconclusive" in rep["note"]
    assert validate_matching(rep["witness"])["ok"]
    # default horizon is the map depth
    rep = search_matching(map_a, 12)
    assert rep["horizon"] == 2
    assert rep["witness"].L == (1, 2)
    assert rep["witness"].M == tuple(range(1, 13))
    assert rep["checked"] == 1


def test_search_family_b_frozen(map_b):
    rep = search_matching(map_b, 12, horizon=4)
    assert rep["found"] is True
    assert rep["witness"].L == (1, 2, 3, 4)
    assert rep["witness"].M == (1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12)
    assert rep["checked"] == 1
    assert validate_matching(rep["witness"])["ok"]


def test_search_reported_pair_from_small_universe(map_a):
    # the classic small example for the one-component prefix map: shared
    # leading block, disjoint continuations
    L, M = (1, 2, 3, 5), (1, 2, 4, 6)
    table = dict(map_a.entries)
    w = MatchingWitness(L, M, table[L[:map_a.depth]], table[M[:map_a.depth]])
    assert validate_matching(w)["ok"]


def test_search_constant_and_pointer_maps():
    # pointer map: every singleton prefix points at itself; the first probe
    # already glues
    rep = search_matching(identity_map(6, 1), 6)
    assert rep["found"] and rep["checked"] == 1
    # constant map: prefix ignored entirely, empty component everywhere;
    # any L, M with disjoint... overlap must be empty, so M completes away
    # from L
    const = PrefixContinuousMap.from_dict(
        1, {(u,): (frozenset(),) for u in range(1, 7)})
    rep = search_matching(const, 6, horizon=2)
    assert rep["found"]
    w = rep["witness"]
    assert set(w.L) & set(w.M) == set()


def test_search_random_strategy(map_a):
    rep = search_matching(map_a, 12, horizon=4, strategy="random", seed=3)
    assert rep["found"] is True
    assert rep["seed"] == 3
    assert rep["checked"] == 87
    assert validate_matching(rep["witness"])["ok"]
    again = search_matching(map_a, 12, horizon=4, strategy="random", seed=3)
    assert again["witness"] == rep["witness"]
    with pytest.raises(DomainError):
        search_matching(map_a, 12, strategy="random")
    with pytest.raises(DomainError):
        search_matching(map_a, 12, strategy="simulated_annealing")


def test_search_guards(map_a):
    rep = search_matching(map_a, 12, horizon=13)
    assert rep["found"] is False and rep["witness"] is None
    assert rep["checked"] == 0
    assert "inconclusive" in rep["note"]
    partial = PrefixContinuousMap.from_dict(2, {(1, 2): (frozenset({1}),)})
    with pytest.raises(SchemaError):
        search_matching(partial, 4)
    with pytest.raises(SizeError):
        search_matching(identity_map(4, 1), 40)  # over the match cap


# -------------------------------------------------------------- colour families

def test_pattern_helpers():
    p = frozenset({(1, 2), (2, 1), (5, 2)})
    assert restrict_pattern(p, {1, 5}) == frozenset({(1, 2), (5, 2)})
    assert restrict_pattern(p, range(10, 20)) == frozenset()
    with pytest.raises(DomainError):
        ColourFamily(k=1, universe=3, members=(frozenset({(4, 1)}),))
    with pytest.raises(DomainError):
        ColourFamily(k=1, universe=3, members=(frozenset({(2, 2)}),))


def test_remark_family_frozen():
    fam = remark_family(12)
    assert fam.k == 2 and fam.universe == 12
    # 220 full patterns + 55 + 10 truncations + the empty pattern
    assert len(fam.members) == 286
    members = set(fam.members)
    assert frozenset() in members
    assert frozenset({(1, 2), (2, 1), (3, 2)}) in members
    # truncations keep the leading colours: dropping the first entry of a
    # member does not produce a member
    assert frozenset({(2, 1), (3, 2)}) not in members
    # all defined truncations of every member are members
    for m in members:
        items = sorted(m)
        for t in range(len(items)):
            assert frozenset(items[:t]) in members
    with pytest.raises(DomainError):
        remark_family(12, m1=2, m2=2)
    with pytest.raises(SizeError):
        remark_family(21)


def test_weakly_hereditary_frozen_violations():
    fam = remark_family(12)
    wk = weakly_hereditary(fam, mode="weakly")
    assert wk["hereditary"] is False
    assert wk["violation"]["a"] == frozenset({(2, 1)})
    assert wk["violation"]["b"] == frozenset({(1, 2), (2, 1)})
    assert wk["violation"]["colour"] == 1
    assert wk["checked"] == 11
    hd = weakly_hereditary(fam, mode="hereditary")
    assert hd["hereditary"] is False
    assert hd["violation"]["a"] == frozenset({(2, 1)})
    assert hd["violation"]["b"] == frozenset({(1, 2), (2, 1)})
    assert hd["violation"]["colour"] is None
    assert hd["checked"] == 12
    # restriction to an M keeps the same early failure shape
    sub = weakly_hereditary(fam, M=range(2, 13), mode="hereditary")
    assert sub["hereditary"] is False
    with pytest.raises(DomainError):
        weakly_hereditary(fam, mode="strongly")


def test_weakly_hereditary_positive_families():
    # full power set of colourings of {1, 2} with one colour, empty included
    members = [frozenset(s) for s in
               ({}, {(1, 1)}, {(2, 1)}, {(1, 1), (2, 1)})]
    fam = ColourFamily(k=1, universe=2, members=tuple(members))
    assert weakly_hereditary(fam, mode="hereditary")["hereditary"] is True
    assert weakly_hereditary(fam, mode="weakly")["hereditary"] is True
    lone = ColourFamily(k=1, universe=2, members=(frozenset(),))
    assert weakly_hereditary(lone, mode="weakly")["hereditary"] is True


def test_hereditary_closure_implies_weakly():
    # closing random families under subset-of-support always yields a
    # hereditary family, and hereditary implies weakly hereditary
    rng = random.Random(4)
    for _ in range(10):
        universe, k = 6, 2
        seedlings = []
        for _ in range(rng.randint(1, 4)):
            support = rng.sample(range(1, universe + 1), rng.randint(0, 4))
            seedlings.append(frozenset(
                (e, rng.randint(1, k)) for e in support))
        closed = set()
        for s in seedlings:
            items = sorted(s)
            for r in range(len(items) + 1):
                for T in itertools.combinations(items, r):
                    closed.add(frozenset(T))
        fam = ColourFamily(k=k, universe=universe, members=tuple(closed))
        assert weakly_hereditary(fam, mode="hereditary")["hereditary"] is True
        assert weakly_hereditary(fam, mode="weakly")["hereditary"] is True


# -------------------------------------------------------------------- loaders

def test_load_prefix_map_round_trip(map_a):
    assert map_a.depth == 2 and map_a.components == 1
    assert len(map_a.entries) == 66
    data = {"depth": 2, "entries": [
        {"prefix": list(p), "F": [sorted(f) for f in fs]}
        for p, fs in map_a.entries]}
    again = ser.load_prefix_map(data)
    assert again == map_a
    with pytest.raises(SchemaError):
        ser.load_prefix_map({"depth": 2, "entries": [
            {"prefix": [1, 2], "F": [[1]]}, {"prefix": [1, 2], "F": [[2]]}]})
    with pytest.raises(SchemaError):
        ser.load_prefix_map({"depth": 2, "entries": [{"prefix": [1, 2], "F": []}]})
    with pytest.raises(SchemaError):  # F leaves prefix: construction error
        ser.load_prefix_map({"depth": 2, "entries": [{"prefix": [1, 2], "F": [[7]]}]})
    with pytest.raises(SchemaError):
        ser.load_prefix_map({"entries": []})
