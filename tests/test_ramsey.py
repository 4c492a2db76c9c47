"""Prefix-continuous matchings and hereditary colour families."""

import itertools
import random

import pytest

from unclab import ramsey
from unclab import serialize as ser
from unclab.errors import DomainError, SchemaError, SizeError
from unclab.ramsey import (
    MatchingWitness,
    PrefixContinuousMap,
    is_initial_segment,
    remark_checks,
    remark_family,
    search_matching,
    validate_matching,
    weakly_hereditary,
)


def identity_map(universe, depth):
    # each prefix maps to itself as the single component
    return PrefixContinuousMap(depth, 1, {
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
        PrefixContinuousMap(0, 1, {})
    with pytest.raises(DomainError):
        PrefixContinuousMap(1, 0, {})
    with pytest.raises(DomainError):  # unsorted prefix
        PrefixContinuousMap(2, 1, {(2, 1): (frozenset(),)})
    with pytest.raises(DomainError):  # component count mismatch
        PrefixContinuousMap(1, 2, {(1,): (frozenset(),)})
    with pytest.raises(DomainError):  # F leaves the prefix
        PrefixContinuousMap(2, 1, {(1, 2): (frozenset({3}),)})
    with pytest.raises(DomainError):  # components out of order
        PrefixContinuousMap(2, 2, {(1, 2): (frozenset({2}), frozenset({1}))})
    # a duplicate prefix and an empty table are refused by the loader, which
    # builds the table
    with pytest.raises(SchemaError, match="^map: empty map table$"):
        ser.load_prefix_map({"depth": 1, "entries": []})
    # empty components may interleave anywhere
    PrefixContinuousMap(2, 3, {(1, 2): (frozenset({1}), frozenset(), frozenset({2}))})


def test_map_missing_prefixes():
    pmap = identity_map(4, 2)
    small = PrefixContinuousMap(2, 1, {(1, 2): (frozenset({1}),)})
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
    rep = search_matching(map_a, 12, None)
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
    w = MatchingWitness(L, M, map_a.table[L[:map_a.depth]], map_a.table[M[:map_a.depth]])
    assert validate_matching(w)["ok"]


def test_search_constant_and_pointer_maps():
    # pointer map: every singleton prefix points at itself; the first probe
    # already glues
    rep = search_matching(identity_map(6, 1), 6, None)
    assert rep["found"] and rep["checked"] == 1
    # constant map: prefix ignored entirely, empty component everywhere;
    # any L, M with disjoint... overlap must be empty, so M completes away
    # from L
    const = PrefixContinuousMap(1, 1, {(u,): (frozenset(),) for u in range(1, 7)})
    rep = search_matching(const, 6, horizon=2)
    assert rep["found"]
    w = rep["witness"]
    assert set(w.L) & set(w.M) == set()


def test_search_guards(map_a):
    rep = search_matching(map_a, 12, horizon=13)
    assert rep["found"] is False and rep["witness"] is None
    assert rep["checked"] == 0
    assert "inconclusive" in rep["note"]
    partial = PrefixContinuousMap(2, 1, {(1, 2): (frozenset({1}),)})
    with pytest.raises(SchemaError):
        search_matching(partial, 4, None)
    with pytest.raises(SizeError):
        search_matching(identity_map(4, 1), 40, None)  # over the match cap


def test_search_cap_counts_pairs(monkeypatch):
    def no_mask(*args):
        raise AssertionError("a refused scan masked a block")

    # 2^13 C(13, 6) = 14 057 472 (L, block) pairs exceed the default 10^7:
    # refused before the prefix check, so a partial map gets the SizeError,
    # and before the scan masks a block
    monkeypatch.setattr(ramsey, "_mask", no_mask)
    full = PrefixContinuousMap(6, 1, {
        p: (frozenset(),) for p in itertools.combinations(range(1, 14), 6)})
    partial = PrefixContinuousMap(6, 1, {(1, 2, 3, 4, 5, 6): (frozenset(),)})
    for pmap in (full, partial):
        with pytest.raises(SizeError, match="match_pairs: .* = 14057472 exceeds cap 10000000"):
            search_matching(pmap, 13, horizon=7)
    with pytest.raises(DomainError, match="universe must be >= 0"):
        search_matching(full, -3, None)
    monkeypatch.undo()
    # the cap is exact: 2^6 C(6, 2) = 960 pairs
    pmap = identity_map(6, 2)
    monkeypatch.setenv("UNCLAB_CAPS", "match_pairs=959")
    with pytest.raises(SizeError):
        search_matching(pmap, 6, None)
    monkeypatch.setenv("UNCLAB_CAPS", "match_pairs=960")
    assert search_matching(pmap, 6, None)["found"]


def ref_search_matching(pmap, universe, horizon):
    # the set-based scan: every (L, P) pair in the library's order, the tail
    # built from Python sets and each candidate pair checked with
    # validate_matching; returns (found, witness, checked)
    d = pmap.depth
    h = max(d, horizon)
    table = pmap.table
    prefixes = list(itertools.combinations(range(1, universe + 1), d))

    def try_pair(L, FL, P):
        FM = table[P]
        S = set()
        for a, b in zip(FL, FM):
            S |= set(a) & set(b)
        Lset, Pset, top = set(L), set(P), P[-1]
        if {s for s in S if s <= top} != (Pset & Lset):
            return None
        S_high = {s for s in S if s > top}
        if not S_high <= Lset:
            return None
        tail = S_high | {u for u in range(top + 1, universe + 1) if u not in Lset}
        M = tuple(sorted(Pset | tail))
        if len(M) < h or set(M) == Lset:
            return None
        wit = MatchingWitness(L, M, FL, FM)
        return wit if validate_matching(wit)["ok"] else None

    checked = 0
    for mask in range(1 << universe):
        L = tuple(c for c in range(1, universe + 1) if mask >> (c - 1) & 1)
        if len(L) < h:
            continue
        for P in prefixes:
            checked += 1
            wit = try_pair(L, table[L[:d]], P)
            if wit is not None:
                return True, wit, checked
    return False, None, checked


def random_prefix_map(rng, universe, depth, components):
    # each prefix is cut into `components` successive blocks (some empty
    # when there are more components than elements) and F_j is a random
    # nonempty subset of block j
    table = {}
    for P in itertools.combinations(range(1, universe + 1), depth):
        cuts = sorted(rng.choices(range(depth + 1), k=components - 1))
        blocks = [P[lo:hi] for lo, hi in zip([0] + cuts, cuts + [depth])]
        table[P] = tuple(frozenset(rng.sample(b, rng.randint(1, len(b))) if b else ())
                         for b in blocks)
    return PrefixContinuousMap(depth, components, table)


def test_search_equals_set_based_reference():
    rng = random.Random("bitmask-match")
    outcomes = set()
    for _ in range(48):
        universe, depth = rng.randint(5, 9), rng.randint(1, 3)
        pmap = random_prefix_map(rng, universe, depth, rng.randint(1, 3))
        horizon = rng.randint(depth, universe)
        got = search_matching(pmap, universe, horizon=horizon)
        want = ref_search_matching(pmap, universe, horizon)
        assert (got["found"], got["witness"], got["checked"]) == want
        assert got["strategy"] == "exhaustive"
        outcomes.add(got["found"])
    assert outcomes == {True, False}


# -------------------------------------------------------------- colour families

def test_remark_family_is_canonical_without_a_sort():
    # the family built as a set of frozensets and sorted by (size, sorted
    # entries), the construction it replaces, gives the same patterns in the
    # same order, each a tuple of (element, colour) pairs sorted by element
    for universe in range(0, 11):
        for m1, m2 in ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4)):
            width = m2 + 1
            colours = [2] + [1] * m1 + [2] * (m2 - m1)
            ref = {frozenset(zip(support, colours))
                   for t in range(width + 1)
                   for support in itertools.combinations(range(1, universe + 1), t)
                   if universe >= width and universe - max(support, default=0) >= width - t}
            ref = [tuple(sorted(p)) for p in sorted(ref, key=lambda p: (len(p), sorted(p)))]
            assert list(remark_family(universe, m1, m2)) == ref, (universe, m1, m2)


def test_remark_checks_bound_every_closure_check():
    # C(u + 1, m2 + 1) patterns, none longer than m2 + 1 entries, so at most
    # 2^(m2 + 1) candidate restrictions each, in either mode
    for universe, m1, m2 in ((0, 1, 2), (2, 1, 2), (3, 1, 2), (12, 1, 2), (14, 1, 3),
                             (9, 2, 4), (8, 3, 7)):
        fam = remark_family(universe, m1, m2)
        checks = remark_checks(universe, m1, m2)
        assert checks == len(fam) << (m2 + 1), (universe, m1, m2)
        for mode, M in itertools.product(("hereditary", "weakly"), (None, range(2, 9))):
            assert weakly_hereditary(fam, M, mode=mode)["checked"] <= checks
    # where no full pattern fits the family is empty, and building it
    # makes no colour tuple; a huge request counts past every cap at once
    assert remark_checks(5, 1, 10 ** 6) == 0 and remark_family(5, 1, 10 ** 6) == ()
    for universe, m2 in ((10 ** 4000, 2), (40_000, 20_000), (10 ** 9, 10 ** 9 - 1)):
        assert remark_checks(universe, 1, m2) >> 15_000


def test_remark_family_frozen():
    fam = remark_family(12, 1, 2)
    # 220 full patterns + 55 + 10 truncations + the empty pattern, in
    # canonical order: by size, then by sorted entries
    assert len(fam) == 286
    assert fam == tuple(sorted(fam, key=lambda m: (len(m), m)))
    assert all(list(m) == sorted(m) for m in fam)
    assert {c for m in fam for _, c in m} == {1, 2}
    assert {e for m in fam for e, _ in m} == set(range(1, 13))
    members = set(fam)
    assert () in members
    assert ((1, 2), (2, 1), (3, 2)) in members
    # truncations keep the leading colours: dropping the first entry of a
    # member does not produce a member
    assert ((2, 1), (3, 2)) not in members
    # all defined truncations of every member are members
    for m in members:
        for t in range(len(m)):
            assert m[:t] in members
    with pytest.raises(DomainError):
        remark_family(12, 2, 2)
    with pytest.raises(DomainError, match=r"^universe must be >= 0, got -1$"):
        remark_family(-1, 1, 2)
    assert remark_family(0, 1, 2) == ()


def test_weakly_hereditary_frozen_violations():
    fam = remark_family(12, 1, 2)
    wk = weakly_hereditary(fam, None, mode="weakly")
    assert wk["hereditary"] is False
    assert wk["violation"]["a"] == ((2, 1),)
    assert wk["violation"]["b"] == ((1, 2), (2, 1))
    assert wk["violation"]["colour"] == 1
    assert wk["checked"] == 11
    hd = weakly_hereditary(fam, None, mode="hereditary")
    assert hd["hereditary"] is False
    assert hd["violation"]["a"] == ((2, 1),)
    assert hd["violation"]["b"] == ((1, 2), (2, 1))
    assert hd["violation"]["colour"] is None
    assert hd["checked"] == 12
    # restriction to an M keeps the same early failure shape
    sub = weakly_hereditary(fam, M=range(2, 13), mode="hereditary")
    assert sub["hereditary"] is False
    with pytest.raises(DomainError):
        weakly_hereditary(fam, None, mode="strongly")


def test_weakly_hereditary_positive_families():
    # full power set of colourings of {1, 2} with one colour, empty included
    members = [(), ((1, 1),), ((2, 1),), ((1, 1), (2, 1))]
    assert weakly_hereditary(members, None, mode="hereditary")["hereditary"] is True
    assert weakly_hereditary(members, None, mode="weakly")["hereditary"] is True
    lone = ((),)
    assert weakly_hereditary(lone, None, mode="weakly")["hereditary"] is True


def test_hereditary_closure_implies_weakly():
    # closing random families under subset-of-support always yields a
    # hereditary family, and hereditary implies weakly hereditary
    rng = random.Random(4)
    for _ in range(10):
        universe, k = 6, 2
        seedlings = []
        for _ in range(rng.randint(1, 4)):
            support = rng.sample(range(1, universe + 1), rng.randint(0, 4))
            seedlings.append(tuple(sorted(
                (e, rng.randint(1, k)) for e in support)))
        closed = set()
        for s in seedlings:
            for r in range(len(s) + 1):
                closed.update(itertools.combinations(s, r))
        assert weakly_hereditary(closed, None, mode="hereditary")["hereditary"] is True
        assert weakly_hereditary(closed, None, mode="weakly")["hereditary"] is True


# -------------------------------------------------------------------- loaders

def test_load_prefix_map_round_trip(map_a):
    assert map_a.depth == 2 and map_a.components == 1
    assert len(map_a.table) == 66
    data = {"depth": 2, "entries": [
        {"prefix": list(p), "F": [sorted(f) for f in fs]}
        for p, fs in map_a.table.items()]}
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
