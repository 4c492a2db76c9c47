import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_bracket, colour_weight, rand_resolution
from unclab.errors import DomainError, SizeError
from unclab.resolutions import (Resolution, bracket, build_rademacher,
                                check_rademacher_family, choose_multiplicities,
                                explore_orthogonal_family, longest_chain,
                                mutual_bracket, pattern_embeds,
                                rademacher_bounds, rademacher_family,
                                ris_condition)

H = Fraction(1, 2)


def test_resolution_validation():
    with pytest.raises(DomainError):
        Resolution(0, (1,), (H,))
    with pytest.raises(DomainError):
        Resolution(2, (1, 3), (H, H))
    with pytest.raises(DomainError):
        Resolution(2, (1,), (H, H))
    with pytest.raises(DomainError):
        Resolution(2, (), ())
    with pytest.raises(DomainError):
        Resolution(2, (1, 2), (H, Fraction(0)))


def test_colour_weights():
    r = Resolution(3, (1, 2, 1), (Fraction(1, 4), H, Fraction(1, 8)))
    assert r.total_weight() == Fraction(7, 8)
    assert len(r) == 3


def test_pattern_embeds():
    assert pattern_embeds((1, 2), (1, 1, 2, 2))
    assert pattern_embeds((1, 2, 2), (1, 1, 2, 2))
    assert not pattern_embeds((2, 1), (1, 1, 2, 2))
    assert pattern_embeds((1,), (1,))
    assert not pattern_embeds((1, 1, 1), (1, 1))


def test_longest_chain_fixture():
    patterns = [(1,), (1, 2), (2, 1), (1, 2, 2), (1, 1, 2, 2)]
    idx = longest_chain(patterns, 2)
    assert [patterns[i] for i in idx] == [(1,), (1, 2), (1, 2, 2), (1, 1, 2, 2)]
    for a, b in zip(idx, idx[1:]):
        assert pattern_embeds(patterns[a], patterns[b])
    # colours are checked once per pattern, so a lone pattern is checked too
    for bad in ([(1, 5)], [(1, 5), (1,)], [(1,), (1, 5)]):
        with pytest.raises(DomainError, match=r"colour 5 outside 1\.\.2"):
            longest_chain(bad, 2)


def test_bracket_frozen_pair():
    # max over monotone matchings of sum 2^(c_u - d_v) * alpha_u:
    # matching (1,1),(2,2) scores 2^(1-2)/2 + 2^(2-1)/2 = 1/4 + 1 = 5/4
    # and every other matching scores less (singletons give at most 1).
    r = Resolution(2, (1, 2), (H, H))
    s = Resolution(2, (2, 1), (H, H))
    val, wit = bracket(r, s)
    assert val == Fraction(5, 4)
    assert wit == [(1, 1), (2, 2)]
    val_b, wit_b = brute_bracket(r, s)
    assert val_b == Fraction(5, 4) and wit_b == [(1, 1), (2, 2)]
    back, _ = bracket(s, r)
    assert back == Fraction(5, 4)
    assert mutual_bracket(r, s) == Fraction(5, 4)


def test_bracket_diagonal_attains_total_weight():
    r = Resolution(2, (1, 2), (H, H))
    val, wit = bracket(r, r)
    assert val >= r.total_weight()
    assert val == Fraction(1)


def test_bracket_witness_reevaluates():
    rng = random.Random(4)
    for _ in range(40):
        r = rand_resolution(rng)
        s = rand_resolution(rng, k=r.k)
        val, wit = bracket(r, s)
        acc = Fraction(0)
        last_u = last_v = 0
        for u, v in wit:
            assert u > last_u and v > last_v
            last_u, last_v = u, v
            acc += Fraction(2) ** (r.pattern[u - 1] - s.pattern[v - 1]) * r.alpha[u - 1]
        assert acc == val


def test_dp_equals_brute_two_colour_patterns():
    pats = [p for n in range(1, 4) for p in product((1, 2), repeat=n)]
    rs = [Resolution(2, p, (Fraction(1, len(p)),) * len(p)) for p in pats]
    for r in rs:
        for s in rs:
            assert bracket(r, s)[0] == brute_bracket(r, s)[0]


WEIGHTS = st.builds(Fraction, st.integers(1, 30), st.integers(1, 30))


@st.composite
def resolutions(draw, k):
    n = draw(st.integers(1, 6))
    pattern = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    alpha = draw(st.lists(WEIGHTS, min_size=n, max_size=n))
    return Resolution(k, tuple(pattern), tuple(alpha))


@st.composite
def resolution_pairs(draw):
    # up to 8 colours, so gains span shifts of up to 2^7 either way, and
    # weights whose denominators differ
    k = draw(st.integers(1, 8))
    return draw(resolutions(k)), draw(resolutions(k))


@st.composite
def embedded_pairs(draw):
    # (r, s) with r's pattern a subsequence of s's: up to three colours
    # inserted into r's pattern, and s's weights drawn afresh
    r = draw(st.integers(1, 8).flatmap(resolutions))
    pattern = list(r.pattern)
    for c in draw(st.lists(st.integers(1, r.k), max_size=3)):
        pattern.insert(draw(st.integers(0, len(pattern))), c)
    alpha = draw(st.lists(WEIGHTS, min_size=len(pattern), max_size=len(pattern)))
    return r, Resolution(r.k, tuple(pattern), tuple(alpha))


@settings(max_examples=300, deadline=None)
@given(resolution_pairs())
def test_dp_equals_brute_value_and_witness(pair):
    r, s = pair
    assert bracket(r, s) == brute_bracket(r, s)


def fraction_dp(r, s):
    """The bracket DP over Fractions: suffix table and lex-first walk."""
    n, m = len(r), len(s)

    def gain(u, v):
        return Fraction(2) ** (r.pattern[u] - s.pattern[v]) * r.alpha[u]

    suffix = [[Fraction(0)] * (m + 1) for _ in range(n + 1)]
    for u in range(n - 1, -1, -1):
        for v in range(m - 1, -1, -1):
            suffix[u][v] = max(suffix[u + 1][v], suffix[u][v + 1],
                               gain(u, v) + suffix[u + 1][v + 1])
    witness = []
    u = v = 0
    while u < n and v < m:
        for v2 in range(v, m):
            if gain(u, v2) + suffix[u + 1][v2 + 1] == suffix[u][v]:
                witness.append((u + 1, v2 + 1))
                u, v = u + 1, v2 + 1
                break
        else:
            u += 1
    return suffix[0][0], witness


def test_dp_equals_fraction_dp_long_pairs():
    # on inputs too long for the brute oracle the Fraction DP is the oracle
    rng = random.Random(8)
    for n, m in ((50, 300), (300, 50), (173, 91), (64, 240), (200, 18)):
        k = rng.randint(2, 8)
        r, s = (Resolution(k, tuple(rng.randint(1, k) for _ in range(length)),
                           tuple(Fraction(rng.randint(1, 12), rng.randint(1, 12))
                                 for _ in range(length)))
                for length in (n, m))
        assert bracket(r, s) == fraction_dp(r, s)


def test_bracket_laws_seeded():
    # diagonal and embedding laws; the full four-law battery runs in the
    # acceptance suite over 1000 pairs
    rng = random.Random(11)
    for _ in range(150):
        r = rand_resolution(rng)
        s = rand_resolution(rng, k=r.k)
        val, _ = bracket(r, s)
        assert bracket(r, r)[0] >= r.total_weight()
        if pattern_embeds(r.pattern, s.pattern):
            assert val >= r.total_weight()


@settings(max_examples=200, deadline=None)
@given(resolution_pairs())
def test_bracket_below_the_colour_weight_sum(pair):
    # each matched left coordinate of colour j gains at most 2^(j - 1) alpha_u
    r, s = pair
    assert bracket(r, s)[0] <= sum(Fraction(2) ** (j - 1) * colour_weight(r, j)
                                   for j in range(1, r.k + 1))


@settings(max_examples=200, deadline=None)
@given(resolution_pairs())
def test_mutual_bracket_above_the_shared_colour_floor(pair):
    # matching colour j to colour j from the side with the smaller weight
    r, s = pair
    assert mutual_bracket(r, s) >= max(min(colour_weight(r, j), colour_weight(s, j))
                                       for j in range(1, r.k + 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(resolutions))
def test_diagonal_bracket_above_the_heaviest_colour(r):
    # matching each colour-j coordinate of r to itself gains w_j(r)
    assert bracket(r, r)[0] >= max(colour_weight(r, j) for j in range(1, r.k + 1))


@settings(max_examples=200, deadline=None)
@given(embedded_pairs())
def test_bracket_above_the_total_weight_when_the_pattern_embeds(pair):
    # matching r along an embedding of its pattern gains alpha_u at each u
    r, s = pair
    assert pattern_embeds(r.pattern, s.pattern)
    assert bracket(r, s)[0] >= r.total_weight()


def test_mutual_symmetry():
    rng = random.Random(5)
    for _ in range(30):
        r = rand_resolution(rng)
        s = rand_resolution(rng, k=r.k)
        m = mutual_bracket(r, s)
        assert m == mutual_bracket(s, r)
        assert m == max(bracket(r, s)[0], bracket(s, r)[0])


def test_build_rademacher_base():
    r = build_rademacher(2, (1, 17), 1, 1)
    assert len(r) == 18 and r.k == 4
    assert r.pattern[0] == 2 and set(r.pattern[1:]) == {4}
    assert r.pattern.count(2) == 1 and r.pattern.count(4) == 17
    assert colour_weight(r, 2) == H and colour_weight(r, 4) == H
    assert r.alpha[0] == H and r.alpha[1] == Fraction(1, 34)
    # level l repeats the base block k0^(l-1) times, weights divided alike
    lvl3 = build_rademacher(2, (1, 17), 1, 3)
    assert lvl3.pattern == r.pattern * 4
    assert lvl3.alpha == tuple(a / 4 for a in r.alpha) * 4
    assert lvl3.total_weight() == r.total_weight()
    assert all(colour_weight(lvl3, j) == colour_weight(r, j) for j in range(1, 5))
    with pytest.raises(DomainError):
        build_rademacher(1, (1,), 1, 1)
    with pytest.raises(DomainError):
        build_rademacher(2, (1,), 1, 1)


def test_rademacher_family_lengths():
    fam = rademacher_family(2, (1, 17), 1, 3)
    assert [len(r) for r in fam] == [72, 72, 72]
    assert fam == [build_rademacher(2, (1, 17), 4 // 2 ** (l - 1), l) for l in (1, 2, 3)]
    with pytest.raises(DomainError, match="need m >= 1 levels"):
        rademacher_family(2, (1, 17), 1, 0)
    with pytest.raises(DomainError, match="n must be >= 1"):
        rademacher_family(2, (1, 17), -10 ** 6, 3)


def test_rademacher_cap_refuses_k0_3_before_building(monkeypatch):
    monkeypatch.delenv("UNCLAB_CAPS", raising=False)
    ns = choose_multiplicities(3)
    # one length-405 017 097 member per level: 2 * 2 directed brackets
    family_cells = (2 * 3 * sum(ns)) ** 2
    member_cells = sum(ns) ** 2
    tracemalloc.start()
    try:
        with pytest.raises(SizeError) as family_err:
            rademacher_family(3, ns, 1, 2)
        with pytest.raises(SizeError) as member_err:
            build_rademacher(3, ns, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20   # nothing was built
    for err, cells in ((family_err, family_cells), (member_err, member_cells)):
        assert str(err.value) == (f"bracket_cells: bracket DP cells = {cells} "
                                  "exceeds cap 4000000 (override with UNCLAB_CAPS)")
    # a count past the 4300 digits str() accepts is named by a power of two
    with pytest.raises(SizeError, match=r"^bracket_cells: bracket DP cells >= 2\^"):
        rademacher_family(2, (1, 17), 1, 20000)
    monkeypatch.setenv("UNCLAB_CAPS", "bracket_cells=46655")
    with pytest.raises(SizeError):
        rademacher_family(2, (1, 17), 1, 3)
    monkeypatch.setenv("UNCLAB_CAPS", "bracket_cells=46656")
    assert len(rademacher_family(2, (1, 17), 1, 3)) == 3


def test_auto_family_is_checked_before_the_greedy(monkeypatch):
    # the greedy's second multiplicity is 2^(k0^2) + 1, so every greedy sum
    # is at least 2^(k0^2) + 2, with equality at k0 = 2
    for k0 in (2, 3, 4):
        ns = choose_multiplicities(k0)
        assert ns[1] == 2 ** (k0 * k0) + 1 and sum(ns) >= 2 ** (k0 * k0) + 2
    assert sum(choose_multiplicities(2)) == 2 ** 4 + 2
    # so the k0 = 2, m = 3 family of length 72 counts (3 * 72)^2 cells either way
    monkeypatch.setenv("UNCLAB_CAPS", "bracket_cells=46655")
    for ns in (None, (1, 17)):
        with pytest.raises(SizeError, match=r"= 46656 exceeds"):
            check_rademacher_family(2, ns, 1, 3)
    monkeypatch.delenv("UNCLAB_CAPS")
    check_rademacher_family(2, None, 1, 3)
    # each power stops past 2^15000, so a huge request is refused at once
    start = time.perf_counter()
    for k0, ns, m in ((14, None, 1), (10 ** 4000, None, 20_000), (2, (1, 17), 10 ** 9)):
        with pytest.raises(SizeError, match=r"^bracket_cells: bracket DP cells >= 2\^"):
            check_rademacher_family(k0, ns, 1, m)
    assert time.perf_counter() - start < 1


def test_choose_multiplicities_frozen():
    assert choose_multiplicities(2) == (1, 17)
    assert ris_condition(2, (1, 17))
    assert not ris_condition(2, (1, 15))
    k3 = choose_multiplicities(3)
    assert k3 == (1, 513, 135005185)
    assert ris_condition(3, k3)
    # greedy minimality: decrementing any later multiplicity breaks the bound
    assert not ris_condition(3, (1, 512, 135005185))
    assert not ris_condition(3, (1, 513, 135005184))


@pytest.mark.parametrize("k0", [2, 3, 4, 5])
def test_choose_multiplicities_greedy_minimal(k0):
    def pair_sum(ms):
        return sum((Fraction(a, b) for a, b in combinations(ms, 2)), Fraction(0))

    ns = choose_multiplicities(k0)
    bound = Fraction(1, 2 ** (k0 * k0))
    assert len(ns) == k0 and ns[0] == 1
    # each value is the least one keeping the fixed part below the bound
    for i in range(1, k0):
        assert pair_sum(ns[:i + 1]) < bound
        assert pair_sum(ns[:i] + (ns[i] - 1,)) >= bound
    assert ris_condition(k0, ns)
    if k0 == 2:
        assert ns == (1, 17)


def test_rademacher_bound_frozen():
    assert rademacher_bounds(2, (1, 17)) == (Fraction(2), Fraction(127, 68))


def test_explore_orthogonal_family_smoke():
    # the size of the largest family in the pool at each eta
    for eta, size in ((Fraction(3, 5), 1), (Fraction(3, 4), 1), (Fraction(7, 8), 3),
                      (Fraction(5, 4), 6), (Fraction(5, 2), 6)):
        rep = explore_orthogonal_family(eta)
        assert len(rep["family"]) == len(rep["labels"]) == size, eta
        assert rep["evaluations"] == 15 and rep["note"] == ""
        pairs = [mutual_bracket(a, b) for a, b in combinations(rep["family"], 2)]
        assert rep["pairwise_max"] == max(pairs, default=None)
        assert all(v < eta for v in pairs)
    assert explore_orthogonal_family(Fraction(7, 8))["labels"] == [
        "R[n=4,l=1]", "R[n=2,l=2]", "R[n=1,l=3]"]
    floor = explore_orthogonal_family(Fraction(1, 2))
    assert len(floor["family"]) == 1 and "floor" in floor["note"]
    assert floor["evaluations"] == 0
    with pytest.raises(DomainError, match="eta must be positive"):
        explore_orthogonal_family(Fraction(0))
