"""Prefix-determined set maps, matching witnesses, hereditary pattern checks.

A map of depth d assigns to every set M with at least d elements a tuple
F_1(M) < ... < F_n(M) of finite sets, reading only the d smallest elements
of M ("fixed-depth determinacy": the finite-horizon model of continuity;
every search report records this choice). Each F_j lives inside the prefix
it was read from and the components are successive.

Two sets L, M match when every pair F_j(L), F_j(M) is comparable as an
initial segment and the overlap L cap M is exactly the union of the
component overlaps F_j(L) cap F_j(M).

search_matching enumerates candidate pairs losslessly: F-values and the low
part of M are fixed by M's leading elements, and among all admissible tails
the maximal one (every coordinate above the prefix that stays clear of L
outside the forced overlap) works whenever any tail does, so only
(L, prefix) pairs are enumerated. Absence at a finite universe is reported
as inconclusive, never as a refutation.

Colour families are finitely supported maps into {1..k} (0 encoded by
absence); a family is hereditary when closed under zeroing any entries,
weakly hereditary when closed under keeping only a subset of one colour's
entries and zeroing everything else.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .caps import check_cap
from .errors import DomainError, InternalError, SchemaError
from .rationals import _coords
from .record import Record


def _mask(xs) -> int:
    """A set of positive integers as an int with bit c - 1 set for each c."""
    return sum(1 << (c - 1) for c in xs)


class PrefixContinuousMap(Record):
    """F_1 < ... < F_n read off the `depth` smallest elements of the set:
    `table` maps each prefix, a sorted tuple, to its components."""
    depth: int
    components: int
    table: dict[tuple[int, ...], tuple[frozenset[int], ...]]

    def __post_init__(self):
        if self.depth < 1:
            raise DomainError("depth must be >= 1")
        if self.components < 1:
            raise DomainError("need at least one component")
        for prefix, fs in self.table.items():
            if len(prefix) != self.depth or tuple(sorted(set(prefix))) != prefix:
                raise DomainError(f"bad prefix {prefix} for depth {self.depth}")
            if len(fs) != self.components:
                raise DomainError(
                    f"prefix {prefix}: expected {self.components} components, "
                    f"got {len(fs)}")
            pref_set = set(prefix)
            for j, F in enumerate(fs, start=1):
                if not set(F) <= pref_set:
                    raise DomainError(
                        f"prefix {prefix}: F_{j} leaves the prefix")
            nonempty = [F for F in fs if F]
            for a, b in zip(nonempty, nonempty[1:]):
                if not max(a) < min(b):
                    raise DomainError(
                        f"prefix {prefix}: components are not successive")

    def missing_prefixes(self, universe: int) -> list[tuple[int, ...]]:
        return [p for p in combinations(range(1, universe + 1), self.depth)
                if p not in self.table]


def _glue(FL: list[int], FM: list[int]) -> int:
    """The union of the overlaps of component masks FL and FM, or -1 when
    some pair is not initial-segment comparable: neither is the other cut
    at its own top bit."""
    S = 0
    for a, b in zip(FL, FM):
        if a != b & ((1 << a.bit_length()) - 1) and b != a & ((1 << b.bit_length()) - 1):
            return -1
        S |= a & b
    return S


def is_initial_segment(A, B) -> bool:
    """A equals the |A| smallest elements of B (equality allowed)."""
    a, b = sorted(A), sorted(B)
    return len(a) <= len(b) and b[:len(a)] == a


class MatchingWitness(Record):
    L: tuple[int, ...]
    M: tuple[int, ...]
    FL: tuple[frozenset[int], ...]
    FM: tuple[frozenset[int], ...]


def validate_matching(w: MatchingWitness) -> dict:
    """Per-condition diagnostics for the two matching conditions."""
    if len(w.FL) != len(w.FM):
        raise DomainError("FL and FM must have the same number of components")
    Ls, Ms = set(w.L), set(w.M)
    failures = []
    for j, (a, b) in enumerate(zip(w.FL, w.FM), start=1):
        if not set(a) <= Ls:
            failures.append(f"component {j}: F_{j}(L) leaves L")
        if not set(b) <= Ms:
            failures.append(f"component {j}: F_{j}(M) leaves M")
        if not (is_initial_segment(a, b) or is_initial_segment(b, a)):
            failures.append(
                f"component {j}: F_{j}(L)={sorted(a)} and F_{j}(M)={sorted(b)} "
                "are not initial-segment comparable")
    overlap = Ls & Ms
    glued = set()
    for a, b in zip(w.FL, w.FM):
        glued |= set(a) & set(b)
    if overlap != glued:
        failures.append(
            f"overlap condition: L cap M = {sorted(overlap)} but the union of "
            f"component overlaps is {sorted(glued)}")
    return {"ok": not failures, "failures": failures}


def search_matching(pmap: PrefixContinuousMap, universe: int, horizon: int | None) -> dict:
    """First matched pair (L, M) of sets of size >= horizon with L != M;
    the horizon is at least the map depth, which None stands for.

    The scan is exhaustive and deterministic: L by ascending bitmask over
    {1..universe}, then the leading block of M in lexicographic order,
    completed by the maximal admissible tail. Sets are int bitmasks, bit
    c - 1 for coordinate c. Reports carry the fixed-depth determinacy note,
    `"strategy": "exhaustive"`, and are inconclusive on absence.
    """
    if universe < 0:
        raise DomainError(f"universe must be >= 0, got {universe}")
    d = pmap.depth
    # the scan visits 2^universe sets L and checks at most C(universe, d)
    # blocks of M per L, which bounds the C(universe, d)^2 cached rows too;
    # past universe 15 000 the power alone exceeds any cap UNCLAB_CAPS can
    # set (an int of at most 4300 digits), so the shift stops there
    check_cap("match_pairs", (1 << min(universe, 15_000)) * max(comb(universe, d), 1),
              "(L, block) pairs")
    missing = pmap.missing_prefixes(universe)
    if missing:
        raise SchemaError(
            f"map of depth {pmap.depth} lacks {len(missing)} prefixes on "
            f"universe {universe}, first {missing[0]}")
    h = max(d, horizon if horizon is not None else d)
    table = pmap.table
    full = (1 << universe) - 1
    # per block P of M, as masks: P -> (the coordinates above P, P's components)
    blocks = {_mask(P): (full >> P[-1] << P[-1], [_mask(F) for F in table[P]])
              for P in combinations(range(1, universe + 1), d)}
    rows: dict = {}   # L's leading block -> (S, P, above P) per block P, S by _glue
    checked = 0
    base = {
        "universe": universe, "horizon": h,
        "determinacy": {"model": "fixed_depth", "depth": d},
        "note": ("absence at a finite universe is inconclusive; "
                 "only found witnesses transfer"),
        "strategy": "exhaustive",
    }
    for Lm in range(1 << universe):
        if Lm.bit_count() < h:   # h >= depth >= 1 skips the empty set
            continue
        rest = Lm
        for _ in range(d):
            rest &= rest - 1   # drop the lowest coordinate
        lead = Lm ^ rest       # L's leading block: its d lowest coordinates
        if lead not in rows:
            FL = blocks[lead][1]
            rows[lead] = [(_glue(FL, FM), Pm, above) for Pm, (above, FM) in blocks.items()]
        # Every F_j(M) lies in the block P, so S does too, and L matches M
        # exactly when S = P cap L: M is P plus every coordinate above P
        # outside L, so L cap M = P cap L.
        for i, (S, Pm, above) in enumerate(rows[lead]):
            if S == Pm & Lm:
                Mm = Pm | above & ~Lm
                if Mm != Lm and Mm.bit_count() >= h:
                    break
        else:
            checked += len(blocks)
            continue
        L, M = (tuple(c for c in range(1, universe + 1) if m >> (c - 1) & 1) for m in (Lm, Mm))
        wit = MatchingWitness(L, M, table[L[:d]], table[M[:d]])   # M[:d] is P
        if not validate_matching(wit)["ok"]:
            raise InternalError(f"matched pair {L}, {M} fails validate_matching")
        return {**base, "found": True, "witness": wit, "checked": checked + i + 1}
    return {**base, "found": False, "witness": None, "checked": checked}


# ------------------------------------------------------- hereditary patterns

# A colour pattern is a tuple of (element, colour) pairs sorted by element;
# colour 0 is encoded by absence. Patterns are ordered canonically by
# (length, pairs).


def weakly_hereditary(members, M, *, mode: str) -> dict:
    """Closure check for the restriction family F_M of the patterns in
    members (M None: the members themselves), with a counterexample.

    mode "hereditary": every pattern obtained from a member by zeroing some
    entries must stay in the family. mode "weakly": only single-colour
    restrictions (keep a subset of one colour's entries, zero the rest) are
    required to stay. Restrictions are tried largest-first per member, the
    all-zero pattern last, so a reported counterexample is as close to its
    parent as possible.
    """
    if mode not in ("hereditary", "weakly"):
        raise DomainError(f"unknown mode {mode!r}")
    if M is None:
        restricted = set(members)
    else:
        Ms = set(_coords(M))
        restricted = {tuple(ec for ec in p if ec[0] in Ms) for p in members}
    checked = 0

    def candidates(b):
        if mode == "hereditary":
            for r in range(len(b) - 1, 0, -1):
                for T in combinations(b, r):
                    yield T, None
        else:
            for j in sorted({c for _, c in b}):
                elems = [e for e, c in b if c == j]
                for r in range(len(elems), 0, -1):
                    for T in combinations(elems, r):
                        a = tuple((e, j) for e in T)
                        if a != b:
                            yield a, j
        yield (), None

    for b in sorted(restricted, key=lambda p: (len(p), p)):
        if not b:
            continue
        for a, j in candidates(b):
            checked += 1
            if a not in restricted:
                return {"hereditary": False, "mode": mode, "checked": checked,
                        "violation": {"a": a, "b": b, "colour": j}}
    return {"hereditary": True, "mode": mode, "violation": None,
            "checked": checked}


def remark_checks(universe: int, m1: int, m2: int) -> int:
    """Check remark_family's arguments; the candidate restrictions one
    closure check of the family they give tries at most.

    The family has C(universe + 1, m2 + 1) patterns when a full pattern
    fits (universe >= m2 + 1) and none otherwise, and a pattern of at most
    m2 + 1 entries has at most 2^(m2 + 1) candidates in either mode. As in
    `search_matching`, each factor stops once it passes 2^15000, more than
    any cap UNCLAB_CAPS can set, so the count is exact below every cap and
    takes at most 15 000 steps: C(n, j) >= 2^j for j <= n/2.
    """
    if not (1 <= m1 < m2):
        raise DomainError("need 1 <= m1 < m2")
    if universe < 0:
        raise DomainError(f"universe must be >= 0, got {universe}")
    n, k = universe + 1, m2 + 1
    patterns = int(k < n)
    for j in range(1, min(k, n - k) + 1):
        patterns = patterns * (n - j + 1) // j   # C(n, j), rising with j <= n/2
        if patterns >> 15_000:
            break
    return patterns << min(k, 15_000)


def check_hereditary(universe: int, m1: int, m2: int, samples: int | None) -> None:
    """Refuse a `hereditary` request past the hereditary_checks cap before
    its family is built: one closure check of the family, or one per
    sample, each also counted for the up to universe + 1 numbers a sample
    draws and sorts, so an empty family does not admit any universe or
    any number of samples."""
    checks = (remark_checks(universe, m1, m2) + universe + 1) * (samples or 1)
    check_cap("hereditary_checks", checks, "candidates and drawn numbers")


def remark_family(universe: int, m1: int, m2: int) -> tuple[tuple, ...]:
    """Colour patterns 2, 1 x m1, 2 x (m2 - m1) on rising supports, with all
    their truncations, in canonical order.

    A truncation of length t qualifies exactly when its support extends to a
    full support inside the universe (m2 + 1 - t further elements fit above),
    which makes the family closed under the truncation operation that
    defines it, and empty when no full pattern fits. The zero truncation
    (empty pattern) is a member whenever any full pattern fits. Lengths
    ascend, supports come in `combinations` order, which is the order of
    their sorted pairs, and distinct (length, support) give distinct
    patterns, so the family needs no dedupe or sort.
    """
    remark_checks(universe, m1, m2)   # the argument checks
    width = m2 + 1
    if universe < width:
        return ()
    colours = (2,) + (1,) * m1 + (2,) * (m2 - m1)
    out = [()]
    for t in range(1, width + 1):
        out += [tuple(zip(support, colours)) for support in combinations(range(1, universe + 1), t)
                if universe - support[-1] >= width - t]
    return tuple(out)
