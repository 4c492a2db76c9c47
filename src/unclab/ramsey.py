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

import random
from functools import cached_property
from itertools import combinations

from .caps import check_cap
from .errors import DomainError, InternalError, SchemaError
from .rationals import _subsets
from .record import Record


def _mask(xs) -> int:
    """A set of positive integers as an int with bit c - 1 set for each c."""
    return sum(1 << (c - 1) for c in xs)


def _as_sorted_tuple(xs) -> tuple[int, ...]:
    out = tuple(sorted(set(int(x) for x in xs)))
    if any(x < 1 for x in out):
        raise DomainError("set elements must be positive integers")
    return out


class PrefixContinuousMap(Record):
    """F_1 < ... < F_n read off the `depth` smallest elements of the set."""
    depth: int
    components: int
    entries: tuple[tuple[tuple[int, ...], tuple[frozenset[int], ...]], ...]

    def __post_init__(self):
        if self.depth < 1:
            raise DomainError("depth must be >= 1")
        if self.components < 1:
            raise DomainError("need at least one component")
        seen = set()
        for prefix, fs in self.entries:
            if len(prefix) != self.depth or tuple(sorted(set(prefix))) != prefix:
                raise DomainError(f"bad prefix {prefix} for depth {self.depth}")
            if prefix in seen:
                raise DomainError(f"duplicate prefix {prefix}")
            seen.add(prefix)
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

    @staticmethod
    def from_dict(depth: int, table: dict) -> "PrefixContinuousMap":
        items = sorted((tuple(p), tuple(frozenset(F) for F in fs))
                       for p, fs in table.items())
        if not items:
            raise DomainError("empty map table")
        return PrefixContinuousMap(depth, len(items[0][1]), tuple(items))

    @cached_property
    def _by_prefix(self) -> dict:
        # built on first lookup and kept: the map is frozen
        return dict(self.entries)

    def missing_prefixes(self, universe: int) -> list[tuple[int, ...]]:
        return [p for p in combinations(range(1, universe + 1), self.depth)
                if p not in self._by_prefix]


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


def search_matching(pmap: PrefixContinuousMap, universe: int,
                    horizon: int | None = None,
                    strategy: str = "exhaustive", seed: int | None = None,
                    budget: int = 200_000) -> dict:
    """First matched pair (L, M) of sets of size >= horizon with L != M.

    Deterministic order: L by ascending bitmask over {1..universe}, then the
    leading block of M in lexicographic order, completed by the maximal
    admissible tail. Sets are int bitmasks, bit c - 1 for coordinate c.
    Reports carry the fixed-depth determinacy note and are inconclusive on
    absence.
    """
    check_cap("match_universe", universe, "universe")
    missing = pmap.missing_prefixes(universe)
    if missing:
        raise SchemaError(
            f"map of depth {pmap.depth} lacks {len(missing)} prefixes on "
            f"universe {universe}, first {missing[0]}")
    d = pmap.depth
    h = max(d, horizon if horizon is not None else d)
    table = pmap._by_prefix
    full = (1 << universe) - 1
    prefixes = list(combinations(range(1, universe + 1), d))
    rows: dict = {}   # L's leading block -> its pair() with every block in prefixes
    checked = 0

    def pair(Lpre: tuple[int, ...], P: tuple[int, ...]) -> tuple[int, int, int]:
        """As masks: S, the union of the component overlaps of Lpre and P (-1
        when some component pair is not initial-segment comparable), P, and
        the coordinates above P."""
        FL, FM = table[Lpre], table[P]
        comparable = all(is_initial_segment(a, b) or is_initial_segment(b, a)
                         for a, b in zip(FL, FM))
        S = _mask(set().union(*(a & b for a, b in zip(FL, FM)))) if comparable else -1
        return S, _mask(P), full >> P[-1] << P[-1]

    def scan(Lm: int, pairs) -> tuple[int, int] | None:
        """The first (position, M as a mask) in `pairs` at which L (the mask
        Lm) and the block P complete to a matched pair. Every F_j(M) lies in
        P, so S does too, and they match exactly when S = P cap L: M is P
        plus every coordinate above P outside L, so L cap M = P cap L."""
        for i, (S, Pm, above) in enumerate(pairs):
            if S == Pm & Lm:
                Mm = Pm | above & ~Lm
                if Mm != Lm and Mm.bit_count() >= h:
                    return i, Mm
        return None

    def witness(L: tuple[int, ...], Mm: int, P: tuple[int, ...]) -> MatchingWitness:
        M = tuple(c for c in range(1, universe + 1) if Mm >> (c - 1) & 1)
        wit = MatchingWitness(L, M, table[L[:d]], table[P])
        if not validate_matching(wit)["ok"]:
            raise InternalError(f"matched pair {L}, {M} fails validate_matching")
        return wit

    base = {
        "universe": universe, "horizon": h,
        "determinacy": {"model": "fixed_depth", "depth": d},
        "note": ("absence at a finite universe is inconclusive; "
                 "only found witnesses transfer"),
    }
    if strategy == "exhaustive":
        for L in _subsets(tuple(range(1, universe + 1))):
            if len(L) < h:   # h >= depth >= 1 skips the empty set
                continue
            Lpre = L[:d]
            if Lpre not in rows:
                rows[Lpre] = [pair(Lpre, P) for P in prefixes]
            hit = scan(_mask(L), rows[Lpre])
            if hit is None:
                checked += len(prefixes)
                continue
            i, Mm = hit
            return {**base, "found": True, "witness": witness(L, Mm, prefixes[i]),
                    "checked": checked + i + 1, "strategy": strategy}
        return {**base, "found": False, "witness": None, "checked": checked,
                "strategy": strategy}
    if strategy == "random":
        if seed is None:
            raise DomainError("random strategy needs a seed")
        if budget < 1:
            raise DomainError(f"random strategy needs a budget >= 1, got {budget}")
        rng = random.Random(seed)
        population = list(range(1, universe + 1))
        for _ in range(budget):
            size = rng.randint(h, universe)
            L = tuple(sorted(rng.sample(population, size)))
            P = tuple(sorted(rng.sample(population, d)))
            checked += 1
            hit = scan(_mask(L), [pair(L[:d], P)])
            if hit is not None:
                return {**base, "found": True, "witness": witness(L, hit[1], P),
                        "checked": checked, "strategy": strategy,
                        "seed": seed}
        return {**base, "found": False, "witness": None, "checked": checked,
                "strategy": strategy, "seed": seed}
    raise DomainError(f"unknown strategy {strategy!r}")


# ------------------------------------------------------- hereditary patterns

Pattern = frozenset  # of (element, colour) pairs; colour 0 is encoded by absence


class ColourFamily(Record):
    k: int
    universe: int
    members: tuple[Pattern, ...]

    def __post_init__(self):
        if self.k < 1 or self.universe < 1:
            raise DomainError("k and universe must be positive")
        for m in self.members:
            for e, c in m:
                if not (1 <= e <= self.universe):
                    raise DomainError(f"support element {e} outside universe")
                if not (1 <= c <= self.k):
                    raise DomainError(f"colour {c} outside 1..{self.k}")


def restrict_pattern(pattern: Pattern, M) -> Pattern:
    Ms = set(M)
    return frozenset((e, c) for e, c in pattern if e in Ms)


def _canonical_order(patterns):
    return sorted(patterns, key=lambda p: (len(p), sorted(p)))


def weakly_hereditary(family: ColourFamily, M=None, mode: str = "weakly") -> dict:
    """Closure check for the restriction family F_M, with a counterexample.

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
        restricted = set(family.members)
    else:
        Ms = _as_sorted_tuple(M)
        restricted = {restrict_pattern(p, Ms) for p in family.members}
    fam_set = set(restricted)
    checked = 0

    def candidates(b):
        items = sorted(b)
        if mode == "hereditary":
            for r in range(len(items) - 1, 0, -1):
                for T in combinations(items, r):
                    yield frozenset(T), None
        else:
            colours = sorted({c for _, c in items})
            for j in colours:
                elems = [e for e, c in items if c == j]
                for r in range(len(elems), 0, -1):
                    for T in combinations(elems, r):
                        a = frozenset((e, j) for e in T)
                        if a != b:
                            yield a, j
        yield frozenset(), None

    for b in _canonical_order(fam_set):
        if not b:
            continue
        for a, j in candidates(b):
            checked += 1
            if a not in fam_set:
                return {"hereditary": False, "mode": mode, "checked": checked,
                        "violation": {"a": a, "b": b, "colour": j}}
    return {"hereditary": True, "mode": mode, "violation": None,
            "checked": checked}


def remark_family(universe: int, m1: int = 1, m2: int = 2) -> ColourFamily:
    """Colour patterns 2, 1 x m1, 2 x (m2 - m1) on rising supports, with all
    their truncations, deduplicated.

    A truncation of length t qualifies exactly when its support extends to a
    full support inside the universe (m2 + 1 - t further elements fit above),
    which makes the family closed under the truncation operation that
    defines it. The zero truncation (empty pattern) is a member whenever any
    full pattern fits.
    """
    if not (1 <= m1 < m2):
        raise DomainError("need 1 <= m1 < m2")
    check_cap("remark_universe", universe, "universe")
    width = m2 + 1

    def colour_at(pos: int) -> int:
        if pos == 0:
            return 2
        if pos <= m1:
            return 1
        return 2

    out = set()
    if universe >= width:
        out.add(frozenset())
    for t in range(1, width + 1):
        for support in combinations(range(1, universe + 1), t):
            if t < width and universe - support[-1] < width - t:
                continue
            out.add(frozenset(
                (support[i], colour_at(i)) for i in range(t)))
    return ColourFamily(k=2, universe=universe,
                        members=tuple(_canonical_order(out)))
