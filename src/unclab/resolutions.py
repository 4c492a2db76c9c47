"""Coloured patterns with positive weights, and the bracket pairing between them.

A k-resolution is a finite colour sequence c (values in 1..k) together with
positive rational weights alpha of the same length. The bracket [r, s] is the
maximum over monotone matchings (index pairs strictly increasing in both
coordinates) of sum 2^(c_u - d_v) * alpha_u, taken over matched pairs (u, v).
The symmetric form <r, s> = max([r, s], [s, r]) drives the orthogonality
predicate: r and s are eta-orthogonal when <r, s> < eta.

The bracket DP is integer-scaled and exact: every gain is an integer over
one common denominator, the suffix table and the lex-first witness walk run
on plain ints, and the one Fraction is built at the end. The exhaustive
method "brute" is its oracle on short inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .caps import check_cap
from .errors import DomainError, InternalError
from .rationals import _common_denominator
from .record import Record

TWO = Fraction(2)


class Resolution(Record):
    k: int
    pattern: tuple[int, ...]
    alpha: tuple[Fraction, ...]

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if len(self.pattern) != len(self.alpha):
            raise DomainError("pattern and alpha lengths differ")
        if len(self.pattern) == 0:
            raise DomainError("empty resolution")
        for c in self.pattern:
            if not (1 <= c <= self.k):
                raise DomainError(f"colour {c} outside 1..{self.k}")
        for a in self.alpha:
            if a <= 0:
                raise DomainError("weights must be positive")

    def __len__(self) -> int:
        return len(self.pattern)

    def total_weight(self) -> Fraction:
        return sum(self.alpha, Fraction(0))


def pattern_embeds(c: tuple[int, ...], d: tuple[int, ...], k: int) -> bool:
    """Whether c occurs inside d as a colour-preserving subsequence.

    Greedy left-to-right scan; greedily taking the earliest match is complete
    for subsequence containment. Both patterns use colours 1..k.
    """
    for col in (*c, *d):
        if not (1 <= col <= k):
            raise DomainError(f"colour {col} outside 1..{k}")
    it = iter(d)
    return all(col in it for col in c)


def longest_chain(patterns: list[tuple[int, ...]], k: int) -> list[int]:
    """Indices of a longest chain under pattern containment, lex-smallest.

    Chain means each selected pattern embeds in the next. Longest path in the
    containment DAG; among maximal chains the lexicographically smallest index
    sequence is returned. Empty input gives an empty chain.
    """
    n = len(patterns)
    if n == 0:
        return []
    emb = [[i != j and pattern_embeds(patterns[i], patterns[j], k) for j in range(n)]
           for i in range(n)]
    # succ[i] lists, ascending, the patterns a chain may take after i. Equal
    # patterns embed both ways, so a mutual pair only links i to j > i; that
    # keeps the relation acyclic without losing any chain up to reordering
    # equal members.
    succ = [[j for j in range(n) if emb[i][j] and not (emb[j][i] and j < i)]
            for i in range(n)]
    # best_len[i] is the length of the longest chain starting at i. A
    # successor is never shorter, so visiting patterns by decreasing
    # (length, index) settles every successor before i.
    order = sorted(range(n), key=lambda i: (len(patterns[i]), i), reverse=True)
    best_len = [1] * n
    for i in order:
        best_len[i] = 1 + max((best_len[j] for j in succ[i]), default=0)
    target = max(best_len)
    # lex-smallest full index sequence: start at the first optimal pattern and
    # take the smallest successor that preserves optimal length.
    chain = [best_len.index(target)]
    for need in range(target - 1, 0, -1):
        chain.append(next(j for j in succ[chain[-1]] if best_len[j] >= need))
    return chain


def _gain(r: Resolution, s: Resolution, u: int, v: int) -> Fraction:
    return TWO ** (r.pattern[u] - s.pattern[v]) * r.alpha[u]


def _bracket_dp(r: Resolution, s: Resolution) -> tuple[Fraction, list[tuple[int, int]]]:
    n, m = len(r), len(s)
    # Every gain 2^(c_u - d_v) alpha_u is an integer over the one denominator
    # lcm(alpha denominators) * 2^(top - 1), top the largest colour of s:
    # gain(u, v) = xs[u] * ys[v] = (alpha_u denom) << (c_u - 1 + top - d_v).
    denom, nums = _common_denominator(r.alpha)
    top = max(s.pattern)
    xs = [a << (c - 1) for a, c in zip(nums, r.pattern)]
    ys = [1 << (top - d) for d in s.pattern]
    # suffix[u][v] = best scaled total over matchings inside r[u:], s[v:]
    suffix = [[0] * (m + 1) for _ in range(n + 1)]
    for u in range(n - 1, -1, -1):
        x = xs[u]
        row = suffix[u]
        below = suffix[u + 1]
        best = 0   # row[v + 1]
        for v in range(m - 1, -1, -1):
            cand = below[v + 1] + x * ys[v]
            if below[v] > cand:
                cand = below[v]
            if best > cand:
                cand = best
            row[v] = best = cand
    # lex-first optimal witness: pairing u is lex-smaller than skipping it
    # (every later pair has first index > u), so take the first optimal pair
    # at u; only when none exists is skipping u the optimal move. A pair
    # (u, v2) scores at most row[v2] and the row never increases, so the
    # scan stops at the first v2 with row[v2] < target; row[m] = 0 < target,
    # as every weight is positive.
    witness: list[tuple[int, int]] = []
    u = v = 0
    while u < n and v < m:
        x, row, below = xs[u], suffix[u], suffix[u + 1]
        target = row[v]
        v2 = v
        while row[v2] == target and x * ys[v2] + below[v2 + 1] != target:
            v2 += 1
        if row[v2] == target:
            witness.append((u + 1, v2 + 1))
            u, v = u + 1, v2 + 1
        else:
            if target != below[v]:
                raise InternalError("dp table inconsistent")
            u += 1
    return Fraction(suffix[0][0], denom << (top - 1)), witness


def _bracket_brute(r: Resolution, s: Resolution) -> tuple[Fraction, list[tuple[int, int]]]:
    n, m = len(r), len(s)
    best = Fraction(0)
    best_wit: list[tuple[int, int]] = []

    def rec(u: int, v: int, acc: Fraction, pairs: list[tuple[int, int]]):
        nonlocal best, best_wit
        if acc > best or (acc == best and pairs < best_wit):
            best, best_wit = acc, list(pairs)
        for u2 in range(u, n):
            for v2 in range(v, m):
                pairs.append((u2 + 1, v2 + 1))
                rec(u2 + 1, v2 + 1, acc + _gain(r, s, u2, v2), pairs)
                pairs.pop()

    rec(0, 0, Fraction(0), [])
    return best, best_wit


def bracket(r: Resolution, s: Resolution, method: str = "dp") -> tuple[Fraction, list[tuple[int, int]]]:
    """[r, s] with a lex-first optimal matching witness (1-indexed pairs)."""
    if r.k != s.k:
        raise DomainError(f"colour counts differ: {r.k} vs {s.k}")
    if method == "dp":
        return _bracket_dp(r, s)
    if method == "brute":
        check_cap("brute_bracket", max(len(r), len(s)), "resolution length")
        return _bracket_brute(r, s)
    raise DomainError(f"unknown bracket method {method!r}")


def mutual_bracket(r: Resolution, s: Resolution) -> Fraction:
    return max(bracket(r, s)[0], bracket(s, r)[0])


def repeat_resolution(r: Resolution, m: int) -> Resolution:
    """m concatenated copies of r with weights divided by m."""
    if m < 1:
        raise DomainError(f"repeat count must be >= 1, got {m}")
    return Resolution(r.k, r.pattern * m, tuple(a / m for a in r.alpha) * m)


def _rademacher_length(k0: int, ns: tuple[int, ...], n: int, l: int) -> int:
    """Check build_rademacher's arguments; the length of the member they give."""
    if k0 < 2:
        raise DomainError("k0 must be >= 2")
    if l < 1:
        raise DomainError(f"level must be >= 1, got {l}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if len(ns) != k0:
        raise DomainError(f"need {k0} multiplicities, got {len(ns)}")
    if any(x < 1 for x in ns):
        raise DomainError("multiplicities must be positive")
    return n * sum(ns) * k0 ** (l - 1)


def build_rademacher(k0: int, ns: tuple[int, ...], n: int, l: int = 1) -> Resolution:
    """Level-l Rademacher resolution for colour base k0 and multiplicities ns.

    Base block: colour j*k0 appears n*ns[j-1] times (colours ascending), each
    with weight 1/(n*ns[j-1]*k0), so every used colour carries weight 1/k0.
    Level l repeats the base block k0^(l-1) times with weights scaled down,
    which preserves the colour weights. The member's self-bracket, length^2
    DP cells, is checked against the rademacher_cells cap before building.
    """
    length = _rademacher_length(k0, ns, n, l)
    check_cap("rademacher_cells", length * length, "bracket DP cells")
    k = k0 * k0
    pattern: list[int] = []
    alpha: list[Fraction] = []
    for j in range(1, k0 + 1):
        count = n * ns[j - 1]
        pattern.extend([j * k0] * count)
        alpha.extend([Fraction(1, n * ns[j - 1] * k0)] * count)
    base = Resolution(k, tuple(pattern), tuple(alpha))
    return repeat_resolution(base, k0 ** (l - 1)) if l > 1 else base


def rademacher_family(k0: int, ns: tuple[int, ...], n: int, m: int) -> list[Resolution]:
    """One member per level l = 1..m, with multiplicity n*k0^(m-l).

    Every member has the length n*sum(ns)*k0^(m-1), so the m*m directed
    brackets among them fill (m*length)^2 DP cells; that estimate is checked
    against the rademacher_cells cap before any member is built.
    """
    if m < 1:
        raise DomainError("need m >= 1 levels")
    check_cap("rademacher_cells", (m * _rademacher_length(k0, ns, n, m)) ** 2,
              "bracket DP cells")
    return [build_rademacher(k0, ns, n * k0 ** (m - l), l) for l in range(1, m + 1)]


def ris_condition(k0: int, ns: tuple[int, ...]) -> bool:
    """Rapidly-increasing multiplicities: sum_{j<j'} ns_j/ns_j' < 2^(-k0^2)."""
    k = k0 * k0
    total = Fraction(0)
    for j in range(k0):
        for j2 in range(j + 1, k0):
            total += Fraction(ns[j], ns[j2])
    return total < TWO ** (-k)


def choose_multiplicities(k0: int) -> tuple[int, ...]:
    """Greedy minimal increasing multiplicities meeting the ris condition.

    n1 = 1; each next value is the least integer keeping the already-fixed
    part of the sum strictly below 2^(-k0^2), leaving room for the remaining
    (arbitrarily large) choices. The known small case: k0=2 gives (1, 17).
    """
    if k0 < 2:
        raise DomainError("k0 must be >= 2")
    bound = TWO ** (-k0 * k0)
    ns: list[int] = [1]
    fixed = Fraction(0)   # sum over j < j' of ns_j / ns_j' so far
    for _ in range(1, k0):
        prev_sum = sum(ns)
        # adding value v contributes prev_sum / v on top of fixed
        room = bound - fixed
        if room <= 0:
            raise DomainError("greedy multiplicities stuck; constraint already violated")
        # prev_sum / v < room  <=>  v > prev_sum / room, so the least v is
        v = prev_sum * room.denominator // room.numerator + 1
        fixed += Fraction(prev_sum, v)
        ns.append(v)
    return tuple(ns)


def rademacher_bound(k0: int, ns: tuple[int, ...], l: int, l2: int) -> Fraction:
    """Certified upper bound for <R_{n,l}, R_{n',l2}> within one class.

    Same level: 1 + 2/k0. Different levels: 2^(-k0) + (1/k0) * sum_{j<j'}
    2^((j'-j)k0) ns_j/ns_j' + 3/k0, which stays below 5/k0 once the ris
    condition holds.
    """
    if l < 1 or l2 < 1:
        raise DomainError("levels must be >= 1")
    if len(ns) != k0:
        raise DomainError(f"need {k0} multiplicities, got {len(ns)}")
    if l == l2:
        return 1 + Fraction(2, k0)
    cross = Fraction(0)
    for j in range(1, k0 + 1):
        for j2 in range(j + 1, k0 + 1):
            cross += TWO ** ((j2 - j) * k0) * Fraction(ns[j - 1], ns[j2 - 1])
    return TWO ** (-k0) + cross / k0 + Fraction(3, k0)


def explore_orthogonal_family(eta: Fraction, budget: int, seed: int) -> dict:
    """Greedy search for a mutually eta-orthogonal set of resolutions.

    Candidate pool comes from the Rademacher class with colour base 2 and
    greedy multiplicities. Every class member has colour weights 1/k0 and
    any two share enough colour positions to force
    <r, s> >= 1/k0, so eta <= 1/k0 cannot support a family of size above 1;
    that case returns immediately with the floor noted.
    """
    if eta <= 0:
        raise DomainError("eta must be positive")
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    k0 = 2
    ns = choose_multiplicities(k0)
    floor = Fraction(1, k0)
    if eta <= floor:
        member = build_rademacher(k0, ns, 1, 1)
        return {
            "family": [member],
            "labels": ["R[n=1,l=1]"],
            "pairwise_max": None,
            "note": f"eta <= colour weight floor {floor}; family size capped at 1",
            "evaluations": 0,
        }
    m_top = 3
    pool: list[tuple[str, Resolution]] = []
    for n0 in (1, 2):
        for l in range(1, m_top + 1):
            n = n0 * k0 ** (m_top - l)
            pool.append((f"R[n={n},l={l}]", build_rademacher(k0, ns, n, l)))
    rng = random.Random(seed)
    rng.shuffle(pool)
    family: list[Resolution] = []
    labels: list[str] = []
    pairwise_max: Fraction | None = None
    used = 0
    for label, cand in pool:
        ok = True
        cand_max: Fraction | None = None
        for member in family:
            if used >= budget:
                ok = False
                break
            used += 1
            val = mutual_bracket(cand, member)
            cand_max = val if cand_max is None else max(cand_max, val)
            if val >= eta:
                ok = False
                break
        if ok:
            family.append(cand)
            labels.append(label)
            if cand_max is not None:
                pairwise_max = cand_max if pairwise_max is None else max(pairwise_max, cand_max)
        if used >= budget:
            break
    return {
        "family": family,
        "labels": labels,
        "pairwise_max": pairwise_max,
        "note": "",
        "evaluations": used,
    }
