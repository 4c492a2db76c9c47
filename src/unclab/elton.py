"""Two-scale layout vectors and the adversarial functional family over them.

A layout places two distinguished coordinates at positions 1 and 2 of the
universe {1..n_slots+2} and tiles the rest with alternating runs: per round,
an I-run of n1*2^(K(m2-m1)) slots then a J-run of n2*2^(K(m2-m1)) slots,
for 2^(K*m1-1) rounds. E1 collects the I-slots (value u1 = 1/(n1*2^(K*m2-1))
each on the canonical functional), E2 the J-slots (value u2 = 1/(n2*2^(K*m2-1))).

The functional family evaluated by structured_dp consists of all
shapes (a, b): coefficient 1/2 at coordinate a, 1 at coordinate b, then the
slot value sequence of the (a, b)-shaped tiling assigned to freely chosen
increasing coordinates above b, together with all initial-segment
truncations and negations. Truncations below b appear as the explicit
half-coefficient candidates; truncations inside the slot region are covered
by partial slot placement.

What a certificate is. The layout norm of a vector is the larger of its sup
norm and its family maximum, and `k_lower_certificate` computes both norms
of the standard pair exactly: norm_minus_upper is the vector's norm,
norm_plus_lower the companion's, and ratio_lower their ratio. On every rung
of the ladder they are 1 and 5/4, the canonical functional's pairings, so
the ratio is 5/4. That is a ratio of two norms in this finite model and
nothing more; it is not a bound on sup over delta of K(delta). Whether the
paper's 5/4 rests on the eps condition, the weakly null limit or
functionals beyond the shapes (a, b), none of which the model encodes, is
a guess left open, and so is the reading of the standard pair as the
paper's own choice: only the abstract is at hand, and this pair is the one
whose pairings give its 5/4. `quasi_certificate` computes the same two
norms for the quasi pair.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import lcm

from .caps import check_cap
from .errors import DomainError, InternalError
from .rationals import _common_denominator
from .record import Record

TWO = Fraction(2)


class EltonParams(Record):
    n1: int
    n2: int
    K: int
    eps: Fraction
    m1: int = 1
    m2: int = 2

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise DomainError("n1, n2 must be positive")
        if self.K < 1:
            raise DomainError("K must be >= 1")
        if not (0 < self.eps < 1):
            raise DomainError(f"eps must be in (0, 1), got {self.eps}")
        if not (1 <= self.m1 < self.m2):
            raise DomainError("need 1 <= m1 < m2")

    @property
    def slack(self) -> Fraction:
        """n1/(2 n2) + 2^-K: eps must exceed it, and case 4 adds it to 1."""
        return Fraction(self.n1, 2 * self.n2) + TWO ** (-self.K)

    @property
    def universe(self) -> int:
        """The layout's coordinates: its slots plus the distinguished pair."""
        return _n_slots(self, self.m2) + 2


def validate_params(p: EltonParams) -> dict:
    """Check the conditions behind the case bounds: the scales they cover
    and the two smallness conditions.

    The case bounds are derived at scales (m1, m2) = (1, 2) only; at other
    scales the exact DP exceeds them on layouts inside the cap, so no
    certificate is given there. Layouts at any scales can still be built.
    """
    failures = []
    if (p.m1, p.m2) != (1, 2):
        failures.append(f"the case bounds cover scales (m1, m2) = (1, 2) only, "
                        f"got ({p.m1}, {p.m2})")
    if not p.slack < p.eps:
        failures.append(f"n1/(2 n2) + 2^-K = {p.slack} is not < eps = {p.eps}")
    crowd = Fraction(2 * p.n1 + p.n2, p.n1 * 2 ** p.K)
    if not crowd < 1:
        failures.append(f"(2 n1 + n2)/(n1 2^K) = {crowd} is not < 1")
    if not p.n1 < p.n2:
        failures.append(f"need n1 < n2, got {p.n1} >= {p.n2}")
    return {"ok": not failures, "failures": failures}


def _n_slots(p: EltonParams, m2: int) -> int:
    """Slots of a layout whose finer scale is m2."""
    return (p.n1 + p.n2) * 2 ** (p.K * m2 - 1)


class LayoutVector(Record):
    """Vector constant on each layout region."""
    at_first: Fraction
    at_second: Fraction
    on_e1: Fraction
    on_e2: Fraction

    def sup_norm(self) -> Fraction:
        return max(abs(self.at_first), abs(self.at_second),
                   abs(self.on_e1), abs(self.on_e2))

    def pairing(self) -> Fraction:
        """Value of the layout's canonical functional on this vector: 1/2 and
        1 at the distinguished pair, u1 on E1 and u2 on E2. u1*|E1| = u2*|E2|
        = 1, so each block adds its value once, whatever the layout."""
        return self.at_first / 2 + self.at_second + self.on_e1 + self.on_e2


# the standard vector x = -1/2 e_1 + 1/2 e_2 + 1/2 on E1 + 1/4 on E2 and its
# companion, which drops the negative coordinate
STANDARD_PAIR = (
    LayoutVector(Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)),
    LayoutVector(Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)))


def quasi_pair(alpha: Fraction) -> tuple[LayoutVector, LayoutVector]:
    """y = -alpha e_1 + e_2 + 1 on E1 + 2/3 on E2 and its companion, which
    drops coordinate 1; at alpha < 2/3 the companion equals the threshold
    projection of y at level 2/3."""
    if not (0 < alpha <= 1):
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    return (LayoutVector(-alpha, Fraction(1), Fraction(1), Fraction(2, 3)),
            LayoutVector(Fraction(0), Fraction(1), Fraction(1), Fraction(2, 3)))


def case_bounds(p: EltonParams) -> dict:
    """The four shape-case upper bounds for the standard vector's norm.

    Case 1: both distinguished coordinates hit. Case 2: the heavy coordinate
    lands before the second distinguished one. Case 3: it lands beyond.
    Case 4: the light coordinate misses. The maximum is always case 4 under
    valid parameters.
    """
    c1 = 1 + Fraction(p.n1, 2 * p.n2)
    c2 = Fraction(1)
    c3 = Fraction(3, 4) + Fraction(2 * p.n1 + p.n2, 4 * p.n1 * 2 ** p.K)
    c4 = 1 + p.slack
    return {"case1": c1, "case2": c2, "case3": c3, "case4": c4,
            "max": max(c1, c2, c3, c4)}


def quasi_case_bounds(p: EltonParams, alpha: Fraction) -> dict:
    """Norm upper bounds for the quasi variant, same case scheme.

    Both-coordinates shape: pinned part (1 - alpha/2), block mass at most
    1*(1 + n1/n2) on E1-values plus 2/3 on E2-values. Beyond-universe heavy
    coordinate: pinned at most 3/2, slot values at most u1 of level m2+1,
    total coefficient mass (n1 + 2 n2/3) 2^(K m2 - 1) against it.
    """
    q1 = Fraction(8, 3) - alpha / 2 + Fraction(p.n1, p.n2)
    q3 = Fraction(3, 2) + (p.n1 + Fraction(2, 3) * p.n2) / (p.n1 * 2 ** p.K)
    return {"case_both": q1, "case_beyond": q3, "max": max(Fraction(1), q1, q3)}


# ------------------------------------------------------------ slot sequences

def _slot_runs(p: EltonParams, a: int, b: int, count: int) -> tuple[list[tuple[int, int]], int]:
    """The first `count` slots of the (a, b)-shaped tiling as runs (value,
    length), values ints over the unit lcm(n1, n2) 2^(Kb-1): u1 on the
    I-runs, u2 on the J-runs.

    Returns (runs, unit).
    """
    l = lcm(p.n1, p.n2)
    tile = ((l // p.n1, p.n1 * 2 ** (p.K * (b - a))), (l // p.n2, p.n2 * 2 ** (p.K * (b - a))))
    left = min(count, _n_slots(p, b))
    out: list[tuple[int, int]] = []
    while left:
        for value, length in tile:
            take = min(length, left)
            if take:
                out.append((value, take))
                left -= take
    return out, l * 2 ** (p.K * b - 1)


def _check_runs(p: EltonParams) -> None:
    """Refuse more value runs, 2 + 2^(K m1), than the pieces cap (each adds
    a piece to every shape it extends), before anything computes with 2^K."""
    check_cap("layout_pieces", 2 + (1 << p.K * p.m1), "layout value runs")


def _value_runs(p: EltonParams, v: LayoutVector) -> list[tuple[Fraction, int]]:
    """v on p's layout as value runs (value, length) from coordinate 1."""
    _check_runs(p)
    run = 2 ** (p.K * (p.m2 - p.m1))
    return ([(v.at_first, 1), (v.at_second, 1)]
            + [(v.on_e1, p.n1 * run), (v.on_e2, p.n2 * run)] * 2 ** (p.K * p.m1 - 1))


# ------------------------------------------------------------ structured dp
#
# A shape's block total with K slots placed, f(K), is kept as pieces
# (lo, hi, v, m): f(K) = v + m (K - lo) for the ints K in lo..hi, the pieces
# covering 0..D in order. The slot prefix sum S is kept the same way.


def _slot_prefix(slot_runs: list[tuple[int, int]]) -> list[tuple[int, int, int, int]]:
    """S(K), the sum of the first K slots, as pieces over 0..n: the point
    K = 0, then one piece per slot run."""
    S = [(0, 0, 0, 0)]
    for value, length in slot_runs:
        lo, hi, v, m = S[-1]
        S.append((hi + 1, hi + length, v + m * (hi - lo) + value, value))
    return S


def _append_piece(pieces, lo: int, hi: int, v: int, m: int) -> None:
    """Append piece lo..hi to the pieces ending at lo - 1, merged into the
    last one where the values stay on one line (a one-point piece takes
    the slope that continues it)."""
    if pieces:
        plo, phi, pv, pm = pieces[-1]
        if plo == phi:
            pm = v - pv
        if pv + pm * (lo - plo) == v and (lo == hi or m == pm):
            pieces[-1] = (plo, hi, pv, pm)
            return
    pieces.append((lo, hi, v, m))


def _run_step(f, S, x: int, r: int):
    """One value run (x, r): g(K) = x S(K) + max over K - r <= K' <= K of
    h(K'), h = f - x S, for K up to min(D + r, n). Returns (g, h).

    The max over a window of the piecewise-linear h sits at a window end or
    at a piece's own maximum (its right end if its slope is >= 0, else its
    left end). Such a maximum enters the window where the right end alone
    no longer covers it and leaves where the left end alone covers it, so
    those points, the pieces of h and of h shifted by r, and the pieces of
    S cut 0..G into segments on each of which g is x S plus the upper
    envelope of three lines: h at the right end, h at the left end and the
    largest piece maximum inside, a constant kept in a monotone deque.
    """
    D = f[-1][1]
    n = S[-1][1]
    G = min(D + r, n)
    h = []
    si = 0
    slo, shi, sv, sm = S[0]
    for lo, hi, v, m in f:
        k = lo
        while True:
            while shi < k:
                si += 1
                slo, shi, sv, sm = S[si]
            e = hi if hi < shi else shi
            _append_piece(h, k, e, v + m * (k - lo) - x * (sv + sm * (k - slo)), m - x * sm)
            if e == hi:
                break
            k = e + 1
    # a piece's maximum enters at its left end, or past its right end
    enter = [(lo, v) if m < 0 else (hi + 1, v + m * (hi - lo)) for lo, hi, v, m in h]
    cuts = {lo for lo, _, _, _ in h}
    cuts.update(lo + r for lo, _, _, _ in h if lo + r <= G)
    cuts.update(lo for lo, _, _, _ in S if lo <= G)
    if D < G:
        cuts.add(D + 1)
    cuts = sorted(cuts)
    cuts.append(G + 1)
    g: list[tuple[int, int, int, int]] = []
    window: deque[tuple[int, int]] = deque()   # (leaves at, value), values falling
    ia = ib = ie = si = 0
    slo, shi, sv, sm = S[0]
    for idx in range(len(cuts) - 1):
        k0, k1 = cuts[idx], cuts[idx + 1] - 1
        while ie < len(enter) and enter[ie][0] <= k0:
            at, val = enter[ie]
            while window and window[-1][1] <= val:
                window.pop()
            window.append((at + r, val))
            ie += 1
        while window and window[0][0] <= k0:
            window.popleft()
        lines = [(window[0][1], 0)] if window else []
        if k0 <= D:
            while h[ia][1] < k0:
                ia += 1
            lo, _, v, m = h[ia]
            lines.append((v + m * (k0 - lo), m))
        if k0 >= r:
            while h[ib][1] < k0 - r:
                ib += 1
            lo, _, v, m = h[ib]
            lines.append((v + m * (k0 - r - lo), m))
        while shi < k0:
            si += 1
            slo, shi, sv, sm = S[si]
        base, xs = x * (sv + sm * (k0 - slo)), x * sm
        # the upper envelope on k0..k1, lines as (value at K, slope)
        K = k0
        while True:
            c, m = max(lines)
            end = k1
            for c2, m2 in lines:
                if m2 > m:
                    t = K - 1 + (c - c2 + m2 - m - 1) // (m2 - m)
                    if t < end:
                        end = t
            _append_piece(g, K, end, c + base + xs * (K - k0), m + xs)
            if end == k1:
                break
            lines = [(c2 + m2 * (end + 1 - K), m2) for c2, m2 in lines]
            K = end + 1
    return g, h


def _piece_max(pieces, lo_bound: int, hi_bound: int) -> tuple[int, int]:
    """(value, K) of the largest maximiser of the pieces on lo_bound..hi_bound."""
    best = None
    for lo, hi, v, m in pieces:
        if hi < lo_bound:
            continue
        if lo > hi_bound:
            break
        k = min(hi, hi_bound) if m >= 0 else max(lo, lo_bound)
        if best is None or v + m * (k - lo) >= best[0]:
            best = (v + m * (k - lo), k)
    return best


def _block_max(slot_runs, runs, spent: int):
    """Max of sum slot_j * value(c_j) over increasing coordinate choices, the
    coordinates given as value runs (x, r) and the slots as slot runs.

    Slots consume in order and placement is optional, so a run of r equal
    values x that takes slots K'+1..K (K - K' <= r) adds x (S(K) - S(K')),
    S being the slot prefix sum, and each run is one `_run_step`. `spent`
    pieces were built earlier in the call; the cap bounds them with these.
    Returns (best, S, h of each run, final f, pieces built).
    """
    S = _slot_prefix(slot_runs)
    f = [(0, 0, 0, 0)]
    hs = []
    built = 0
    for x, r in runs:
        f, h = _run_step(f, S, x, r)
        hs.append(h)
        built += len(f)
        check_cap("layout_pieces", spent + built, "structured dp pieces")
    return _piece_max(f, 0, f[-1][1])[0], S, hs, f, built


def _block_spans(S, slot_runs, runs, hs, f, first: int):
    """One optimal placement as (coord_from, coord_to, slot value) spans,
    last run first: each run takes the largest maximiser K' of its window,
    the deque DP's tie rule, and puts slots K'+1..K on its leftmost
    coordinates. `first` is the first run's first coordinate."""
    best, j = _piece_max(f, 0, f[-1][1])
    end = first + sum(r for _, r in runs)
    per_run = []
    total = 0
    for (x, r), h in zip(reversed(runs), reversed(hs)):
        end -= r
        _, k = _piece_max(h, max(0, j - r), min(j, h[-1][1]))
        spans = []
        for (lo, hi, _, _), (value, _) in zip(S[1:], slot_runs):
            lo, hi = max(lo, k + 1), min(hi, j)
            if lo <= hi:
                spans.append((end + lo - k - 1, end + hi - k - 1, value))
                total += x * value * (hi - lo + 1)
        per_run.append(spans)
        j = k
    if j != 0 or total != best:
        raise InternalError("dp backtrack lost the optimal path")
    out: list[tuple[int, int, int]] = []
    for lo, hi, value in (span for spans in reversed(per_run) for span in spans):
        if out and out[-1][1] == lo - 1 and out[-1][2] == value:
            out[-1] = (out[-1][0], hi, value)
        else:
            out.append((lo, hi, value))
    return out


def structured_dp(p: EltonParams, runs) -> tuple[Fraction, dict, int]:
    """Family maximum via per-shape slot-placement DP with sound pruning.

    runs are the vector's value runs (value, length) from coordinate 1, and
    the universe is their total length. Returns the maximum, its witness
    and the DP pieces built, which the layout_pieces cap bounds.

    Integer-scaled: the run values are put over their common denominator s
    once, and shape (a, b)'s slots are ints over the unit lcm(n1, n2)
    2^(Kb-1), so the DP, the bounds and the half-coefficient scan run on
    ints and a Fraction is built only for each solved shape's value and the
    witness. A shape's DP keeps f piecewise linear over the value runs
    above b and the slot runs (`_run_step`), so its cost is f's pieces.
    Shapes are screened by the upper bound 1/2 max_half + pinned_b +
    tail(b), where tail(b) bounds every slot by the shape's largest slot
    value (the sparser side's unit 1/(min(n1,n2) 2^(Kb-1))) against the
    positive coefficient mass above b. Inside a value run the bound of b
    does not rise past the run's second coordinate, so a heap of each run's
    next b visits the b in bound order (ties by b), and expansion stops once
    bounds fall under the incumbent; a's are scanned by positive part, run
    by run.
    """
    s, ints = _common_denominator([x for x, _ in runs])
    first = list(accumulate((r for _, r in runs), initial=1))   # run i is first[i]..first[i+1]-1
    N = first[-1] - 1
    # every bound is an int at the scale 2 s min(n1,n2) 2^200; slot
    # exponents are clamped at 200 for cheap bounds
    top = min(p.n1, p.n2) << 200
    scale = 2 * s * top
    best = Fraction(0)
    best_wit: dict = {"kind": "zero"}
    pieces = 0

    for sigma in (1, -1):
        sv_runs = [(sigma * x, r) for x, (_, r) in zip(ints, runs)]
        sv = [x for x, _ in sv_runs]
        pos = [max(x, 0) for x in sv]
        # positive mass above each run, and the largest positive part before it
        above = list(accumulate((pos[i] * runs[i][1] for i in reversed(range(len(sv)))),
                                initial=0))[-2::-1]
        before = list(accumulate(pos, max, initial=0))
        half = max(sv)
        if Fraction(half, 2 * s) > best:   # the first coordinate attaining it
            best = Fraction(half, 2 * s)
            best_wit = {"kind": "half_only", "a": first[sv.index(half)], "sigma": sigma}

        def tail_term(b: int, i: int) -> int:
            # the slots above b, each at most the sparser side's unit
            mass = above[i] + pos[i] * (first[i + 1] - 1 - b)
            return (2 * mass) << (200 - min(p.K * b - 1, 200))

        def b_bound(b: int, i: int) -> int:
            lead = before[i] if b == first[i] else max(before[i], pos[i])
            return top * (lead + 2 * pos[i]) + tail_term(b, i)

        heap = [(-b_bound(b, i), b, i) for i in range(len(sv))
                for b in (first[i], first[i] + 1) if 2 <= b < first[i + 1]]
        heapify(heap)
        by_half = sorted(range(len(sv)), key=lambda i: pos[i], reverse=True)
        while heap:
            bound, b, i = heappop(heap)
            if -bound <= best * scale:
                break
            if first[i] < b < first[i + 1] - 1:
                heappush(heap, (-b_bound(b + 1, i), b + 1, i))
            tail_b = tail_term(b, i)
            rest = first[i + 1] - 1 - b
            above_b = ([(sv[i], rest)] if rest else []) + sv_runs[i + 1:]
            for ia, a in ((ia, a) for ia in by_half
                          for a in range(first[ia], min(first[ia + 1], b))):
                if top * (pos[ia] + 2 * pos[i]) + tail_b <= best * scale:
                    break
                # exact DP for shape (a, b): a slot times a value is over s * unit
                slot_runs, unit = _slot_runs(p, a, b, N - b)
                blk, S_b, hs, f, built = _block_max(slot_runs, above_b, pieces)
                pieces += built
                value = Fraction((sv[ia] + 2 * sv[i]) * unit + 2 * blk, 2 * s * unit)
                if value > best:
                    best = value
                    best_wit = {"kind": "shape", "a": a, "b": b, "sigma": sigma,
                                "block_value": Fraction(blk, s * unit)}
                    best_block = (S_b, slot_runs, above_b, hs, f, unit)
    if best_wit["kind"] == "shape":
        S_b, slot_runs, above_b, hs, f, unit = best_block
        best_wit["assignment_spans"] = [
            (lo, hi, Fraction(x, unit))
            for lo, hi, x in _block_spans(S_b, slot_runs, above_b, hs, f, best_wit["b"] + 1)]
    return best, best_wit, pieces


# ------------------------------------------------------------- certificates

def _certify(p: EltonParams, pair, bound: Fraction) -> tuple[dict, dict]:
    """Norms of a (vector, companion) pair on p's layout, for params that
    pass validate_params; `pair()` gives the pair once they do.

    The exact family DP runs on both vectors. The vector's family maximum
    must not exceed its derived case bound, and its sup term is at most
    every case maximum, so norm_minus is itself an upper bound on the
    vector's norm. Returns the report entries and the DP's witnesses.
    """
    check = validate_params(p)
    if not check["ok"]:
        raise DomainError("; ".join(check["failures"]))
    minus, plus = pair()
    num, wit_plus, _ = structured_dp(p, _value_runs(p, plus))
    den, wit_minus, _ = structured_dp(p, _value_runs(p, minus))
    if den > bound:
        raise InternalError(f"family dp value {den} exceeds the case bound {bound}; "
                            "bounds unsound")
    out = {"params": p, "universe": p.universe, "verification": "dp",
           "norm_plus_lower": max(plus.sup_norm(), num),
           "norm_minus_upper": max(minus.sup_norm(), den)}
    out["ratio_lower"] = out["norm_plus_lower"] / out["norm_minus_upper"]
    return out, {"witness_plus": wit_plus, "witness_minus": wit_minus}


def k_lower_certificate(p: EltonParams) -> dict:
    """Certified ratio ||companion|| / ||vector|| for the standard pair: the
    canonical pairing gives the companion 5/4 and the vector 1."""
    _check_runs(p)
    bounds = case_bounds(p)
    out, witnesses = _certify(p, lambda: STANDARD_PAIR, bounds["max"])
    minus, plus = STANDARD_PAIR
    return {**out, **witnesses, "case_bounds": bounds,
            "ratio_case": plus.pairing() / bounds["max"],
            "pairing_plus": plus.pairing(), "pairing_minus": minus.pairing()}


def quasi_certificate(p: EltonParams, alpha: Fraction) -> dict:
    """Certified ratio for the quasi variant plus the threshold diagnosis.

    Numerator pairing: 1 + 1 + 2/3 = 8/3 against the canonical functional.
    Denominator: derived case bounds (or exact DP within cap). The companion
    equals the level-2/3 threshold projection exactly when alpha < 2/3;
    at alpha = 2/3 the dropped coordinate ties into the threshold set.
    """
    _check_runs(p)
    qb = quasi_case_bounds(p, alpha)
    out, _ = _certify(p, lambda: quasi_pair(alpha), qb["max"])
    target = Fraction(8, 7) - p.slack
    return {**out, "alpha": alpha, "quasi_case_bounds": qb,
            "eps_instance": p.slack, "target": target,
            "threshold_projection_is_plus_vector": alpha < Fraction(2, 3),
            "threshold_tie_at_alpha": alpha == Fraction(2, 3),
            "passes_target": out["ratio_lower"] > target}


def elton_ladder() -> list[dict]:
    """Shipped parameter ladder with monotone certified ratios."""
    rungs = [
        EltonParams(1, 8, 4, Fraction(13, 100)),
        EltonParams(1, 16, 6, Fraction(1, 20)),
        EltonParams(1, 64, 8, Fraction(1, 50)),
    ]
    return [k_lower_certificate(p) for p in rungs]
