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
"""

from __future__ import annotations

from array import array
from collections import deque
from fractions import Fraction
from itertools import accumulate, groupby
from math import lcm

from .caps import check_cap, load_caps
from .errors import DomainError, InternalError, SizeError
from .norms import SparseVector
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


def validate_params(p: EltonParams) -> dict:
    """Check the two smallness conditions behind the case bounds."""
    failures = []
    slack = Fraction(p.n1, 2 * p.n2) + TWO ** (-p.K)
    if not slack < p.eps:
        failures.append(f"n1/(2 n2) + 2^-K = {slack} is not < eps = {p.eps}")
    crowd = Fraction(2 * p.n1 + p.n2, p.n1 * 2 ** p.K)
    if not crowd < 1:
        failures.append(f"(2 n1 + n2)/(n1 2^K) = {crowd} is not < 1")
    if not p.n1 < p.n2:
        failures.append(f"need n1 < n2, got {p.n1} >= {p.n2}")
    return {"ok": not failures, "failures": failures}


class EltonLayout(Record):
    params: EltonParams
    universe: int          # n_slots + 2
    n_slots: int
    rounds: int
    i_len: int
    j_len: int
    u1: Fraction
    u2: Fraction
    e1_size: int
    e2_size: int

    def region(self, c: int) -> str:
        if c == 1:
            return "first"
        if c == 2:
            return "second"
        if not (3 <= c <= self.universe):
            raise DomainError(f"coordinate {c} outside universe 1..{self.universe}")
        offset = (c - 3) % (self.i_len + self.j_len)
        return "E1" if offset < self.i_len else "E2"


def _n_slots(p: EltonParams, m2: int) -> int:
    """Slots of a layout whose finer scale is m2 (the universe is this + 2)."""
    return (p.n1 + p.n2) * 2 ** (p.K * m2 - 1)


def build_layout(p: EltonParams) -> EltonLayout:
    m1, m2 = p.m1, p.m2
    n_slots = _n_slots(p, m2)
    universe = n_slots + 2
    check_cap(universe, load_caps().layout_universe, "layout universe")
    i_len = p.n1 * 2 ** (p.K * (m2 - m1))
    j_len = p.n2 * 2 ** (p.K * (m2 - m1))
    rounds = 2 ** (p.K * m1 - 1)
    e1_size = p.n1 * 2 ** (p.K * m2 - 1)
    e2_size = p.n2 * 2 ** (p.K * m2 - 1)
    return EltonLayout(
        params=p, universe=universe, n_slots=n_slots, rounds=rounds,
        i_len=i_len, j_len=j_len,
        u1=Fraction(1, p.n1 * 2 ** (p.K * m2 - 1)),
        u2=Fraction(1, p.n2 * 2 ** (p.K * m2 - 1)),
        e1_size=e1_size, e2_size=e2_size,
    )


class LayoutVector(Record):
    """Vector constant on each layout region."""
    at_first: Fraction
    at_second: Fraction
    on_e1: Fraction
    on_e2: Fraction

    def value(self, layout: EltonLayout, c: int) -> Fraction:
        region = layout.region(c)
        if region == "first":
            return self.at_first
        if region == "second":
            return self.at_second
        return self.on_e1 if region == "E1" else self.on_e2

    def sup_norm(self) -> Fraction:
        return max(abs(self.at_first), abs(self.at_second),
                   abs(self.on_e1), abs(self.on_e2))


class StructuredFunctional(Record):
    """The canonical dual vector of a layout: 1/2 and 1 at the distinguished
    pair, u1 on E1, u2 on E2. u1*|E1| = u2*|E2| = 1."""
    u1: Fraction
    u2: Fraction

    def pair_layout_vector(self, layout: EltonLayout, v: LayoutVector) -> Fraction:
        return (Fraction(1, 2) * v.at_first + v.at_second
                + self.u1 * layout.e1_size * v.on_e1
                + self.u2 * layout.e2_size * v.on_e2)


class VectorTriple(Record):
    minus: LayoutVector
    plus: LayoutVector
    functional: StructuredFunctional
    variant: str
    alpha: Fraction | None = None


def build_vectors(layout: EltonLayout, variant: str = "standard",
                  alpha: Fraction | None = None) -> VectorTriple:
    """The distinguished vector, its positive-part companion, and the dual.

    standard: x = -1/2 e_1 + 1/2 e_2 + 1/2 on E1 + 1/4 on E2; the companion
    drops the negative coordinate. quasi(alpha): y = -alpha e_1 + e_2 +
    1 on E1 + 2/3 on E2, companion drops coordinate 1; at alpha < 2/3 the
    companion equals the threshold projection of y at level 2/3.
    """
    f = StructuredFunctional(layout.u1, layout.u2)
    if variant == "standard":
        if alpha is not None:
            raise DomainError("alpha applies to the quasi variant only")
        x = LayoutVector(Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))
        xp = LayoutVector(Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))
        return VectorTriple(x, xp, f, "standard")
    if variant == "quasi":
        if alpha is None:
            raise DomainError("quasi variant needs alpha")
        if not (0 < alpha <= 1):
            raise DomainError(f"alpha must be in (0, 1], got {alpha}")
        y = LayoutVector(-alpha, Fraction(1), Fraction(1), Fraction(2, 3))
        yp = LayoutVector(Fraction(0), Fraction(1), Fraction(1), Fraction(2, 3))
        return VectorTriple(y, yp, f, "quasi", alpha)
    raise DomainError(f"unknown variant {variant!r}")


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
    c4 = 1 + Fraction(p.n1, 2 * p.n2) + TWO ** (-p.K)
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

def _slot_tiling(p: EltonParams, a: int, b: int, count: int) -> tuple[list[int], int]:
    """First `count` slot values of the (a, b)-shaped tiling, as integers
    over the unit lcm(n1, n2) 2^(Kb-1): u1 on the I-runs, u2 on the J-runs.

    Returns (slots, unit).
    """
    l = lcm(p.n1, p.n2)
    i_len = p.n1 * 2 ** (p.K * (b - a))
    j_len = p.n2 * 2 ** (p.K * (b - a))
    count = min(count, _n_slots(p, b))
    out: list[int] = []
    while len(out) < count:
        out += [l // p.n1] * min(i_len, count - len(out))
        out += [l // p.n2] * min(j_len, count - len(out))
    return out, l * 2 ** (p.K * b - 1)


def _dense_values(layout: EltonLayout, v) -> list[Fraction]:
    if isinstance(v, LayoutVector):
        return [Fraction(0)] + [v.value(layout, c) for c in range(1, layout.universe + 1)]
    if isinstance(v, SparseVector):
        dense = [Fraction(0)] * (layout.universe + 1)
        for c, val in v.entries:
            if c > layout.universe:
                raise DomainError(f"coordinate {c} outside universe 1..{layout.universe}")
            dense[c] = val
        return dense
    raise DomainError("vector must be a LayoutVector or SparseVector")


# ------------------------------------------------------------------- brute

def brute_miniature(layout: EltonLayout, v) -> tuple[Fraction, dict]:
    """Exhaustive family maximum for small universes.

    For every sign, shape (a, b), and subset of coordinates above b, assigns
    the shape's slot values in order to the subset's coordinates (a prefix of
    the slot sequence; shorter subsets are the slot truncations) and takes
    the best total. Half-coefficient-only candidates cover truncations that
    cut before b.

    Kept apart from structured_dp's scaling and tiling: every candidate is
    an int at the scale d * W, with d the values' common denominator and
    W = lcm(n1, n2) 2^(K N), at which the coefficients 1/2 and 1 and every
    slot value 1/(n 2^(Kb-1)), b <= N, are ints.
    """
    N = layout.universe
    check_cap(N, load_caps().brute_universe, "brute universe")
    vals = _dense_values(layout, v)
    p = layout.params
    d = lcm(*(x.denominator for x in vals))
    l = lcm(p.n1, p.n2)
    W = l << (p.K * N)
    best = 0
    best_wit: dict = {"kind": "zero"}
    for sigma in (1, -1):
        sv = [sigma * x.numerator * (d // x.denominator) for x in vals]
        for a in range(1, N + 1):
            if W // 2 * sv[a] > best:
                best = W // 2 * sv[a]
                best_wit = {"kind": "half_only", "a": a, "sigma": sigma}
        for a in range(1, N + 1):
            for b in range(a + 1, N + 1):
                # slot j lies in an I-run (value u1) or a J-run (u2); the runs
                # hold n1 2^(K(b-a)) and n2 2^(K(b-a)) slots
                run = 2 ** (p.K * (b - a))
                count = min(N - b, (p.n1 + p.n2) * 2 ** (p.K * b - 1))
                slots = [(l // p.n1 if j % ((p.n1 + p.n2) * run) < p.n1 * run
                          else l // p.n2) << (p.K * (N - b) + 1) for j in range(count)]
                above = sv[b + 1:]

                def rec(idx: int, slot_i: int, acc: int):
                    nonlocal best, best_wit
                    if acc > best:
                        best = acc
                        best_wit = {"kind": "shape", "a": a, "b": b,
                                    "sigma": sigma, "slots_used": slot_i}
                    if idx >= len(above) or slot_i >= len(slots):
                        return
                    rec(idx + 1, slot_i, acc)
                    rec(idx + 1, slot_i + 1, acc + slots[slot_i] * above[idx])

                rec(0, 0, W // 2 * sv[a] + W * sv[b])
    return Fraction(best, d * W), best_wit


# ------------------------------------------------------------ structured dp

_DP_CELL_BUDGET = 30_000_000   # value-run-by-slot DP cells one call may fill


def _block_max_runs(slot_nums: list[int], runs: list[tuple[int, int]]):
    """Max of sum slot_j * value(c_j) over increasing coordinate choices.

    Slots consume in order and placement is optional, so a run of r equal
    values x that takes slots K'+1..K (K - K' <= r) adds x (S(K) - S(K')),
    S being the slot prefix sum. With f(K) the best total with exactly K
    slots placed, run A = (x, r) gives
        f_A(K) = x S(K) + max over K - r <= K' <= K of (f_{A-1}(K') - x S(K')),
    the window max kept in a monotone deque that keeps the largest K' among
    ties. Returns (best, final f, argmax), f[K] being None where fewer than
    K coordinates exist and argmax[A][K] the K' that run A's f(K) extends.
    """
    n_slots = len(slot_nums)
    S = list(accumulate(slot_nums, initial=0))
    f: list[int | None] = [0] + [None] * n_slots
    seen = 0
    argmax: list[array] = []
    for x, r in runs:
        lim = min(seen, n_slots)
        h = [f[k] - x * S[k] for k in range(lim + 1)]
        window: deque[int] = deque()
        g: list[int | None] = []
        arg = array("I")
        for K in range(min(seen + r, n_slots) + 1):
            if K <= lim:
                hk = h[K]
                while window and h[window[-1]] <= hk:
                    window.pop()
                window.append(K)
            k = window[0]
            if k < K - r:
                window.popleft()
                k = window[0]
            g.append(h[k] + x * S[K])
            arg.append(k)
        f = g + [None] * (n_slots + 1 - len(g))
        argmax.append(arg)
        seen += r
    return max(m for m in f if m is not None), f, argmax


def _backtrack_runs(slot_nums, runs, f_final, argmax, coords_base):
    """Recover one optimal slot->coordinate assignment, last run first: the
    run's argmax gives the slots it took, put on its leftmost coordinates."""
    best = max(m for m in f_final if m is not None)
    j = max(idx for idx, m in enumerate(f_final) if m == best)
    end = coords_base + sum(r for _, r in runs)
    assignment: list[tuple[int, int]] = []  # (slot index 1-based, coordinate)
    total = 0
    for (x, r), arg in zip(reversed(runs), reversed(argmax)):
        end -= r
        k = arg[j]
        assignment += [(slot, end + slot - k - 1) for slot in range(j, k, -1)]
        total += x * sum(slot_nums[k:j])
        j = k
    if j != 0 or total != best:
        raise InternalError("dp backtrack lost the optimal path")
    assignment.reverse()
    return assignment


def _spans_from_assignment(assignment, slot_values):
    """Compress (slot, coord) pairs into (coord_from, coord_to, value) spans."""
    spans = []
    for slot_j, coord in assignment:
        val = slot_values[slot_j - 1]
        if spans and spans[-1][1] == coord - 1 and spans[-1][2] == val:
            spans[-1] = (spans[-1][0], coord, val)
        else:
            spans.append((coord, coord, val))
    return spans


def structured_dp(layout: EltonLayout, v) -> tuple[Fraction, dict]:
    """Family maximum via per-shape slot-placement DP with sound pruning.

    Integer-scaled: the vector is put over its common denominator s once,
    and shape (a, b)'s slots are ints over the unit lcm(n1, n2) 2^(Kb-1), so
    the DP, the bounds and the half-coefficient scan run on ints and a
    Fraction is built only for each solved shape's value and the witness.
    A shape's DP runs over the value runs of the coordinates above b, so it
    fills value runs x slots cells, and that count is what the cell budget
    caps; a region-constant vector has few runs.
    Shapes are screened by the upper bound 1/2 max_half + pinned_b + tail(b),
    where tail(b) bounds every slot by the shape's largest slot value (the
    sparser side's unit 1/(min(n1,n2) 2^(Kb-1))) against the positive
    coefficient mass above b. Shapes are visited in bound order and
    expansion stops once bounds fall under the incumbent.
    """
    N = layout.universe
    p = layout.params
    s, vals = _common_denominator(_dense_values(layout, v))
    # every bound is an int at the scale S = 2 s min(n1,n2) 2^200; slot
    # exponents are clamped at 200 for cheap bounds
    top = min(p.n1, p.n2) << 200
    S = 2 * s * top
    best = Fraction(0)
    best_wit: dict = {"kind": "zero"}
    cells_used = 0

    for sigma in (1, -1):
        sv = [sigma * x for x in vals]
        pos = [max(x, 0) for x in sv]
        # positive mass at and above each coordinate, 0 past the universe
        tail = list(accumulate(reversed(pos), initial=0))[::-1]
        prefmax = list(accumulate(pos, max))
        half = max(sv[1:])
        if Fraction(half, 2 * s) > best:   # the first coordinate attaining it
            best = Fraction(half, 2 * s)
            best_wit = {"kind": "half_only", "a": sv.index(half, 1), "sigma": sigma}

        def tail_term(b: int) -> int:
            # the slots above b, each at most the sparser side's unit
            return (2 * tail[b + 1]) << (200 - min(p.K * b - 1, 200))

        b_bounds = sorted(((top * (prefmax[b - 1] + 2 * pos[b]) + tail_term(b), b)
                           for b in range(2, N + 1)), key=lambda t: t[0], reverse=True)
        order_by_half = sorted(range(1, N + 1), key=lambda c: pos[c], reverse=True)
        for bound, b in b_bounds:
            if bound <= best * S:
                break
            tail_b = tail_term(b)
            for a in order_by_half:
                if a >= b:
                    continue
                if top * (pos[a] + 2 * pos[b]) + tail_b <= best * S:
                    break
                # exact DP for shape (a, b): a slot times a value is over s * unit
                slots, unit = _slot_tiling(p, a, b, N - b)
                runs = [(x, sum(1 for _ in grp)) for x, grp in groupby(sv[b + 1:])]
                cells_used += len(runs) * len(slots)
                if cells_used > _DP_CELL_BUDGET:
                    raise SizeError("structured dp expansion exceeded its cell budget "
                                    f"of {_DP_CELL_BUDGET} cells")
                blk, f_final, argmax = _block_max_runs(slots, runs)
                value = Fraction((sv[a] + 2 * sv[b]) * unit + 2 * blk, 2 * s * unit)
                if value > best:
                    best = value
                    best_wit = {"kind": "shape", "a": a, "b": b, "sigma": sigma,
                                "block_value": Fraction(blk, s * unit)}
                    best_block = (slots, unit, runs, f_final, argmax)
    if best_wit["kind"] == "shape":
        slots, unit, runs, f_final, argmax = best_block
        assignment = _backtrack_runs(slots, runs, f_final, argmax, best_wit["b"] + 1)
        best_wit["assignment_spans"] = [
            (lo, hi, Fraction(x, unit))
            for lo, hi, x in _spans_from_assignment(assignment, slots)]
    return best, best_wit


# ------------------------------------------------------------- certificates

def _validated_universe(p: EltonParams) -> int:
    """Universe of the standard layout for params that pass validate_params."""
    check = validate_params(p)
    if not check["ok"]:
        raise DomainError("; ".join(check["failures"]))
    return _n_slots(p, p.m2) + 2


def _dp_norms(layout: EltonLayout, triple: VectorTriple, bound: Fraction):
    """Norms of a triple's companion and vector by the exact family DP.

    The vector's family maximum must not exceed its derived case bound, and
    its sup term (1/2 standard, 1 quasi) is at most every case maximum, so
    norm_minus is itself an upper bound on the vector's norm.
    Returns (norm_plus, norm_minus, witness_plus, witness_minus).
    """
    num, num_wit = structured_dp(layout, triple.plus)
    den, den_wit = structured_dp(layout, triple.minus)
    if den > bound:
        raise InternalError(
            f"{triple.variant} family dp exceeded the case bound; bounds unsound")
    return (max(triple.plus.sup_norm(), num), max(triple.minus.sup_norm(), den),
            num_wit, den_wit)


def k_lower_certificate(p: EltonParams) -> dict:
    """Certified ratio ||companion|| / ||vector|| for the standard pair.

    Within the layout cap the exact family DP runs on both vectors and the
    case bounds cross-check the denominator. Beyond the cap the certificate
    is symbolic: the canonical pairing gives the numerator lower bound 5/4
    and the case-bound maximum caps the denominator.
    """
    universe = _validated_universe(p)
    bounds = case_bounds(p)
    out = {
        "params": p,
        "universe": universe,
        "case_bounds": bounds,
        "ratio_case": Fraction(5, 4) / bounds["max"],
    }
    if universe <= load_caps().layout_universe:
        layout = build_layout(p)
        triple = build_vectors(layout, "standard")
        norm_plus, norm_minus, num_wit, den_wit = _dp_norms(
            layout, triple, bounds["max"])
        out.update({
            "verification": "dp",
            "pairing_plus": triple.functional.pair_layout_vector(layout, triple.plus),
            "pairing_minus": triple.functional.pair_layout_vector(layout, triple.minus),
            "norm_plus_lower": norm_plus,
            "norm_minus_upper": norm_minus,
            "ratio_lower": norm_plus / norm_minus,
            "witness_plus": num_wit,
            "witness_minus": den_wit,
        })
    else:
        out.update({
            "verification": "symbolic",
            "pairing_plus": Fraction(5, 4),
            "pairing_minus": Fraction(1),
            "norm_plus_lower": Fraction(5, 4),
            "norm_minus_upper": bounds["max"],
            "ratio_lower": Fraction(5, 4) / bounds["max"],
        })
    return out


def quasi_certificate(p: EltonParams, alpha: Fraction) -> dict:
    """Certified ratio for the quasi variant plus the threshold diagnosis.

    Numerator pairing: 1 + 1 + 2/3 = 8/3 against the canonical functional.
    Denominator: derived case bounds (or exact DP within cap). The companion
    equals the level-2/3 threshold projection exactly when alpha < 2/3;
    at alpha = 2/3 the dropped coordinate ties into the threshold set.
    """
    universe = _validated_universe(p)
    if not (0 < alpha <= 1):
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    qb = quasi_case_bounds(p, alpha)
    eps_instance = Fraction(p.n1, 2 * p.n2) + TWO ** (-p.K)
    target = Fraction(8, 7) - eps_instance
    tie = alpha == Fraction(2, 3)
    out = {
        "params": p,
        "alpha": alpha,
        "universe": universe,
        "quasi_case_bounds": qb,
        "eps_instance": eps_instance,
        "target": target,
        "threshold_projection_is_plus_vector": alpha < Fraction(2, 3),
        "threshold_tie_at_alpha": tie,
    }
    if universe <= load_caps().layout_universe:
        layout = build_layout(p)
        norm_plus, norm_minus, _, _ = _dp_norms(
            layout, build_vectors(layout, "quasi", alpha), qb["max"])
        out.update({
            "verification": "dp",
            "norm_plus_lower": norm_plus,
            "norm_minus_upper": norm_minus,
            "ratio_lower": norm_plus / norm_minus,
        })
    else:
        num = Fraction(8, 3)
        out.update({
            "verification": "symbolic",
            "norm_plus_lower": num,
            "norm_minus_upper": qb["max"],
            "ratio_lower": num / qb["max"],
        })
    out["passes_target"] = out["ratio_lower"] > target
    return out


def elton_ladder() -> list[dict]:
    """Shipped parameter ladder with monotone certified ratios."""
    rungs = [
        EltonParams(1, 8, 4, Fraction(13, 100)),
        EltonParams(1, 16, 6, Fraction(1, 20)),
        EltonParams(1, 64, 8, Fraction(1, 50)),
    ]
    return [k_lower_certificate(p) for p in rungs]
