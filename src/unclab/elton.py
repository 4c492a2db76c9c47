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

    @property
    def slack(self) -> Fraction:
        """n1/(2 n2) + 2^-K: eps must exceed it, and case 4 adds it to 1."""
        return Fraction(self.n1, 2 * self.n2) + TWO ** (-self.K)


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


class EltonLayout(Record):
    params: EltonParams
    universe: int          # the slots plus the distinguished pair


def _n_slots(p: EltonParams, m2: int) -> int:
    """Slots of a layout whose finer scale is m2 (the universe is this + 2)."""
    return (p.n1 + p.n2) * 2 ** (p.K * m2 - 1)


def build_layout(p: EltonParams) -> EltonLayout:
    universe = _n_slots(p, p.m2) + 2
    check_cap("layout_universe", universe, "universe")
    return EltonLayout(p, universe)


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
        p = layout.params
        run = 2 ** (p.K * (p.m2 - p.m1))
        rounds = 2 ** (p.K * p.m1 - 1)
        return ([Fraction(0), v.at_first, v.at_second]
                + ([v.on_e1] * (p.n1 * run) + [v.on_e2] * (p.n2 * run)) * rounds)
    if isinstance(v, SparseVector):
        dense = [Fraction(0)] * (layout.universe + 1)
        for c, val in v.entries:
            if c > layout.universe:
                raise DomainError(f"coordinate {c} outside universe 1..{layout.universe}")
            dense[c] = val
        return dense
    raise DomainError("vector must be a LayoutVector or SparseVector")


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

def _certify(p: EltonParams, pair, bound: Fraction) -> tuple[dict, dict]:
    """Norms of a (vector, companion) pair on p's layout, for params that
    pass validate_params; `pair()` gives the pair once they do.

    Within the layout cap the exact family DP runs on both vectors. The
    vector's family maximum must not exceed its derived case bound, and its
    sup term is at most every case maximum, so norm_minus is itself an upper
    bound on the vector's norm. Beyond the cap the certificate is symbolic:
    the canonical pairing is the companion's lower bound and the case bound
    caps the vector. Returns the report entries and the DP's witnesses.
    """
    check = validate_params(p)
    if not check["ok"]:
        raise DomainError("; ".join(check["failures"]))
    minus, plus = pair()
    out = {"params": p, "universe": _n_slots(p, p.m2) + 2}
    witnesses = {}
    if out["universe"] <= load_caps().layout_universe:
        layout = build_layout(p)
        num, witnesses["witness_plus"] = structured_dp(layout, plus)
        den, witnesses["witness_minus"] = structured_dp(layout, minus)
        if den > bound:
            raise InternalError(f"family dp value {den} exceeds the case bound {bound}; "
                                "bounds unsound")
        out.update(verification="dp", norm_plus_lower=max(plus.sup_norm(), num),
                   norm_minus_upper=max(minus.sup_norm(), den))
    else:
        out.update(verification="symbolic", norm_plus_lower=plus.pairing(),
                   norm_minus_upper=bound)
    out["ratio_lower"] = out["norm_plus_lower"] / out["norm_minus_upper"]
    return out, witnesses


def k_lower_certificate(p: EltonParams) -> dict:
    """Certified ratio ||companion|| / ||vector|| for the standard pair: the
    canonical pairing gives the companion 5/4 and the vector 1."""
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
