"""Two-scale layout norms: exact DP vs exhaustive search, certificates, ladder."""

import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import brute_miniature
from unclab import elton
from unclab.elton import (
    STANDARD_PAIR,
    EltonLayout,
    EltonParams,
    LayoutVector,
    _backtrack_runs,
    _block_max_runs,
    _dense_values,
    _slot_tiling,
    build_layout,
    case_bounds,
    elton_ladder,
    k_lower_certificate,
    quasi_case_bounds,
    quasi_certificate,
    quasi_pair,
    structured_dp,
    validate_params,
)
from unclab.errors import DomainError, SizeError
from unclab.norms import SparseVector
from unclab.rationals import _common_denominator
from unclab.serialize import dump_json

P184 = EltonParams(1, 8, 4, F(13, 100))
P1648 = EltonParams(1, 64, 8, F(1, 50))


def test_params_validation():
    for bad in [dict(n1=0, n2=8, K=4, eps=F(1, 10)),
                dict(n1=1, n2=8, K=0, eps=F(1, 10)),
                dict(n1=1, n2=8, K=4, eps=F(1)),
                dict(n1=1, n2=8, K=4, eps=F(1, 10), m1=2, m2=2)]:
        with pytest.raises(DomainError):
            EltonParams(**bad)
    assert validate_params(P184)["ok"]
    # K = 1 makes the slack term 1/16 + 1/2 >= 13/100
    weak = validate_params(EltonParams(1, 8, 1, F(13, 100)))
    assert not weak["ok"] and weak["failures"]
    assert not validate_params(EltonParams(8, 1, 4, F(13, 100)))["ok"]


def test_layout_geometry_184():
    layout = build_layout(P184)
    assert EltonLayout._fields == ("params", "universe")
    assert layout == EltonLayout(P184, 1154)
    # a vector that marks each region: the distinguished pair, then rounds of
    # 16 coordinates in E1 and 128 in E2
    vals = _dense_values(layout, LayoutVector(F(-1), F(-2), F(1), F(2)))
    assert len(vals) == 1155 and vals[:3] == [0, -1, -2]
    assert vals[3:19] == [1] * 16 and vals[19] == 2
    assert vals[146:148] == [2, 1]  # the second round starts after 16 + 128
    assert (vals.count(1), vals.count(2)) == (128, 1024)


def test_vector_pairs_and_pairings():
    minus, plus = STANDARD_PAIR
    assert (minus.at_first, minus.at_second, minus.on_e1, minus.on_e2) == \
        (F(-1, 2), F(1, 2), F(1, 2), F(1, 4))
    assert plus.at_first == 0 and plus.on_e2 == F(1, 4)
    assert plus.pairing() == F(5, 4)
    assert minus.pairing() == 1
    qminus, qplus = quasi_pair(F(2, 3))
    assert (qminus.at_first, qminus.on_e2) == (F(-2, 3), F(2, 3))
    assert (qplus.at_first, qplus.at_second, qplus.on_e1, qplus.on_e2) == \
        (0, 1, 1, F(2, 3))
    assert qplus.pairing() == F(8, 3)
    for bad in (F(0), F(-1, 2), F(3, 2)):
        with pytest.raises(DomainError):
            quasi_pair(bad)


def test_case_bounds_frozen():
    cb = case_bounds(P184)
    assert cb == {"case1": F(17, 16), "case2": F(1), "case3": F(29, 32),
                  "case4": F(9, 8), "max": F(9, 8)}
    qb = quasi_case_bounds(P1648, F(2, 3))
    assert qb == {"case_both": F(451, 192), "case_beyond": F(1283, 768),
                  "max": F(451, 192)}


def test_k_lower_certificate_184():
    cert = k_lower_certificate(P184)
    assert sorted(cert) == [
        "case_bounds", "norm_minus_upper", "norm_plus_lower", "pairing_minus",
        "pairing_plus", "params", "ratio_case", "ratio_lower", "universe",
        "verification", "witness_minus", "witness_plus"]
    assert cert["universe"] == 1154
    assert cert["verification"] == "dp"
    assert cert["pairing_plus"] == F(5, 4) and cert["pairing_minus"] == 1
    assert cert["norm_plus_lower"] == F(5, 4)
    assert cert["norm_minus_upper"] == 1
    assert cert["ratio_lower"] == F(5, 4)
    assert cert["ratio_case"] == F(10, 9)
    # the optimal functional grabs both distinguished coordinates and tiles
    # the rest: 16 alternating spans covering 3..1154
    spans = cert["witness_minus"]["assignment_spans"]
    assert len(spans) == 16
    assert spans[0] == (3, 18, F(1, 128))
    assert spans[-1][1] == 1154
    assert all(s2 == e1 + 1 for (_, e1, _), (s2, _, _) in zip(spans, spans[1:]))


def test_symbolic_certificate_and_ladder():
    cert = k_lower_certificate(P1648)
    assert cert["verification"] == "symbolic"
    assert cert["universe"] == 2129922
    assert cert["norm_minus_upper"] == F(259, 256)
    assert cert["ratio_lower"] == F(320, 259) == cert["ratio_case"]
    assert F(320, 259) > F(1235, 1000)
    ladder = elton_ladder()
    cases = [c["ratio_case"] for c in ladder]
    assert cases == [F(10, 9), F(80, 67), F(320, 259)]
    assert cases[0] < cases[1] < cases[2]
    # rung 2's universe, 34818, is inside the layout cap: the DP certifies 5/4
    assert [c["verification"] for c in ladder] == ["dp", "dp", "symbolic"]
    assert ladder[1]["universe"] == 34818 and ladder[1]["ratio_lower"] == F(5, 4)


def test_quasi_certificate_symbolic_1648():
    cert = quasi_certificate(P1648, F(2, 3))
    assert sorted(cert) == [
        "alpha", "eps_instance", "norm_minus_upper", "norm_plus_lower",
        "params", "passes_target", "quasi_case_bounds", "ratio_lower",
        "target", "threshold_projection_is_plus_vector",
        "threshold_tie_at_alpha", "universe", "verification"]
    assert cert["universe"] == 2129922
    assert cert["verification"] == "symbolic"
    assert cert["eps_instance"] == F(3, 256)
    assert cert["target"] == F(2027, 1792)
    assert cert["norm_plus_lower"] == F(8, 3)
    assert cert["norm_minus_upper"] == F(451, 192)
    assert cert["ratio_lower"] == F(512, 451)
    assert cert["ratio_lower"] > cert["target"]
    assert cert["passes_target"] is True
    assert cert["threshold_tie_at_alpha"] is True
    assert cert["threshold_projection_is_plus_vector"] is False


def test_quasi_certificate_dp_184():
    cert = quasi_certificate(P184, F(1, 2))
    assert cert["verification"] == "dp"
    assert cert["norm_plus_lower"] == F(8, 3)
    assert cert["norm_minus_upper"] == F(29, 12)
    assert cert["ratio_lower"] == F(32, 29)
    assert cert["target"] == F(57, 56)
    assert cert["passes_target"] is True
    assert cert["threshold_projection_is_plus_vector"] is True
    assert cert["threshold_tie_at_alpha"] is False
    with pytest.raises(DomainError):
        quasi_certificate(P184, F(0))
    with pytest.raises(DomainError):
        k_lower_certificate(EltonParams(8, 1, 4, F(13, 100)))


def sweep_params(m1: int, m2: int):
    """K in {3, 4}, n1 in {1, 2}, every n2 that passes the smallness
    conditions, and eps 1/100 above the slack n1/(2 n2) + 2^-K."""
    for K in (3, 4):
        for n1 in (1, 2):
            # n1 < n2 and 2 n1 + n2 < n1 2^K
            last = n1 * (2 ** K - 2)
            assert validate_params(EltonParams(n1, last, K, F(99, 100)))["failures"] == [
                "(2 n1 + n2)/(n1 2^K) = 1 is not < 1"]
            for n2 in range(n1 + 1, last):
                eps = F(n1, 2 * n2) + F(1, 2 ** K) + F(1, 100)
                yield EltonParams(n1, n2, K, eps, m1, m2)


def test_certificates_only_at_covered_scales():
    certified = 0
    for p in sweep_params(1, 2):
        assert validate_params(p)["ok"], p
        for cert in (k_lower_certificate(p), quasi_certificate(p, F(1, 2))):
            assert cert["verification"] == "dp", p
        certified += 1
    assert certified == 50
    for m1, m2 in ((1, 3), (2, 3)):
        for p in sweep_params(m1, m2):
            assert validate_params(p)["failures"] == [
                f"the case bounds cover scales (m1, m2) = (1, 2) only, got ({m1}, {m2})"]
            for certify in (k_lower_certificate, lambda p: quasi_certificate(p, F(1, 2))):
                # a DomainError, never the InternalError of a refuted bound
                with pytest.raises(DomainError, match="cover scales"):
                    certify(p)


def literal_family_max(layout, vals):
    # independent oracle: every sign/shape, every subset of the coordinates
    # beyond b, slot prefix assigned in order (subsets no larger than the
    # shape's finite tiling)
    N = layout.universe
    p = layout.params
    best = F(0)
    for sigma in (1, -1):
        sv = [sigma * x for x in vals]
        for a in range(1, N + 1):
            best = max(best, F(1, 2) * sv[a])
            for b in range(a + 1, N + 1):
                pinned = F(1, 2) * sv[a] + sv[b]
                coords = range(b + 1, N + 1)
                nums, unit = _slot_tiling(p, a, b, N - b)
                slots = [F(x, unit) for x in nums]
                for r in range(min(N - b, len(slots)) + 1):
                    for sub in itertools.combinations(coords, r):
                        tot = pinned + sum(
                            (slots[i] * sv[c] for i, c in enumerate(sub)), F(0))
                        best = max(best, tot)
    return best


MINIATURES = [
    (EltonParams(1, 2, 1, F(1, 2)), 8, F(33, 32)),
    # n1 > n2 exercises pruning with the E2 unit as the largest slot value
    (EltonParams(2, 1, 1, F(1, 2)), 8, F(33, 32)),
    (EltonParams(1, 1, 1, F(1, 2), m1=1, m2=3), 10, F(11, 8)),
]


@pytest.mark.parametrize("p,universe,minus_norm", MINIATURES)
def test_dp_matches_brute_and_oracle(p, universe, minus_norm):
    layout = build_layout(p)
    assert layout.universe == universe
    rng = random.Random(universe)
    for _ in range(6):
        v = SparseVector.from_pairs(
            (i, F(rng.randint(-8, 8), rng.randint(1, 8)))
            for i in range(1, universe + 1)
            if rng.random() < 0.7 and rng.randint(-8, 8) != 0)
        vals = [F(0)] * (universe + 1)
        for i, x in v.entries:
            vals[i] = x
        d, _ = structured_dp(layout, v)
        b, _ = brute_miniature(layout, v)
        assert d == b == literal_family_max(layout, vals)
    x = STANDARD_PAIR[0]
    d, dw = structured_dp(layout, x)
    b, _ = brute_miniature(layout, x)
    assert d == b == literal_family_max(layout, _dense_values(layout, x))
    assert max(x.sup_norm(), d) == minus_norm


def test_dp_guardrails(monkeypatch):
    layout = build_layout(P184)
    x = STANDARD_PAIR[0]
    monkeypatch.setattr(elton, "_DP_CELL_BUDGET", 5)
    with pytest.raises(SizeError, match="cell budget of 5 cells"):
        structured_dp(layout, x)
    with pytest.raises(DomainError):
        structured_dp(layout, SparseVector.from_pairs([(2000, F(1))]))
    with pytest.raises(SizeError):
        build_layout(P1648)  # universe 2129922 over the layout cap


def ref_region(p, c):
    # the region of coordinate c by the layout's definition: the distinguished
    # pair, then rounds of an I-run of n1 2^(K(m2-m1)) coordinates (E1) and a
    # J-run of n2 2^(K(m2-m1)) coordinates (E2)
    if c <= 2:
        return ("first", "second")[c - 1]
    run = 2 ** (p.K * (p.m2 - p.m1))
    return "E1" if (c - 3) % ((p.n1 + p.n2) * run) < p.n1 * run else "E2"


def test_dense_layout_and_pairing_equal_per_coordinate_reference():
    # every miniature layout (n1 = n2 among them, where the slot values of
    # the two regions agree) and rung 1: the dense vector against the region
    # of each coordinate, and the closed-form pairing against the dot product
    # with the dense canonical functional, 1/2 and 1 at the pair and
    # u_i = 1/(n_i 2^(K m2 - 1)) on E_i
    rng = random.Random("layout-regions")

    def rat():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    shapes = [(n1, n2, 1, 1, 2) for n1 in range(1, 7) for n2 in range(1, 7)
              if n1 + n2 <= 7]
    shapes += [(n1, n2, 1, m1, 3) for n1, n2 in [(1, 1), (1, 2), (2, 1)] for m1 in (1, 2)]
    layouts = [build_layout(EltonParams(n1, n2, K, F(1, 10), m1, m2))
               for n1, n2, K, m1, m2 in shapes]
    layouts += [build_layout(p) for p, _, _ in MINIATURES] + [build_layout(P184)]
    assert any(lay.params.n1 == lay.params.n2 for lay in layouts)
    for lay in layouts:
        p = lay.params
        regions = [ref_region(p, c) for c in range(1, lay.universe + 1)]
        weight = {"first": F(1, 2), "second": F(1),
                  "E1": F(1, p.n1 * 2 ** (p.K * p.m2 - 1)),
                  "E2": F(1, p.n2 * 2 ** (p.K * p.m2 - 1))}
        vecs = [*STANDARD_PAIR, *quasi_pair(F(1, 2))]
        vecs += [LayoutVector(rat(), rat(), rat(), rat()) for _ in range(4)]
        for v in vecs:
            value = {"first": v.at_first, "second": v.at_second,
                     "E1": v.on_e1, "E2": v.on_e2}
            assert _dense_values(lay, v) == [0] + [value[r] for r in regions]
            assert v.pairing() == sum((weight[r] * value[r] for r in regions), F(0))


def ref_slot_values(p, a, b, count):
    # the (a, b) tiling in Fractions: I-runs of u1, J-runs of u2 alternating
    u1 = F(1, p.n1 * 2 ** (p.K * b - 1))
    u2 = F(1, p.n2 * 2 ** (p.K * b - 1))
    i_len = p.n1 * 2 ** (p.K * (b - a))
    j_len = p.n2 * 2 ** (p.K * (b - a))
    count = min(count, (p.n1 + p.n2) * 2 ** (p.K * b - 1))
    out = []
    while len(out) < count:
        take = min(i_len, count - len(out))
        out.extend([u1] * take)
        if len(out) >= count:
            break
        take = min(j_len, count - len(out))
        out.extend([u2] * take)
    return out


def ref_block_max(slot_nums, val_nums):
    # the per-coordinate block DP: M[j] = best with exactly j slots placed so
    # far; coordinates stream left to right, slots consume in order,
    # placement optional; placed[i][j] is 1 where coordinate i raised M[j]
    n_slots = len(slot_nums)
    M = [0] + [None] * n_slots
    placed = []
    for seen, x in enumerate(val_nums, start=1):
        row = bytearray(n_slots + 1)
        for j in range(min(n_slots, seen), 0, -1):
            cand = M[j - 1] + slot_nums[j - 1] * x
            if M[j] is None or cand > M[j]:
                M[j] = cand
                row[j] = 1
        placed.append(row)
    return max(m for m in M if m is not None), M, placed


def ref_backtrack(val_nums, M_final, placed, coords_base):
    # one optimal (slot, coordinate) assignment: the largest optimal slot
    # count, each slot on the last coordinate that placed it
    best = max(m for m in M_final if m is not None)
    j = max(idx for idx, m in enumerate(M_final) if m == best)
    assignment = []
    for ci in range(len(val_nums) - 1, -1, -1):
        if j and placed[ci][j]:
            assignment.append((j, coords_base + ci))
            j -= 1
    assert j == 0
    return assignment[::-1]


def test_block_dp_equals_per_coordinate_reference():
    # run-length values (negative, zero, long and tied runs), dense values
    # (every run of length 1), and slot counts from one to beyond the
    # coordinates, each against the per-coordinate DP
    rng = random.Random("value-run-block")
    covered = set()
    for trial in range(1500):
        n_slots = rng.choice([1, rng.randint(1, 6), rng.randint(1, 40)])
        if trial % 3:
            unit = rng.randint(1, 4)
            slots = [unit * rng.choice([1, 8]) for _ in range(n_slots)]
        else:
            slots = [rng.randint(1, 9) for _ in range(n_slots)]
        if trial % 2:
            vals = [x for _ in range(rng.randint(0, 7))
                    for x in [rng.randint(-3, 3)] * rng.randint(1, 9)]
        else:
            vals = [rng.randint(-4, 4) for _ in range(rng.randint(0, 30))]
        runs = [(x, len(list(grp))) for x, grp in itertools.groupby(vals)]
        covered |= {("more slots than coordinates", len(slots) > len(vals)),
                    ("dense", len(runs) == len(vals)), ("one slot", len(slots) == 1)}
        best, M_final, placed = ref_block_max(slots, vals)
        got_best, f_final, argmax = _block_max_runs(slots, runs)
        assert (got_best, f_final) == (best, M_final)
        assert (_backtrack_runs(slots, runs, f_final, argmax, 5)
                == ref_backtrack(vals, M_final, placed, 5))
    assert len(covered) == 6


def ref_structured_dp(layout, v):
    # structured_dp with Fraction pruning bounds, each shape's slots and
    # values put over their own common denominator, and the per-coordinate
    # block DP
    N = layout.universe
    vals = _dense_values(layout, v)
    p = layout.params
    best, best_wit = F(0), {"kind": "zero"}
    for sigma in (1, -1):
        sv = [sigma * x for x in vals]
        pos = [max(x, F(0)) for x in sv]
        tail = [F(0)] * (N + 2)
        for c in range(N, 0, -1):
            tail[c] = tail[c + 1] + pos[c]
        prefmax = [F(0)] * (N + 1)
        for c in range(1, N + 1):
            prefmax[c] = max(prefmax[c - 1], pos[c])
        for a in range(1, N + 1):
            if F(1, 2) * sv[a] > best:
                best = F(1, 2) * sv[a]
                best_wit = {"kind": "half_only", "a": a, "sigma": sigma}

        def slot_upper(b):
            return F(1, min(p.n1, p.n2) * 2 ** min(p.K * b - 1, 200))

        b_bounds = sorted(((F(1, 2) * prefmax[b - 1] + pos[b] + slot_upper(b) * tail[b + 1], b)
                           for b in range(2, N + 1)), key=lambda t: t[0], reverse=True)
        order_by_half = sorted(range(1, N + 1), key=lambda c: pos[c], reverse=True)
        for bound, b in b_bounds:
            if bound <= best:
                break
            for a in order_by_half:
                if a >= b:
                    continue
                if F(1, 2) * pos[a] + pos[b] + slot_upper(b) * tail[b + 1] <= best:
                    break
                slots = ref_slot_values(p, a, b, N - b)
                denom, nums = _common_denominator(slots + sv[b + 1:])
                slot_nums, val_nums = nums[:len(slots)], nums[len(slots):]
                blk_int, M_final, placed = ref_block_max(slot_nums, val_nums)
                blk = F(blk_int, denom * denom)
                if F(1, 2) * sv[a] + sv[b] + blk > best:
                    best = F(1, 2) * sv[a] + sv[b] + blk
                    best_wit = {"kind": "shape", "a": a, "b": b, "sigma": sigma,
                                "block_value": blk}
                    best_block = (slots, val_nums, M_final, placed)
    if best_wit["kind"] == "shape":
        slots, val_nums, M_final, placed = best_block
        spans = []
        for j, c in ref_backtrack(val_nums, M_final, placed, best_wit["b"] + 1):
            if spans and spans[-1][1] == c - 1 and spans[-1][2] == slots[j - 1]:
                spans[-1] = (spans[-1][0], c, slots[j - 1])
            else:
                spans.append((c, c, slots[j - 1]))
        best_wit["assignment_spans"] = spans
    return best, best_wit


def test_dp_equals_fraction_reference():
    # beyond the brute cap: K = 3/4 layouts drawn as the certificates
    # workload draws them (universe 98..642) and ladder rung 1, against
    # region-constant and random sparse vectors of either sign
    rng = random.Random("structured-dp-reference")

    def rat():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    layouts = [build_layout(P184)]
    for K in (3, 3, 3, 4, 4, 4):
        if K == 3:
            n1 = rng.randint(1, 2)
            n2 = rng.randint(n1 + 1, min(6 * n1 - 1, 13 - n1))
        else:
            n1, n2 = rng.choice([(1, 2), (1, 3), (1, 4), (2, 3)])
        layouts.append(build_layout(EltonParams(n1, n2, K, F(1, 2))))
    assert 98 <= min(lay.universe for lay in layouts[1:])
    assert max(lay.universe for lay in layouts[1:]) <= 642
    sigmas = set()
    for lay in layouts:
        vecs = [*STANDARD_PAIR, LayoutVector(rat(), rat(), rat(), rat()),
                SparseVector.from_pairs((c, rat()) for c in range(1, lay.universe + 1)
                                        if rng.random() < 0.05)]
        for v in vecs:
            got = structured_dp(lay, v)
            assert dump_json(list(got)) == dump_json(list(ref_structured_dp(lay, v)))
            sigmas.add(got[1].get("sigma"))
    assert {1, -1} <= sigmas
