"""Two-scale layout norms: exact DP vs exhaustive search, certificates, ladder."""

import itertools
import random
from fractions import Fraction as F

import pytest

from collections import deque

from conftest import (brute_miniature, dense, dense_layout_values, expand_runs, layout_region,
                      value_runs)
from unclab import elton
from unclab.elton import (
    STANDARD_PAIR,
    EltonParams,
    LayoutVector,
    _block_max,
    _block_spans,
    _slot_runs,
    _value_runs,
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
    assert P184.universe == 1154 and "universe" not in EltonParams._fields
    # a vector that marks each region: the distinguished pair, then rounds of
    # 16 coordinates in E1 and 128 in E2, one value run each
    runs = _value_runs(P184, LayoutVector(F(-1), F(-2), F(1), F(2)))
    assert runs == [(-1, 1), (-2, 1)] + [(1, 16), (2, 128)] * 8
    vals = expand_runs(runs)   # coordinate c at index c - 1
    assert len(vals) == 1154 and vals[:2] == [-1, -2]
    assert vals[2:18] == [1] * 16 and vals[18] == 2
    assert vals[145:147] == [2, 1]  # the second round starts after 16 + 128
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


def test_rung3_certificate_and_ladder():
    # every rung is certified by the exact DP: the companion's layout norm is
    # 5/4 and the vector's is 1 at rung 3 too, above the case-bound ratio
    ladder = elton_ladder()
    assert [c["verification"] for c in ladder] == ["dp", "dp", "dp"]
    assert [c["universe"] for c in ladder] == [1154, 34818, 2129922]
    assert [c["ratio_lower"] for c in ladder] == [F(5, 4)] * 3
    cases = [c["ratio_case"] for c in ladder]
    assert cases == [F(10, 9), F(80, 67), F(320, 259)]
    assert cases[0] < cases[1] < cases[2]
    cert = ladder[2]
    assert (cert["norm_plus_lower"], cert["norm_minus_upper"]) == (F(5, 4), 1)
    assert cert["case_bounds"]["max"] == F(259, 256)
    # shape (1, 2) carries the canonical functional on both vectors: its 256
    # spans alternate E1 and E2 across 3..2129922
    for key in ("witness_plus", "witness_minus"):
        wit = cert[key]
        assert (wit["kind"], wit["a"], wit["b"]) == ("shape", 1, 2)
        spans = wit["assignment_spans"]
        assert len(spans) == 256 and spans[0] == (3, 258, F(1, 32768))
        assert spans[-1][1] == 2129922
        assert all(s2 == e1 + 1 for (_, e1, _), (s2, _, _) in zip(spans, spans[1:]))


def test_quasi_certificate_dp_1648():
    cert = quasi_certificate(P1648, F(2, 3))
    assert sorted(cert) == [
        "alpha", "eps_instance", "norm_minus_upper", "norm_plus_lower",
        "params", "passes_target", "quasi_case_bounds", "ratio_lower",
        "target", "threshold_projection_is_plus_vector",
        "threshold_tie_at_alpha", "universe", "verification"]
    assert cert["universe"] == 2129922
    assert cert["verification"] == "dp"
    assert cert["eps_instance"] == F(3, 256)
    assert cert["target"] == F(2027, 1792)
    assert cert["norm_plus_lower"] == F(8, 3)
    # the exact norm, under the case bound 451/192
    assert cert["norm_minus_upper"] == F(7, 3) < F(451, 192)
    assert cert["ratio_lower"] == F(8, 7)
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


def literal_family_max(p, x):
    # independent oracle: every sign/shape, every subset of the coordinates
    # beyond b, slot prefix assigned in order (subsets no larger than the
    # shape's finite tiling)
    N = len(x)
    vals = [F(0), *x]
    best = F(0)
    for sigma in (1, -1):
        sv = [sigma * x for x in vals]
        for a in range(1, N + 1):
            best = max(best, F(1, 2) * sv[a])
            for b in range(a + 1, N + 1):
                pinned = F(1, 2) * sv[a] + sv[b]
                coords = range(b + 1, N + 1)
                nums, unit = _slot_runs(p, a, b, N - b)
                slots = [F(x, unit) for x in expand_runs(nums)]
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
    assert p.universe == universe
    rng = random.Random(universe)
    for _ in range(6):
        x = dense(SparseVector.from_pairs(
            (i, F(rng.randint(-8, 8), rng.randint(1, 8)))
            for i in range(1, universe + 1)
            if rng.random() < 0.7 and rng.randint(-8, 8) != 0), universe)
        d, wit, _ = structured_dp(p, value_runs(x))
        b, _ = brute_miniature(p, x)
        assert d == b == literal_family_max(p, x)
        # runs need not be maximal: one run per coordinate gives the same
        # maximum and witness
        assert structured_dp(p, [(c, 1) for c in x])[:2] == (d, wit)
    v = STANDARD_PAIR[0]
    d, _, _ = structured_dp(p, _value_runs(p, v))
    x = dense_layout_values(p, v)
    b, _ = brute_miniature(p, x)
    assert d == b == literal_family_max(p, x)
    assert max(v.sup_norm(), d) == minus_norm


def test_dp_guardrails(monkeypatch):
    # rung 1's standard vector builds 150 pieces, 17 of them in its last run;
    # a cap of exactly that many admits the call, and one less refuses it
    # when the last run is built
    runs = _value_runs(P184, STANDARD_PAIR[0])
    value, wit, pieces = structured_dp(P184, runs)
    assert (value, wit["kind"], pieces) == (1, "shape", 150)
    monkeypatch.setenv("UNCLAB_CAPS", "layout_pieces=150")
    assert structured_dp(P184, runs) == (value, wit, pieces)
    monkeypatch.setenv("UNCLAB_CAPS", "layout_pieces=149")
    with pytest.raises(SizeError) as refused:
        structured_dp(P184, runs)
    assert str(refused.value) == ("layout_pieces: structured dp pieces = 150 exceeds "
                                  "cap 149 (override with UNCLAB_CAPS)")
    # the run count is checked before the run list is built: rung 1 has 18
    # value runs, and K = 8000 has 2 + 2^8000, refused at the default cap
    monkeypatch.setenv("UNCLAB_CAPS", "layout_pieces=17")
    with pytest.raises(SizeError, match="layout value runs = 18 exceeds cap 17"):
        _value_runs(P184, STANDARD_PAIR[0])
    monkeypatch.delenv("UNCLAB_CAPS")
    with pytest.raises(SizeError, match=r"layout value runs >= 2\^8000 exceeds cap 1000000"):
        k_lower_certificate(EltonParams(1, 8, 8000, F(13, 100)))
    # rung 3, universe 2 129 922, is one shape of 256 value runs against 256
    # slot runs per vector
    runs = _value_runs(P1648, STANDARD_PAIR[0])
    assert len(runs) == 258
    assert structured_dp(P1648, runs)[::2] == (1, 33146)


def test_run_count_is_refused_before_any_case_bound(monkeypatch):
    # K = 10^8 gives 2 + 2^(10^8) value runs; both certificates refuse them
    # before the case bounds, validate_params or the slack compute with 2^K
    def spy(*args):
        raise AssertionError("a refused layout computed with 2^K")
    for name in ("case_bounds", "quasi_case_bounds", "validate_params"):
        monkeypatch.setattr(elton, name, spy)
    monkeypatch.setattr(EltonParams, "slack", property(spy))
    p = EltonParams(1, 2, 10 ** 8, F(1, 2))
    for certify in (lambda: k_lower_certificate(p), lambda: quasi_certificate(p, F(1, 2))):
        with pytest.raises(SizeError) as refused:
            certify()
        assert str(refused.value) == ("layout_pieces: layout value runs >= 2^100000000 "
                                      "exceeds cap 1000000 (override with UNCLAB_CAPS)")


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
    params = [EltonParams(n1, n2, K, F(1, 10), m1, m2) for n1, n2, K, m1, m2 in shapes]
    params += [p for p, _, _ in MINIATURES] + [P184]
    assert any(p.n1 == p.n2 for p in params)
    for p in params:
        regions = [layout_region(p, c) for c in range(1, p.universe + 1)]
        weight = {"first": F(1, 2), "second": F(1),
                  "E1": F(1, p.n1 * 2 ** (p.K * p.m2 - 1)),
                  "E2": F(1, p.n2 * 2 ** (p.K * p.m2 - 1))}
        vecs = [*STANDARD_PAIR, *quasi_pair(F(1, 2))]
        vecs += [LayoutVector(rat(), rat(), rat(), rat()) for _ in range(4)]
        for v in vecs:
            value = {"first": v.at_first, "second": v.at_second,
                     "E1": v.on_e1, "E2": v.on_e2}
            assert expand_runs(_value_runs(p, v)) == [value[r] for r in regions]
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


def run_block_max(slot_nums, runs):
    # the value-run DP, one cell per (run, slot count): f(K) is the best
    # total with exactly K slots placed, and run (x, r) gives
    #     f_A(K) = x S(K) + max over K - r <= K' <= K of (f(K') - x S(K')),
    # the window max kept in a monotone deque that keeps the largest K'
    # among ties; argmax[A][K] is the K' that run A's f(K) extends
    n_slots = len(slot_nums)
    S = list(itertools.accumulate(slot_nums, initial=0))
    f = [0] + [None] * n_slots
    seen = 0
    argmax = []
    for x, r in runs:
        lim = min(seen, n_slots)
        h = [f[k] - x * S[k] for k in range(lim + 1)]
        window = deque()
        g, arg = [], []
        for K in range(min(seen + r, n_slots) + 1):
            if K <= lim:
                while window and h[window[-1]] <= h[K]:
                    window.pop()
                window.append(K)
            if window[0] < K - r:
                window.popleft()
            g.append(h[window[0]] + x * S[K])
            arg.append(window[0])
        f = g + [None] * (n_slots + 1 - len(g))
        argmax.append(arg)
        seen += r
    return max(m for m in f if m is not None), f, argmax


def run_backtrack(runs, f_final, argmax, coords_base):
    # one optimal (slot, coordinate) assignment, last run first: the run's
    # argmax gives the slots it took, put on its leftmost coordinates
    best = max(m for m in f_final if m is not None)
    j = max(idx for idx, m in enumerate(f_final) if m == best)
    end = coords_base + sum(r for _, r in runs)
    assignment = []
    for (_, r), arg in zip(reversed(runs), reversed(argmax)):
        end -= r
        k = arg[j]
        assignment += [(slot, end + slot - k - 1) for slot in range(j, k, -1)]
        j = k
    assert j == 0
    return assignment[::-1]


def spans_from_assignment(assignment, slot_values):
    # (slot, coord) pairs as (coord_from, coord_to, value) spans
    spans = []
    for slot, coord in assignment:
        val = slot_values[slot - 1]
        if spans and spans[-1][1] == coord - 1 and spans[-1][2] == val:
            spans[-1] = (spans[-1][0], coord, val)
        else:
            spans.append((coord, coord, val))
    return spans


def test_block_dp_equals_per_coordinate_reference():
    # run-length values (negative, zero, long and tied runs), dense values
    # (every run of length 1), and slot counts from one to beyond the
    # coordinates: the piecewise-linear kernel against the value-run DP
    # (value, f at every slot count, spans) and that against the
    # per-coordinate DP
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
        runs = value_runs(vals)
        best, M_final, placed = ref_block_max(slots, vals)
        got_best, f_final, argmax = run_block_max(slots, runs)
        assert (got_best, f_final) == (best, M_final)
        assignment = run_backtrack(runs, f_final, argmax, 5)
        assert assignment == ref_backtrack(vals, M_final, placed, 5)
        slot_runs = value_runs(slots)
        pl_best, S, hs, f, _ = _block_max(slot_runs, runs, 0)
        assert pl_best == best
        assert [v + m * (K - lo) for lo, hi, v, m in f for K in range(lo, hi + 1)] == [
            m for m in M_final if m is not None]
        assert (_block_spans(S, slot_runs, runs, hs, f, 5)
                == spans_from_assignment(assignment, slots))
        covered |= {("more slots than coordinates", len(slots) > len(vals)),
                    ("dense", len(runs) == len(vals)), ("one slot", len(slots) == 1),
                    ("flat ties", M_final.count(best) > 1)}
    assert len(covered) == 8


def ref_structured_dp(p, x):
    # structured_dp with Fraction pruning bounds over every coordinate, each
    # shape's slots and values put over their own common denominator, and
    # the per-coordinate block DP
    N = len(x)
    vals = [F(0), *x]
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

    params = [P184]
    for K in (3, 3, 3, 4, 4, 4):
        if K == 3:
            n1 = rng.randint(1, 2)
            n2 = rng.randint(n1 + 1, min(6 * n1 - 1, 13 - n1))
        else:
            n1, n2 = rng.choice([(1, 2), (1, 3), (1, 4), (2, 3)])
        params.append(EltonParams(n1, n2, K, F(1, 2)))
    assert 98 <= min(p.universe for p in params[1:])
    assert max(p.universe for p in params[1:]) <= 642
    sigmas = set()
    for p in params:
        vecs = [*STANDARD_PAIR, LayoutVector(rat(), rat(), rat(), rat()),
                SparseVector.from_pairs((c, rat()) for c in range(1, p.universe + 1)
                                        if rng.random() < 0.05)]
        for v in vecs:
            x = dense_layout_values(p, v)
            got = structured_dp(p, value_runs(x))
            assert dump_json(list(got[:2])) == dump_json(list(ref_structured_dp(p, x)))
            sigmas.add(got[1].get("sigma"))
    assert {1, -1} <= sigmas
