"""Two-scale layout norms: exact DP vs exhaustive search, certificates, ladder."""

import itertools
import random
from fractions import Fraction as F

import pytest

from unclab import elton
from unclab.elton import (
    EltonParams,
    _slot_value_list,
    brute_miniature,
    build_layout,
    build_vectors,
    case_bounds,
    elton_ladder,
    k_lower_certificate,
    quasi_case_bounds,
    quasi_certificate,
    structured_dp,
    validate_params,
)
from unclab.errors import DomainError, SizeError
from unclab.norms import SparseVector

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
    assert layout.universe == 1154
    assert layout.n_slots == 1152
    assert layout.rounds == 8
    assert (layout.i_len, layout.j_len) == (16, 128)
    assert (layout.u1, layout.u2) == (F(1, 128), F(1, 1024))
    assert (layout.e1_size, layout.e2_size) == (128, 1024)
    # dual normalisation: each block family carries total mass 1
    assert layout.u1 * layout.e1_size == 1 == layout.u2 * layout.e2_size
    assert layout.region(1) == "first" and layout.region(2) == "second"
    assert layout.region(3) == "E1" and layout.region(19) == "E2"
    assert layout.region(147) == "E1"  # second round starts after 16 + 128
    regions = [layout.region(c) for c in range(3, layout.universe + 1)]
    assert (regions.count("E1"), regions.count("E2")) == (128, 1024)
    with pytest.raises(DomainError):
        layout.region(1155)


def test_build_vectors_and_pairings():
    layout = build_layout(P184)
    t = build_vectors(layout, "standard")
    assert (t.minus.at_first, t.minus.at_second, t.minus.on_e1, t.minus.on_e2) == \
        (F(-1, 2), F(1, 2), F(1, 2), F(1, 4))
    assert t.plus.at_first == 0 and t.plus.on_e2 == F(1, 4)
    assert t.functional.pair_layout_vector(layout, t.plus) == F(5, 4)
    assert t.functional.pair_layout_vector(layout, t.minus) == 1
    qt = build_vectors(layout, "quasi", F(2, 3))
    assert (qt.minus.at_first, qt.minus.on_e2) == (F(-2, 3), F(2, 3))
    assert qt.alpha == F(2, 3)
    with pytest.raises(DomainError):
        build_vectors(layout, "standard", alpha=F(1, 2))
    with pytest.raises(DomainError):
        build_vectors(layout, "quasi")
    with pytest.raises(DomainError):
        build_vectors(layout, "quasi", F(3, 2))
    with pytest.raises(DomainError):
        build_vectors(layout, "weird")


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
        "pairing_plus", "params", "ratio_case", "ratio_exact", "ratio_lower",
        "universe", "verification", "witness_minus", "witness_plus"]
    assert cert["universe"] == 1154
    assert cert["verification"] == "dp"
    assert cert["pairing_plus"] == F(5, 4) and cert["pairing_minus"] == 1
    assert cert["norm_plus_lower"] == F(5, 4)
    assert cert["norm_minus_upper"] == 1
    assert cert["ratio_exact"] == F(5, 4)
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
    assert [c["verification"] for c in ladder] == ["dp", "symbolic", "symbolic"]


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
                slots = _slot_value_list(p, a, b, N - b)
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
    x = build_vectors(layout, "standard").minus
    d, dw = structured_dp(layout, x)
    b, _ = brute_miniature(layout, x)
    vals = [F(0)] + [x.value(layout, c) for c in range(1, universe + 1)]
    assert d == b == literal_family_max(layout, vals)
    assert max(x.sup_norm(), d) == minus_norm


def test_dp_guardrails(monkeypatch):
    layout = build_layout(P184)
    t = build_vectors(layout, "standard")
    monkeypatch.setattr(elton, "_DP_CELL_BUDGET", 5)
    with pytest.raises(SizeError, match="cell budget of 5 cells"):
        structured_dp(layout, t.minus)
    with pytest.raises(DomainError):
        structured_dp(layout, SparseVector.from_pairs([(2000, F(1))]))
    with pytest.raises(SizeError):
        build_layout(P1648)  # universe 2129922 over the layout cap
    with pytest.raises(SizeError):
        brute_miniature(layout, t.minus)  # 1154 over the brute cap
