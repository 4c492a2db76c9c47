"""End-to-end acceptance checks.

One test per criterion, run in order. Each prints a single
"ACCEPTANCE n PASS/FAIL - description (time)" line on the real stdout and
enforces its wall-clock budget. Bodies re-derive every claimed quantity
from scratch; nothing here trusts a cached value from the unit suite.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

from conftest import (brute_bracket, brute_decompose_count, brute_miniature, brute_oscillation,
                      build_standard, colour_weight, dense, dense_layout_values, expand_runs,
                      interval_ladder, level_split, rand_resolution, rand_sparse,
                      value_runs, verify_witness)

from unclab.constants import MODES, ConstantQuery, compute_constant
from unclab.elton import (STANDARD_PAIR, EltonParams, _slot_runs, elton_ladder,
                          k_lower_certificate, quasi_certificate, structured_dp)
from unclab.norms import Functional, NormInstance
from unclab.ramsey import (MatchingWitness, remark_family, search_matching,
                           validate_matching, weakly_hereditary)
from unclab.resolutions import (Resolution, bracket, build_rademacher,
                                mutual_bracket, pattern_embeds,
                                rademacher_bounds, ris_condition)
from unclab.schreier import schreier_decompose
from unclab.serialize import load_prefix_map

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(capsys, n, desc, budget_s):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        assert dt < budget_s, f"criterion {n} took {dt:.2f}s, budget {budget_s}s"
    except BaseException:
        dt = time.perf_counter() - t0
        with capsys.disabled():
            print(f"ACCEPTANCE {n} FAIL - {desc} ({dt:.2f}s)")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {n} PASS - {desc} ({dt:.2f}s)")


def test_criterion_1(capsys):
    with criterion(capsys, 1, "bracket dp equals brute on pattern grid and seeded pairs", 30):
        pats = [p for n in range(1, 5) for p in itertools.product((1, 2), repeat=n)]
        assert len(pats) == 30
        res = {p: Resolution(2, p, (F(1, len(p)),) * len(p)) for p in pats}
        for p in pats:
            for q in pats:
                vd, wd = bracket(res[p], res[q])
                vb, wb = brute_bracket(res[p], res[q])
                assert vd == vb
        rng = random.Random(11)
        for _ in range(500):
            k = rng.randint(1, 4)
            r = rand_resolution(rng, max_len=6, k=k)
            s = rand_resolution(rng, max_len=6, k=k)
            assert bracket(r, s)[0] == brute_bracket(r, s)[0]


def test_criterion_2(capsys):
    with criterion(capsys, 2, "bracket laws: colour-weight bounds and embedding floor", 60):
        rng = random.Random(23)
        for _ in range(1000):
            k = rng.randint(1, 4)
            r = rand_resolution(rng, max_len=6, k=k)
            s = rand_resolution(rng, max_len=6, k=k)
            v, _ = bracket(r, s)
            # each matched left coordinate gains at most 2^(c_u - 1)
            assert v <= sum(F(2) ** (j - 1) * colour_weight(r, j)
                            for j in range(1, k + 1))
            # colour-j-to-colour-j matching from the smaller side
            floor = max(min(colour_weight(r, j), colour_weight(s, j))
                        for j in range(1, k + 1))
            assert mutual_bracket(r, s) >= floor
            dv, _ = bracket(r, r)
            heaviest = max(colour_weight(r, j) for j in range(1, k + 1))
            assert dv >= heaviest >= r.total_weight() / k
            if pattern_embeds(r.pattern, s.pattern):
                assert v >= r.total_weight()
        # forced embeddings: s carries r's pattern as a subsequence
        for _ in range(200):
            k = rng.randint(1, 4)
            r = rand_resolution(rng, max_len=5, k=k)
            extra = [rng.randint(1, k) for _ in range(rng.randint(0, 3))]
            pattern = list(r.pattern)
            for c in extra:
                pattern.insert(rng.randint(0, len(pattern)), c)
            s = Resolution(k, tuple(pattern),
                           tuple(F(rng.randint(1, 8), rng.randint(1, 8))
                                 for _ in pattern))
            assert pattern_embeds(r.pattern, s.pattern)
            assert bracket(r, s)[0] >= r.total_weight()


def test_criterion_3(capsys):
    with criterion(capsys, 3, "rademacher family brackets within level bounds", 120):
        k0, ns, n, m = 2, (1, 17), 1, 3
        assert ris_condition(k0, ns)
        mults = [n * k0 ** (m - l) for l in range(1, m + 1)]
        fam = [build_rademacher(k0, ns, mults[l - 1], l) for l in range(1, m + 1)]
        assert [len(r) for r in fam] == [72, 72, 72]
        same, cross = rademacher_bounds(k0, ns)
        assert same == 2
        for i in range(m):
            for j in range(m):
                mb = mutual_bracket(fam[i], fam[j])
                if i == j:
                    assert mb <= same
                else:
                    assert mb <= cross
                    assert mb <= F(5, 2)


def test_criterion_4(capsys):
    with criterion(capsys, 4, "layout norm certificates and ladder monotone", 600):
        c1 = k_lower_certificate(EltonParams(1, 8, 4, F(13, 100)))
        assert c1["norm_plus_lower"] >= F(5, 4)
        assert c1["pairing_plus"] == F(5, 4)
        assert c1["norm_minus_upper"] <= F(9, 8)
        assert c1["ratio_case"] >= F(10, 9)
        ladder = elton_ladder()
        c2 = ladder[2]
        assert c2["params"] == EltonParams(1, 64, 8, F(1, 50))
        assert c2["verification"] == "dp"
        assert c2["ratio_lower"] == F(5, 4) > F(320, 259) == c2["ratio_case"]
        ratios = [e["ratio_case"] for e in ladder]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


def _replay_dp_witness(p, x, value, wit):
    """Recompute a structured-dp value from its witness and the sequence x
    (coordinate c's value at index c - 1) alone."""
    def sv(c):
        return wit["sigma"] * x[c - 1]

    a = wit["a"]
    if wit["kind"] == "half_only":
        assert value == F(1, 2) * sv(a)
        return wit["kind"]
    b = wit["b"]
    assert wit["kind"] == "shape" and a < b
    pairs = [(c, val) for lo, hi, val in wit["assignment_spans"]
             for c in range(lo, hi + 1)]
    coords = [b] + [c for c, _ in pairs]
    assert all(c < d for c, d in zip(coords, coords[1:])) and coords[-1] <= len(x)
    slots, unit = _slot_runs(p, a, b, len(pairs))
    assert [val for _, val in pairs] == [F(n, unit) for n in expand_runs(slots)]
    assert value == F(1, 2) * sv(a) + sv(b) + sum((val * sv(c) for c, val in pairs), F(0))
    return wit["kind"]


def test_criterion_5(capsys):
    with criterion(capsys, 5, "structured dp equals exhaustive family max on miniatures", 300):
        kinds = []
        rung1 = EltonParams(1, 8, 4, F(13, 100))
        for v in STANDARD_PAIR:
            x = dense_layout_values(rung1, v)
            kinds.append(_replay_dp_witness(rung1, x, *structured_dp(rung1, value_runs(x))[:2]))
        combos = [(n1, n2, 1, 1, 2) for n1 in range(1, 5) for n2 in range(1, 5)
                  if n1 + n2 <= 5]
        combos += [(1, 1, 1, m1, 3) for m1 in (1, 2)]
        assert len(combos) == 12
        rng = random.Random(17)
        for n1, n2, K, m1, m2 in combos:
            p = EltonParams(n1, n2, K, F(1, 10), m1, m2)
            assert p.universe <= 12
            vecs = [*STANDARD_PAIR] + [rand_sparse(rng, p.universe) for _ in range(3)]
            for v in vecs:
                x = dense_layout_values(p, v)
                a, wit, _ = structured_dp(p, value_runs(x))
                b, _ = brute_miniature(p, x)
                assert a == b, (n1, n2, K, m1, m2)
                kinds.append(_replay_dp_witness(p, x, a, wit))
        pool = [(n1, n2, 1, 1, 2) for n1 in range(1, 7) for n2 in range(1, 7)
                if n1 + n2 <= 7]
        pool += [(n1, n2, 1, m1, 3)
                 for n1, n2 in [(1, 1), (1, 2), (2, 1)] for m1 in (1, 2)]
        rng = random.Random(29)
        for _ in range(20):
            n1, n2, K, m1, m2 = rng.choice(pool)
            p = EltonParams(n1, n2, K, F(1, 10), m1, m2)
            assert p.universe <= 16
            x = dense(rand_sparse(rng, p.universe), p.universe)
            a, wit, _ = structured_dp(p, value_runs(x))
            b, _ = brute_miniature(p, x)
            assert a == b, (n1, n2, K, m1, m2)
            kinds.append(_replay_dp_witness(p, x, a, wit))
        # the witness replay is cheap, so it also runs where brute force would not
        for _ in range(120):
            n1, n2, K, m1, m2 = rng.choice(pool)
            p = EltonParams(n1, n2, K, F(1, 10), m1, m2)
            x = dense(rand_sparse(rng, p.universe), p.universe)
            kinds.append(_replay_dp_witness(p, x, *structured_dp(p, value_runs(x))[:2]))
        # a lone coordinate at 1 leaves every shape at half its value
        lone = [F(1)] + [F(0)] * (p.universe - 1)
        kinds.append(_replay_dp_witness(p, lone, *structured_dp(p, value_runs(lone))[:2]))
        assert len(kinds) == 203 and set(kinds) == {"shape", "half_only"}


def _mode_query(mode, rng=None):
    kw = {}
    if mode in ("K", "Kprime", "L", "Lprime", "A", "Kstar"):
        kw["delta"] = F(1, 2)
    if mode == "BOU":
        kw["D"] = F(1)
        kw["d"] = F(1)
    if mode == "schreier":
        kw["order"] = 1
    return ConstantQuery(mode, **kw)


def test_criterion_6(capsys):
    with criterion(capsys, 6, "constant reference values, mode order, grid vs lp", 300):
        # every mode sees the fully unconditional instance as 1
        l1 = build_standard("l1", 3)
        for mode in MODES:
            rep = compute_constant(l1, _mode_query(mode), "grid", step=F(1, 2))
            assert rep.value_lower == 1, mode
        # the conditional reference separates: witnessed lower bounds of 2
        s4 = build_standard("summing", 4)
        for mode, kw in [("C_uncond", {}), ("K", {"delta": F(1)}),
                         ("BOU", {"D": F(1), "d": F(1)}), ("A", {"delta": F(1, 2)})]:
            q = ConstantQuery(mode, **kw)
            rep = compute_constant(s4, q, "grid", step=F(1, 2))
            assert rep.value_lower >= 2, mode
            assert verify_witness(s4, q, rep.witness) == rep.value_lower
        # restricted searches never beat the free ones
        rng = random.Random(41)
        deltas = [F(1, 4), F(1, 2), F(3, 4), F(1)]
        for trial in range(50):
            dim = rng.randint(2, 3)
            fams = []
            for _ in range(rng.randint(1, 3)):
                entries = [(i, F(rng.randint(-2, 2))) for i in range(1, dim + 1)]
                entries = [(i, c) for i, c in entries if c != 0] or [(1, F(1))]
                fams.append(Functional.from_pairs(entries))
            inst = NormInstance.build(
                dim, fams,
                rng.choice(["initial_segments", "intervals", "all_subsets"]), True)
            delta = rng.choice(deltas)
            vals = {m: compute_constant(inst, ConstantQuery(m, delta=delta), "grid",
                                        step=F(1, 2)).value_lower
                    for m in ("K", "L", "Kprime", "Lprime")}
            assert vals["L"] <= vals["K"], (trial, vals)
            assert vals["Lprime"] <= vals["Kprime"], (trial, vals)
        # grid lattice maxima never exceed the exact lp optimum
        s2 = build_standard("summing", 2)
        cloud = build_standard("pointcloud", 2,
                               points=[[F(1), F(0)], [F(1, 2), F(1)]])
        for inst, q in [(s2, ConstantQuery("C_uncond")),
                        (s2, ConstantQuery("schreier", order=1)),
                        (s2, ConstantQuery("K", delta=F(1, 2))),
                        (cloud, ConstantQuery("Kstar", delta=F(1, 2)))]:
            g = compute_constant(inst, q, method="grid", step=F(1, 2))
            lp = compute_constant(inst, q, method="fractional_lp")
            assert g.value_lower <= lp.value_lower
            assert lp.value_upper == lp.value_lower


def test_criterion_7(capsys):
    with criterion(capsys, 7, "dyadic splits and greedy interval decomposition minimal", 60):
        rng = random.Random(53)
        ground = list(range(1, 10))
        for a in [rand_sparse(rng, 9) for _ in range(3)]:
            x = dense(a, 9)
            for r in range(1, 9):
                for E in itertools.combinations(ground, r):
                    for d in (F(1), F(3, 2), F(2)):
                        dec = schreier_decompose(x, E, d)
                        mn = brute_decompose_count(a, E, d)
                        if dec is None:
                            assert mn > min(E)
                        else:
                            assert len(dec.blocks) == mn <= min(E)
        for _ in range(200):
            dim = rng.randint(4, 12)
            a = rand_sparse(rng, dim)
            E = tuple(sorted(rng.sample(range(1, dim + 1),
                                        rng.randint(1, min(8, dim)))))
            d = 1 + F(rng.randint(0, 8), 4)
            dec = schreier_decompose(dense(a, dim), E, d)
            mn = brute_decompose_count(a, E, d)
            if dec is None:
                assert mn > min(E)
            else:
                assert len(dec.blocks) == mn
        for _ in range(200):
            a = rand_sparse(rng, rng.randint(3, 10))
            delta = F(rng.randint(1, 8), 8)
            sp = level_split(a, delta)
            thr = tuple(i for i, x in a.entries if abs(x) >= delta)
            assert sp.threshold_set == thr
            flat = sorted(c for blk in sp.blocks for c in blk)
            assert flat == sorted(thr) and len(flat) == len(set(flat))
            for blk in sp.blocks:
                if blk:
                    assert brute_oscillation(a, blk) <= 2
        for _ in range(100):
            delta = F(rng.randint(1, 64), 64)
            lad = interval_ladder(delta)
            assert lad[0][1] == 1 and lad[-1][0] <= delta
            assert all(hi == 2 * lo for lo, hi in lad)
            assert all(nxt_hi == lo for (lo, _), (_, nxt_hi) in zip(lad, lad[1:]))


def test_criterion_8(capsys):
    with criterion(capsys, 8, "matching fixtures, searches, restricted families fail hereditary", 180):
        npos = nneg = 0
        for f in sorted((FIXTURES / "matching").glob("*.json")):
            d = json.loads(f.read_text())
            rep = validate_matching(MatchingWitness(
                tuple(d["L"]), tuple(d["M"]),
                tuple(map(frozenset, d["FL"])), tuple(map(frozenset, d["FM"]))))
            if f.name.startswith("pos"):
                assert rep["ok"], f.name
                npos += 1
            else:
                assert not rep["ok"] and rep["failures"], f.name
                nneg += 1
        assert npos == 10 and nneg == 10
        for name in ("map_family_a.json", "map_family_b.json"):
            pmap = load_prefix_map(json.loads((FIXTURES / name).read_text()))
            res = search_matching(pmap, 12, horizon=4)
            assert res["found"], name
            assert validate_matching(res["witness"])["ok"], name
        fam = remark_family(12, 1, 2)
        rng = random.Random(7)
        for s in range(20):
            L = sorted(rng.sample(range(1, 13), rng.randint(8, 12)))
            rep = weakly_hereditary(fam, M=L, mode="hereditary")
            assert rep["hereditary"] is False, (s, L)
            v = rep["violation"]
            a, b = v["a"], v["b"]
            restricted = {tuple((e, c) for e, c in p if e in L) for p in fam}
            assert b in restricted and a not in restricted
            sa, sb = dict(a), dict(b)
            assert set(sa) <= set(sb) and len(sa) < len(sb)
            assert all(sb[i] == c for i, c in sa.items())


def test_criterion_9(capsys):
    with criterion(capsys, 9, "quasi variant certificate beats its target", 600):
        p = EltonParams(1, 64, 8, F(1, 50))
        cert = quasi_certificate(p, F(2, 3))
        eps = F(p.n1, 2 * p.n2) + F(2) ** (-p.K)
        assert cert["eps_instance"] == eps == F(3, 256)
        assert cert["target"] == F(8, 7) - eps == F(2027, 1792)
        assert cert["verification"] == "dp"
        assert cert["ratio_lower"] == F(8, 7) > cert["target"]
        assert cert["passes_target"] is True
