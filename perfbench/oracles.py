"""Independent checks of unclab CLI reports.

Nothing here imports unclab: every value a report claims is recomputed from
the generated inputs with code written for the benchmark (an integer bracket
DP, a brute-force norm evaluator that enumerates every projection, a direct
construction of the remark family, closed-form counts).  A check raises
CheckError with a one-line reason; the caller counts the job as failed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

_RATIONAL = re.compile(r"-?[0-9]+/[0-9]+\Z")


class CheckError(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def rat(text) -> Fraction:
    """Parse a canonical "p/q" report value: lowest terms, q > 0."""
    expect(isinstance(text, str) and bool(_RATIONAL.match(text)),
           f"not a canonical rational: {text!r}")
    num, den = (int(x) for x in text.split("/"))
    expect(den > 0, f"non-positive denominator in {text!r}")
    value = Fraction(num, den)
    expect(value.denominator == den, f"not in lowest terms: {text!r}")
    return value


# ------------------------------------------------------------------ brackets

def gain(r, s, u: int, v: int) -> Fraction:
    """2^(c_u - d_v) * alpha_u for resolutions given as (k, pattern, alpha)."""
    return Fraction(2) ** (r[1][u] - s[1][v]) * r[2][u]


def bracket_value(r, s) -> Fraction:
    """[r, s] by an integer-scaled monotone-matching DP.

    Gains 2^(c_u - d_v) alpha_u become the integers (alpha_u L 2^c_u) *
    2^(k - d_v) over the common scale L 2^k, L the lcm of the alpha
    denominators, so the DP runs on Python ints.
    """
    k = max(r[0], s[0])
    scale = lcm(*(a.denominator for a in r[2]))
    xs = [int(a * scale) << c for c, a in zip(r[1], r[2])]
    ys = [1 << (k - d) for d in s[1]]
    m = len(ys)
    below = [0] * (m + 1)
    for x in reversed(xs):
        row = [0] * (m + 1)
        for v in range(m - 1, -1, -1):
            best = below[v + 1] + x * ys[v]
            if below[v] > best:
                best = below[v]
            if row[v + 1] > best:
                best = row[v + 1]
            row[v] = best
        below = row
    return Fraction(below[0], scale << k)


def witness_value(r, s, pairs) -> Fraction:
    """Sum of gains over a 1-indexed matching, checking it is monotone."""
    expect(isinstance(pairs, list), "witness is not a list")
    total = Fraction(0)
    last = (0, 0)
    for pair in pairs:
        expect(isinstance(pair, list) and len(pair) == 2, f"bad witness pair {pair!r}")
        u, v = pair
        expect(u > last[0] and v > last[1], f"witness pairs not strictly increasing at {pair}")
        expect(u <= len(r[1]) and v <= len(s[1]), f"witness pair {pair} out of range")
        total += gain(r, s, u - 1, v - 1)
        last = (u, v)
    return total


def check_bracket_mutual(report: dict, r, s) -> None:
    lr, rl = rat(report["left_right"]), rat(report["right_left"])
    expect(lr == bracket_value(r, s), "left_right differs from the oracle DP")
    expect(rl == bracket_value(s, r), "right_left differs from the oracle DP")
    value = rat(report["value"])
    expect(value == max(lr, rl), "value is not the larger direction")
    direction = report["witness_direction"]
    expect(direction == ("left_right" if lr >= rl else "right_left"),
           "witness_direction does not name the larger direction")
    a, b = (r, s) if direction == "left_right" else (s, r)
    expect(witness_value(a, b, report["witness"]) == value,
           "witness gains do not sum to value")
    expect(report["method"] == "dp", "method is not dp")


def embeds(c, d) -> bool:
    it = iter(d)
    return all(col in it for col in c)


def longest_chain_length(patterns) -> int:
    """Longest chain under subsequence embedding, by a DP over the DAG
    ordered by (length, index)."""
    order = sorted(range(len(patterns)), key=lambda i: (len(patterns[i]), i))
    best = {}
    for pos, j in enumerate(order):
        best[j] = 1 + max((best[i] for i in order[:pos]
                           if embeds(patterns[i], patterns[j])), default=0)
    return max(best.values(), default=0)


def check_chain(report: dict, patterns) -> None:
    chain = report["chain"]
    expect(report["count"] == len(patterns), "count differs from the input")
    expect(report["length"] == len(chain), "length differs from the chain")
    expect(len(set(chain)) == len(chain), "chain repeats an index")
    expect(all(0 <= i < len(patterns) for i in chain), "chain index out of range")
    expect(report["chain_patterns"] == [list(patterns[i]) for i in chain],
           "chain_patterns differ from the indexed inputs")
    for i, j in zip(chain, chain[1:]):
        expect(embeds(patterns[i], patterns[j]), f"pattern {i} does not embed in {j}")
    expect(len(chain) == longest_chain_length(patterns), "chain is not longest")


# ----------------------------------------------------------------- rademacher

def rademacher_member(k0: int, ns, n: int, level: int):
    pattern, alpha = [], []
    for j, nj in enumerate(ns, start=1):
        pattern += [j * k0] * (n * nj)
        alpha += [Fraction(1, n * nj * k0)] * (n * nj)
    reps = k0 ** (level - 1)
    return (k0 * k0, pattern * reps, [a / reps for a in alpha] * reps)


def rademacher_bounds(k0: int, ns) -> tuple[Fraction, Fraction]:
    cross = sum(Fraction(2) ** ((j2 - j) * k0) * Fraction(ns[j - 1], ns[j2 - 1])
                for j in range(1, k0 + 1) for j2 in range(j + 1, k0 + 1))
    return 1 + Fraction(2, k0), Fraction(2) ** (-k0) + cross / k0 + Fraction(3, k0)


def check_rademacher(report: dict, k0: int, m: int, n: int, ns) -> None:
    members = [rademacher_member(k0, ns, n * k0 ** (m - l), l) for l in range(1, m + 1)]
    expect(report["lengths"] == [len(x[1]) for x in members], "lengths differ")
    same, cross = rademacher_bounds(k0, ns)
    expect(rat(report["bound_same_level"]) == same, "same-level bound differs")
    if m > 1:
        expect(rat(report["bound_cross_levels"]) == cross, "cross-level bound differs")
    ris = sum(Fraction(ns[j], ns[j2]) for j in range(k0) for j2 in range(j + 1, k0))
    expect(report["ris_condition"] == (ris < Fraction(2) ** (-k0 * k0)), "ris_condition differs")
    matrix = [[rat(x) for x in row] for row in report["pairwise"]]
    for i in range(m):
        for j in range(i, m):
            a, b = members[i], members[j]
            want = max(bracket_value(a, b), bracket_value(b, a))
            expect(matrix[i][j] == want == matrix[j][i], f"pairwise[{i}][{j}] differs")
            expect(want <= (same if i == j else cross), f"pairwise[{i}][{j}] exceeds its bound")
    expect(rat(report["max_diagonal"]) == max(matrix[i][i] for i in range(m)),
           "max_diagonal differs")


# ---------------------------------------------------------------------- elton

def check_elton(report: dict, p: dict, alpha: Fraction | None) -> None:
    n1, n2, K, m2 = p["n1"], p["n2"], p["K"], p.get("m2", 2)
    expect(report["universe"] == (n1 + n2) * 2 ** (K * m2 - 1) + 2, "universe differs")
    expect(report["verification"] == "dp", "certificate is not DP-verified")
    plus, minus = rat(report["norm_plus_lower"]), rat(report["norm_minus_upper"])
    expect(rat(report["ratio_lower"]) == plus / minus, "ratio_lower is not plus/minus")
    eps_instance = Fraction(n1, 2 * n2) + Fraction(1, 2 ** K)
    if alpha is None:
        case_max = max(1 + Fraction(n1, 2 * n2), Fraction(3, 4)
                       + Fraction(2 * n1 + n2, 4 * n1 * 2 ** K), 1 + eps_instance)
        expect(rat(report["case_bounds"]["max"]) == case_max, "case-bound max differs")
        expect(rat(report["ratio_case"]) == Fraction(5, 4) / case_max, "ratio_case differs")
        expect(rat(report["pairing_plus"]) == Fraction(5, 4), "pairing_plus differs")
        expect(plus >= Fraction(5, 4), "norm_plus_lower is below the canonical pairing")
    else:
        case_max = max(Fraction(1), Fraction(8, 3) - alpha / 2 + Fraction(n1, n2),
                       Fraction(3, 2) + (n1 + Fraction(2, 3) * n2) / (n1 * 2 ** K))
        expect(rat(report["quasi_case_bounds"]["max"]) == case_max, "case-bound max differs")
        expect(plus >= Fraction(8, 3), "norm_plus_lower is below the canonical pairing")
        target = Fraction(8, 7) - eps_instance
        expect(rat(report["target"]) == target, "target differs")
        expect(report["passes_target"] == (plus / minus > target), "passes_target differs")
        expect(report["threshold_projection_is_plus_vector"] == (alpha < Fraction(2, 3)),
               "threshold diagnosis differs")
    expect(minus <= case_max, "norm_minus_upper exceeds the case-bound max")


# ------------------------------------------------------------ instance norms

def instance_from_doc(doc: dict):
    """(dim, functionals closed under negation in build order, class, sup)."""
    given = [{e["i"]: rat(e["v"]) for e in f} for f in doc["functionals"]]
    present = {tuple(sorted(f.items())) for f in given}
    closed = list(given)
    for f in given:
        neg = {i: -c for i, c in f.items()}
        key = tuple(sorted(neg.items()))
        if key not in present:
            closed.append(neg)
            present.add(key)
    return doc["dim"], closed, doc["projection_class"], doc["include_sup"]


def projections(dim: int, cls: str):
    if cls == "initial_segments":
        return [tuple(range(1, t + 1)) for t in range(dim + 1)]
    if cls == "intervals":
        return [()] + [tuple(range(s, t + 1)) for s in range(1, dim + 1)
                       for t in range(s, dim + 1)]
    return [tuple(i + 1 for i in range(dim) if mask >> i & 1) for mask in range(1 << dim)]


def apply(f: dict, v: dict, E=None) -> Fraction:
    return sum((c * v[i] for i, c in f.items() if i in v and (E is None or i in E)),
               Fraction(0))


def brute_norm(inst, v: dict) -> Fraction:
    dim, funcs, cls, sup = inst
    best = max((abs(x) for x in v.values()), default=Fraction(0)) if sup else Fraction(0)
    for E in projections(dim, cls):
        keep = set(E)
        for f in funcs:
            best = max(best, apply(f, v, keep))
    return best


def sparse(doc) -> dict:
    entries = doc["entries"] if isinstance(doc, dict) else doc
    out = {}
    for entry in entries:
        i, x = (entry["i"], entry["v"]) if isinstance(entry, dict) else entry
        out[i] = rat(x)
    return out


def check_norm(report: dict, inst, vector: dict) -> None:
    value = rat(report["value"])
    expect(value == brute_norm(inst, vector), "value differs from the brute-force norm")
    cert = report["certificate"]
    expect(rat(cert["value"]) == value, "certificate value differs")
    if cert["kind"] == "functional":
        f = inst[1][cert["functional_index"]]
        E = tuple(cert["projection"])
        if inst[2] != "all_subsets":
            expect(E in projections(inst[0], inst[2]), "certificate projection is not in the class")
        expect(apply(f, vector, set(E)) == value, "certificate does not attain the norm")
    elif cert["kind"] == "sup":
        expect(abs(vector.get(cert["coordinate"], Fraction(0))) == value,
               "sup certificate does not attain the norm")
    else:
        expect(not vector and value == 0, "zero certificate on a nonzero vector")


def oscillation(a: dict, E) -> Fraction:
    vals = [abs(a[i]) for i in E if a.get(i, 0) != 0]
    return max(vals) / min(vals) if vals else Fraction(1)


def schreier_ok(order: int, E) -> bool:
    """E splits into at most min E successive blocks B with |B| <= min B
    (order 2), or |E| <= min E (order 1); checked by a DP over block ends."""
    E = sorted(E)
    if not E:
        return True
    if order == 1:
        return len(E) <= E[0]
    fewest = [0] + [len(E) + 1] * len(E)
    for end in range(1, len(E) + 1):
        for start in range(end):
            if end - start <= E[start]:
                fewest[end] = min(fewest[end], fewest[start] + 1)
    return fewest[-1] <= E[0]


def check_constant(report: dict, inst, query: dict, step: Fraction | None) -> None:
    """Recompute the witness ratio with the brute-force norm and check the
    mode's feasibility conditions; grid reports also get a lattice check."""
    mode = query["mode"]
    value = rat(report["value_lower"])
    expect(report["mode"] == mode, "mode differs")
    if step is None:
        expect(report["method"] == "fractional_lp", "method is not fractional_lp")
        expect(rat(report["value_upper"]) == value, "LP value_upper differs from value_lower")
        expect(report["details"]["cells"] >= 1, "LP report counts no cells")
    else:
        s = step.denominator
        expect(report["details"]["lattice_points"] == (2 * s + 1) ** inst[0] - 1,
               "lattice_points differs from (2/step + 1)^dim - 1")
    wit = report["witness"]
    if wit is None:
        expect(value == 0, "positive value without a witness")
        return
    a = sparse(wit["a"])
    E = tuple(wit["E"])
    expect(len(set(E)) == len(E) and all(1 <= i <= inst[0] for i in E), "witness E is malformed")
    if step is not None:
        expect(all(abs(x) <= 1 and (x * step.denominator).denominator == 1 for x in a.values()),
               "grid witness is off the lattice")
    delta = rat(query["delta"]) if "delta" in query else None
    if mode == "Kstar":
        f = inst[1][wit["point_index"]]
        expect(all(abs(f.get(i, 0)) >= delta for i in E), "E leaves the point's delta-large set")
        num = apply(f, a, set(E))
        den = max((apply(g, a) for g in inst[1]), default=Fraction(0))
    else:
        num = brute_norm(inst, {i: x for i, x in a.items() if i in E})
        den = brute_norm(inst, a)
    expect(num == rat(wit["numerator"]), "witness numerator differs from the brute-force norm")
    expect(den == rat(wit["denominator"]), "witness denominator differs from the brute-force norm")
    expect(den > 0 and value == num / den, "value_lower is not numerator/denominator")
    if mode in ("K", "Kprime"):
        expect(all(abs(a.get(i, 0)) >= delta for i in E), "E leaves the delta-threshold set")
    if mode in ("L", "Lprime"):
        expect(all(abs(x) >= delta for x in a.values()), "support dips under delta")
    if mode in ("Kprime", "Lprime"):
        expect(den <= 1, "witness norm exceeds 1")
    if mode == "A":
        expect(delta * sum((abs(a.get(i, 0)) for i in E), Fraction(0)) <= num,
               "A-feasibility fails")
    if mode == "quasi_greedy":
        t = rat(wit["threshold"])
        expect(E == tuple(i for i in range(1, inst[0] + 1) if abs(a.get(i, 0)) >= t),
               "E is not the threshold set")
    if mode == "BOU":
        expect(oscillation(a, E) <= rat(query["D"]), "oscillation exceeds D")
        blocks = wit["decomposition"]["blocks"]
        expect([i for b in blocks for i in b] == sorted(E), "blocks do not split E in order")
        expect(all(oscillation(a, b) <= rat(query["d"]) for b in blocks),
               "block oscillation exceeds d")
        expect(len(blocks) <= min(E), "too many blocks")
    if mode == "schreier":
        expect(schreier_ok(query["order"], E), "E is not Schreier-admissible")


# -------------------------------------------------------------------- mr-demo

def check_mr_demo(report: dict, family, k: int) -> None:
    """Rebuild the placed blocks from the reported coding chain and recompute
    the three norms with an independent interval-norm evaluator."""
    chain = report["phi_chain"]
    expect(len(chain) == k and all(0 <= j < len(family) for j in chain), "phi_chain malformed")
    blocks, start = [], 1
    for j in chain:
        alpha = family[j][2]
        w = sum(alpha, Fraction(0))
        blocks.append([(start + i, a, 1 / w) for i, a in enumerate(alpha)])
        start += len(alpha)
    expect(report["universe"] == start - 1, "universe differs")

    def norm(signs: dict) -> Fraction:
        v = {c: sg * a for b, sg in signs.items() for c, a, _ in blocks[b]}
        best = max((abs(x) for x in v.values()), default=Fraction(0))
        for j1 in range(k):
            for j2 in range(j1, k):
                terms = [d * v.get(c, 0) for b in range(j1, j2 + 1) for c, _, d in blocks[b]]
                for sg in (1, -1):
                    run = Fraction(0)
                    for t in terms:
                        run = max(Fraction(0), run + sg * t)
                        best = max(best, run)
        return best

    alt = norm({b: (-1) ** (b + 1) for b in range(k)})
    odd = norm({b: 1 for b in range(0, k, 2)})
    even = norm({b: 1 for b in range(1, k, 2)})
    expect(rat(report["alternating_norm"]) == alt, "alternating_norm differs")
    expect(rat(report["odd_norm"]) == odd, "odd_norm differs")
    expect(rat(report["even_norm"]) == even, "even_norm differs")
    expect(rat(report["split_sum"]) == odd + even, "split_sum differs")
    expect(report["split_meets_target"] == (odd + even >= k), "split_meets_target differs")
    eta = max((max(bracket_value(a, b), bracket_value(b, a))
               for a, b in combinations(family, 2)), default=Fraction(0))
    expect(rat(report["eta"]) == eta, "eta differs from the oracle brackets")
    bound = 2 + 2 * k * eta
    expect(rat(report["alternating_bound"]) == bound, "alternating_bound differs")
    expect(report["alternating_within_bound"] == (alt <= bound), "alternating_within_bound differs")


# --------------------------------------------------------------------- ramsey

def check_match(report: dict, universe: int, depth: int, horizon: int, components: int) -> None:
    """The generated maps have only empty components and horizon > universe/2,
    so two sets of size >= horizon overlap outside every component overlap
    and no matching exists: the scan must run to its end."""
    expect(report["horizon"] == horizon, "horizon differs")
    wit = report["witness"]
    if wit is not None:
        L, M = set(wit["L"]), set(wit["M"])
        ok = (len(L) >= horizon and len(M) >= horizon and L != M
              and all(F == [] for F in wit["FL"] + wit["FM"])
              and len(wit["FL"]) == len(wit["FM"]) == components
              and not (L & M))
        expect(ok, "reported witness does not verify")
    expect(report["found"] is False, "found a matching on a map built to have none")
    sets = sum(comb(universe, size) for size in range(horizon, universe + 1))
    expect(report["checked"] == sets * comb(universe, depth),
           "checked differs from the exhaustive pair count")


def remark_family(universe: int, m1: int, m2: int) -> set:
    width = m2 + 1
    colours = [2] + [1] * m1 + [2] * (m2 - m1)
    out = {frozenset()} if universe >= width else set()
    for t in range(1, width + 1):
        for support in combinations(range(1, universe + 1), t):
            if t == width or universe - support[-1] >= width - t:
                out.add(frozenset(zip(support, colours)))
    return out


def closed(family: set, mode: str) -> bool:
    for b in family:
        items = sorted(b)
        if mode == "hereditary":
            subs = (frozenset(T) for r in range(len(items)) for T in combinations(items, r))
        else:
            subs = (frozenset(T) for col in {c for _, c in items}
                    for r in range(len(items) + 1)
                    for T in combinations([x for x in items if x[1] == col], r))
        if any(a not in family for a in subs):
            return False
    return True


def check_hereditary(report: dict, universe: int, m1: int, m2: int, mode: str,
                     samples: int, min_size: int) -> None:
    family = remark_family(universe, m1, m2)
    expect(report["family_size"] == len(family), "family_size differs")
    runs = report["runs"]
    expect(len(runs) == samples, "wrong number of sample runs")
    for run in runs:
        M = run["M"]
        expect(M == sorted(set(M)) and len(M) >= min(min_size, universe)
               and all(1 <= i <= universe for i in M), f"sample set {M} malformed")
        keep = set(M)
        restricted = {frozenset(x for x in p if x[0] in keep) for p in family}
        expect(run["hereditary"] is closed(restricted, mode), f"hereditary flag wrong for M={M}")
        if run["hereditary"] is False:
            a = frozenset(map(tuple, run["violation"]["a"]))
            b = frozenset(map(tuple, run["violation"]["b"]))
            expect(a < b, "violation a is not a proper sub-pattern of b")
            expect(b in restricted and a not in restricted, "violation does not violate")
            if mode == "weakly":
                expect(len({c for _, c in a}) <= 1, "weak violation mixes colours")
    expect(report["all_fail"] == all(r["hereditary"] is False for r in runs), "all_fail differs")
