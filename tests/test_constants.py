"""Projection-constant queries: grid certificates, LP exactness, witness audit."""

import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import (apply, brute_member, brute_norm, brute_oscillation, build_standard,
                      kstar_denominator, min_split, restrict, verify_witness)
from unclab.constants import (
    DEFAULT_STEP,
    GRID_ONLY,
    MODES,
    ConstantQuery,
    ConstantReport,
    ConstantWitness,
    compute_constant,
)
from unclab.errors import DomainError, SizeError
from unclab.lp import _dedupe_forms, _linear_pieces, _lp_cells, _lp_max
from unclab.norms import PROJECTION_CLASSES, NormInstance, SparseVector
from unclab.rationals import _subsets
from unclab.schreier import SchreierDecomposition


def q(mode, **kw):
    return ConstantQuery(mode=mode, **kw)


ALL_MODE_QUERIES = [
    q("K", delta=F(1, 2)),
    q("Kprime", delta=F(1, 2)),
    q("L", delta=F(1, 2)),
    q("Lprime", delta=F(1, 2)),
    q("A", delta=F(1, 2)),
    q("C_uncond"),
    q("quasi_greedy"),
    q("BOU", D=F(2), d=F(2)),
    q("Kstar", delta=F(1)),
    q("schreier", order=1),
]


def test_query_validation():
    with pytest.raises(DomainError):
        ConstantQuery(mode="bogus")
    with pytest.raises(DomainError):
        ConstantQuery(mode="K")  # delta required
    with pytest.raises(DomainError):
        ConstantQuery(mode="L", delta=F(0))
    with pytest.raises(DomainError):
        ConstantQuery(mode="Kstar", delta=F(3, 2))
    with pytest.raises(DomainError):
        ConstantQuery(mode="BOU", D=F(2))  # d missing
    with pytest.raises(DomainError):
        ConstantQuery(mode="BOU", D=F(1, 2), d=F(1))
    for order in (None, 0, -1):
        with pytest.raises(DomainError, match="needs an order >= 1"):
            ConstantQuery(mode="schreier", order=order)
    for order in (3, 10 ** 6):
        assert ConstantQuery(mode="schreier", order=order).order == order
    # a field the mode does not read is an error, not silently dropped
    with pytest.raises(DomainError):
        ConstantQuery(mode="C_uncond", delta=F(1, 2))
    with pytest.raises(DomainError):
        ConstantQuery(mode="K", delta=F(1, 2), order=1)
    with pytest.raises(DomainError):
        ConstantQuery(mode="BOU", D=F(2), d=F(1), delta=F(1, 2))
    with pytest.raises(DomainError):
        ConstantQuery(mode="schreier", order=1, D=F(2))
    assert len(ALL_MODE_QUERIES) == len(MODES)


def test_l1_reference_all_modes_one():
    # fully unconditional instance: every coordinate projection is norm-1,
    # so all ten constants collapse to exactly 1 and the basis vectors on
    # the half-integer lattice attain it
    inst = build_standard("l1", 3)
    for query in ALL_MODE_QUERIES:
        rep = compute_constant(inst, query, method="grid", step=F(1, 2))
        assert rep.value_lower == 1, query.mode
        assert rep.method == "grid(step=1/2)"
        assert rep.value_upper is None
        assert rep.witness is not None
        assert verify_witness(inst, query, rep.witness) == 1


def test_summing4_lower_bounds():
    # (1,-1,1,-1) restricted to {1,3} doubles: ||(1,0,1,0)|| = 2 against
    # norm 1, which is feasible for every one of these parameter choices
    inst = build_standard("summing", 4)
    cases = [
        q("C_uncond"),
        q("K", delta=F(1)),
        q("A", delta=F(1, 2)),
        q("BOU", D=F(1), d=F(1)),
        q("quasi_greedy"),
        q("schreier", order=1),
    ]
    for query in cases:
        rep = compute_constant(inst, query, method="grid", step=F(1, 2))
        assert rep.value_lower == 2, query.mode
        assert rep.details["lattice_points"] == 5**4 - 1
        assert verify_witness(inst, query, rep.witness) == rep.value_lower
    # mode-specific witness extras survive the round trip
    bou = compute_constant(inst, q("BOU", D=F(1), d=F(1)), "grid", step=F(1, 2))
    assert bou.witness.decomposition is not None
    qg = compute_constant(inst, q("quasi_greedy"), "grid", step=F(1, 2))
    assert qg.witness.threshold is not None


def test_restricted_variants_never_exceed_free_ones():
    # the all-coordinates-large feasible set sits inside the threshold-set
    # feasible set, so on any common lattice L <= K and Lprime <= Kprime
    inst = build_standard("summing", 3)
    for delta in (F(1, 4), F(1, 2), F(3, 4), F(1)):
        vals = {}
        for mode in ("K", "L", "Kprime", "Lprime"):
            rep = compute_constant(inst, q(mode, delta=delta), "grid", step=F(1, 4))
            vals[mode] = rep.value_lower
        assert vals["L"] <= vals["K"]
        assert vals["Lprime"] <= vals["Kprime"]


def test_kstar_denominator_is_full_support_cloud_sup():
    # single-point cloud (1,1): the denominator max f(a) vanishes on the
    # line a1 = -a2, so the lattice optimum divides by 1/2, not by a
    # projected value. a = (-1, 1/2) against the negated point: numerator
    # (-1)(-1) = 1 on E = {1}, denominator max(-1/2, 1/2) = 1/2.
    inst = build_standard("pointcloud", 2, points=[[F(1), F(1)]])
    query = q("Kstar", delta=F(1))
    rep = compute_constant(inst, query, method="grid", step=F(1, 2))
    assert rep.value_lower == 2
    wit = rep.witness
    assert wit.point_index is not None
    assert wit.numerator == 1 and wit.denominator == F(1, 2)
    assert verify_witness(inst, query, wit) == 2
    # the cloud sup is only a seminorm here; the LP is unbounded, so the
    # degeneracy (the true supremum is infinite) is reported, not a number
    with pytest.raises(DomainError):
        compute_constant(inst, query, method="fractional_lp")


def test_kstar_lp_beats_half_integer_grid():
    # definite cloud {(1,0), (1/2,1)}: optimum at a = (-2/3, 1) where both
    # cloud values tie at 2/3, ratio 1/(2/3) = 3/2; the step-1/2 lattice
    # only reaches 4/3 at a = (-1/2, 1)
    inst = build_standard("pointcloud", 2, points=[[F(1), F(0)], [F(1, 2), F(1)]])
    query = q("Kstar", delta=F(1, 2))
    grid = compute_constant(inst, query, method="grid", step=F(1, 2))
    lp = compute_constant(inst, query, method="fractional_lp")
    assert grid.value_lower == F(4, 3)
    assert lp.value_lower == lp.value_upper == F(3, 2)
    assert grid.value_lower <= lp.value_lower
    assert lp.method == "fractional_lp"
    assert "converged" not in lp.details
    assert verify_witness(inst, query, lp.witness) == F(3, 2)


def test_lp_agrees_with_grid_on_summing2():
    inst = build_standard("summing", 2)
    for query in (q("C_uncond"), q("schreier", order=1)):
        grid = compute_constant(inst, query, method="grid", step=F(1, 2))
        lp = compute_constant(inst, query, method="fractional_lp")
        assert lp.value_lower == lp.value_upper == 1
        assert grid.value_lower <= lp.value_lower
        assert verify_witness(inst, query, lp.witness) == lp.value_lower


LP_MODES = [m for m in MODES if m not in GRID_ONLY]


def random_lp_case(rng, mode):
    """A random dim-2 instance whose two full functionals span Q^2, so the
    norm and the point-cloud sup are definite, and a random query."""
    def rational():
        return F(rng.randint(-4, 4), rng.randint(1, 4))
    while True:
        funcs = [SparseVector.from_pairs((i, rational()) for i in (1, 2))
                 for _ in range(rng.randint(2, 3))]
        f, g = funcs[0].as_dict(), funcs[1].as_dict()
        if f.get(1, 0) * g.get(2, 0) != f.get(2, 0) * g.get(1, 0):
            break
    inst = NormInstance.build(2, funcs, rng.choice(PROJECTION_CLASSES),
                              rng.random() < 0.5)
    if mode == "C_uncond":
        return inst, q(mode)
    if mode == "schreier":
        return inst, q(mode, order=rng.randint(1, 2))
    return inst, q(mode, delta=rng.choice([F(1, 4), F(1, 2), F(3, 4), F(1)]))


@pytest.mark.parametrize("mode", LP_MODES)
def test_lp_oracle_every_lp_mode(mode):
    # the exact LP is the supremum, so the step-1/4 lattice cannot beat it,
    # it closes its own gap, and its witness recomputes to its value
    rng = random.Random(f"lp-oracle-{mode}")
    for _ in range(3):
        inst, query = random_lp_case(rng, mode)
        grid = compute_constant(inst, query, method="grid", step=F(1, 4))
        lp = compute_constant(inst, query, method="fractional_lp")
        assert grid.value_lower <= lp.value_lower
        assert lp.value_upper == lp.value_lower
        if lp.witness is None:
            assert lp.value_lower == 0
        else:
            assert verify_witness(inst, query, lp.witness) == lp.value_lower


RATIO_MODES = [m for m in LP_MODES if m not in ("Kprime", "Lprime")]


@pytest.mark.parametrize("mode", RATIO_MODES)
def test_lp_value_is_optimal_in_every_cell(mode):
    # Dinkelbach's stopping condition as an exact upper-bound oracle: the
    # reported value v bounds num(a) / ||a|| on a cell exactly when
    # max num.a - v*z over the cell's rows, the box and z >= every
    # denominator form is <= 0 (z is variable 0, as in the LP cells)
    rng = random.Random(f"lp-optimality-{mode}")
    for _ in range(2):
        inst, query = random_lp_case(rng, mode)
        v = compute_constant(inst, query, method="fractional_lp").value_lower
        pieces = _dedupe_forms(_linear_pieces(inst))
        dens = (_dedupe_forms(f.as_dict() for f in inst.functionals)
                if mode == "Kstar" else pieces)
        box = [({i: s}, 1) for i in (1, 2) for s in (1, -1)]
        epigraph = [({**f, 0: -1}, 0) for f in dens]
        for _, nums, rows, _ in _lp_cells(inst, query, pieces):
            for num in nums:
                res = _lp_max({**num, 0: -v}, rows + box + epigraph, 3)
                assert res is None or res[0] <= 0, (mode, num)


def test_grid_only_modes_reject_lp():
    inst = build_standard("summing", 2)
    assert set(GRID_ONLY) == {"quasi_greedy", "BOU"}
    for query in (q("quasi_greedy"), q("BOU", D=F(1), d=F(1))):
        with pytest.raises(DomainError):
            compute_constant(inst, query, method="fractional_lp")


def test_method_and_step_validation():
    inst = build_standard("summing", 2)
    with pytest.raises(DomainError):
        compute_constant(inst, q("C_uncond"), method="newton")
    for bad in (F(0), F(2, 3), F(3, 2)):
        with pytest.raises(DomainError):
            compute_constant(inst, q("C_uncond"), method="grid", step=bad)
    # the step is a grid option: the LP refuses every step, valid or not
    for step in (F(1, 8), F(1, 2), F(2, 3)):
        with pytest.raises(DomainError, match="grid method only"):
            compute_constant(inst, q("C_uncond"), method="fractional_lp", step=step)
    rep = compute_constant(inst, q("C_uncond"), "grid")
    assert rep.method == f"grid(step={DEFAULT_STEP})" == "grid(step=1/8)"


def test_grid_dim_cap():
    # dim 11 at step 1: (5^11 - 1)/2 = 24414062 (point, E) pairs
    inst = build_standard("linf", 11)
    with pytest.raises(SizeError, match="grid_pairs: .* = 24414062 exceeds"):
        compute_constant(inst, q("C_uncond"), method="grid", step=F(1))
    # linf at dim 7, step 1/2: 2391484 pairs, about 20 s of search
    with pytest.raises(SizeError, match="= 2391484 exceeds"):
        compute_constant(build_standard("linf", 7), q("C_uncond"), method="grid",
                         step=F(1, 2))
    # a huge dim is refused at once, its count named by a power of two
    huge = NormInstance.build(10 ** 7, [SparseVector.from_pairs([(1, 1)])],
                              "initial_segments", True)
    with pytest.raises(SizeError, match=r"^grid_pairs: \(point, E\) pairs >= 2\^23218 exceeds"):
        compute_constant(huge, q("C_uncond"), method="grid", step=F(1))


def test_grid_points_cap(monkeypatch):
    # the pair count ((4s+1)^dim - 1)/2 is checked before the search starts
    with pytest.raises(SizeError) as err:
        compute_constant(build_standard("linf", 10), q("C_uncond"), method="grid")
    assert str(err.value) == (f"grid_pairs: (point, E) pairs = {(33 ** 10 - 1) // 2} "
                              "exceeds cap 1000000 (override with UNCLAB_CAPS)")
    # and it is exact in C_uncond: each visited point t of the half lattice
    # yields its 2^|supp t| sets E, and a reference loop counts them
    inst = build_standard("linf", 3)
    monkeypatch.setenv("UNCLAB_CAPS", "grid_pairs=364")
    rep = compute_constant(inst, q("C_uncond"), method="grid", step=F(1, 2))
    assert rep.details["lattice_points"] == 5 ** 3 - 1
    half = [t for t in itertools.product(range(-2, 3), repeat=3)
            if next((x for x in t if x), 0) < 0]
    assert sum(2 ** sum(1 for x in t if x) for t in half) == 364
    monkeypatch.setenv("UNCLAB_CAPS", "grid_pairs=363")
    with pytest.raises(SizeError, match="grid_pairs"):
        compute_constant(inst, q("C_uncond"), method="grid", step=F(1, 2))


def tampered(a_pairs, E, **kw):
    a = SparseVector.from_pairs((i, F(v)) for i, v in a_pairs)
    return ConstantWitness(a=a, E=E, numerator=F(0), denominator=F(1), **kw)


def test_verify_witness_rejects_infeasible():
    s4 = build_standard("summing", 4)
    # E leaves the delta-threshold set
    with pytest.raises(DomainError):
        verify_witness(s4, q("K", delta=F(1)),
                       tampered([(1, 1), (2, F(1, 2))], (2,)))
    # Kprime norm cap violated
    with pytest.raises(DomainError):
        verify_witness(s4, q("Kprime", delta=F(1)),
                       tampered([(1, 1), (2, 1), (3, 1), (4, 1)], (1,)))
    # support dips under delta in L mode
    with pytest.raises(DomainError):
        verify_witness(s4, q("L", delta=F(1)),
                       tampered([(1, 1), (2, F(1, 2))], (1,)))
    # sup bound in K mode
    with pytest.raises(DomainError):
        verify_witness(s4, q("K", delta=F(1)), tampered([(1, 2)], (1,)))
    # quasi_greedy E must be exactly the threshold set
    with pytest.raises(DomainError):
        verify_witness(s4, q("quasi_greedy"),
                       tampered([(1, 1), (3, 1)], (1,), threshold=F(1)))
    # schreier admissibility: |E| > min E
    with pytest.raises(DomainError):
        verify_witness(s4, q("schreier", order=1),
                       tampered([(2, 1), (3, 1), (4, 1)], (2, 3, 4)))
    # A-mode feasibility inequality
    with pytest.raises(DomainError):
        verify_witness(s4, q("A", delta=F(1)),
                       tampered([(1, 1), (2, -1), (3, 1), (4, -1)], (1, 2)))
    # vanishing denominator on the degenerate cloud
    pc = build_standard("pointcloud", 2, points=[[F(1), F(1)]])
    with pytest.raises(DomainError):
        verify_witness(pc, q("Kstar", delta=F(1)),
                       tampered([(1, 1), (2, -1)], (1,), point_index=0))
    # BOU oscillation bound
    with pytest.raises(DomainError):
        verify_witness(s4, q("BOU", D=F(1), d=F(4)),
                       tampered([(1, 1), (2, F(1, 2))], (1, 2)))


# The Fraction grid that the integer-scaled grid replaced, kept as its
# oracle: every lattice point a SparseVector, every norm a Fraction from the
# definition (brute_norm), every ratio a Fraction, and the Schreier checks
# from the split DPs of conftest.

def ref_grid_points(dim, step):
    s = int(1 / step)
    values = [F(t, s) for t in range(-s, s + 1)]
    for combo in itertools.product(values, repeat=dim):
        if any(combo):
            yield SparseVector.from_pairs(
                (i + 1, v) for i, v in enumerate(combo) if v != 0)


def ref_feasible_pairs(inst, query, a):
    mode = query.mode
    if mode == "Kstar":
        av = a.as_dict()
        for t, f in enumerate(inst.functionals):
            E = tuple(i for i, c in f.entries
                      if abs(c) >= query.delta and c * av.get(i, 0) > 0)
            yield E, {"point_index": t, "kstar_f": f}
        return
    if mode == "quasi_greedy":
        for v in sorted({abs(x) for _, x in a.entries}, reverse=True):
            yield tuple(i for i, x in a.entries if abs(x) >= v), {"threshold": v}
        return
    if mode in ("K", "Kprime"):
        base = tuple(i for i, x in a.entries if abs(x) >= query.delta)
    elif mode in ("L", "Lprime") and any(abs(x) < query.delta for _, x in a.entries):
        return
    else:
        base = a.support
    for E in _subsets(base):
        if mode == "BOU":
            blocks = (min_split(E, lambda block: brute_oscillation(a, block) <= query.d)
                      if E and brute_oscillation(a, E) <= query.D else None)
            if blocks is not None and len(blocks) <= E[0]:
                yield E, {"decomposition": SchreierDecomposition(blocks)}
        elif mode != "schreier" or brute_member(query.order, E):
            yield E, {}


def ref_grid_search(inst, query, step):
    best, best_wit, points = None, None, 0
    for a in ref_grid_points(inst.dim, step):
        points += 1
        den = kstar_denominator(inst, a) if query.mode == "Kstar" else brute_norm(inst, a)
        if den == 0:
            continue
        if query.mode in ("Kprime", "Lprime") and den > 1:
            continue
        for E, extras in ref_feasible_pairs(inst, query, a):
            a_E = restrict(a, E)
            if query.mode == "Kstar":
                num = apply(extras["kstar_f"], a_E.as_dict())
            else:
                num = brute_norm(inst, a_E)
            if query.mode == "A" and query.delta * sum(abs(c) for _, c in a_E.entries) > num:
                continue
            ratio = num / den
            if best is None or ratio > best:
                best = ratio
                best_wit = ConstantWitness(
                    a=a, E=E, numerator=num, denominator=den,
                    threshold=extras.get("threshold"),
                    decomposition=extras.get("decomposition"),
                    point_index=extras.get("point_index"))
    return ConstantReport(
        mode=query.mode, method=f"grid(step={step})",
        value_lower=F(0) if best is None else best, value_upper=None,
        witness=best_wit, details={"lattice_points": points})


def random_query(rng, mode):
    if mode in ("K", "Kprime", "L", "Lprime", "A", "Kstar"):
        return q(mode, delta=rng.choice([F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]))
    if mode == "BOU":
        return q(mode, D=rng.choice([F(1), F(3, 2), F(2)]), d=rng.choice([F(1), F(3, 2)]))
    if mode == "schreier":
        return q(mode, order=rng.randint(1, 2))
    return q(mode)


@pytest.mark.parametrize("mode", MODES)
def test_grid_equals_fraction_reference(mode):
    # value, every witness field and lattice_points, in every class with and
    # without the sup term; dim 2 at step 1/4 and dim 3 at step 1/2 take
    # turns so each class and each sup choice meets both; coefficients over
    # denominators 1..6 so the family's scale L varies
    rng = random.Random(f"grid-reference-{mode}")
    for k, (include_sup, cls) in enumerate(itertools.product((True, False), PROJECTION_CLASSES)):
        dim, step = ((2, F(1, 4)), (3, F(1, 2)))[k % 2]
        funcs = [SparseVector.from_pairs(
            (i, F(rng.randint(-4, 4), rng.randint(1, 6)))
            for i in sorted(rng.sample(range(1, dim + 1), rng.randint(1, dim))))
            for _ in range(rng.randint(1, 3))]
        inst = NormInstance.build(dim, funcs, cls, include_sup)
        query = random_query(rng, mode)
        rep = compute_constant(inst, query, method="grid", step=step)
        assert rep == ref_grid_search(inst, query, step), (dim, cls, include_sup, query)
