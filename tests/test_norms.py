import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unclab
from conftest import (apply, brute_norm, build_standard, first_projection, rand_sparse, restrict,
                      sup_norm, vadd, vscale)
from unclab.errors import DomainError
from unclab.norms import (PROJECTION_CLASSES, Functional, NormInstance,
                          SparseVector, dual_certificate, eval_norm)

F1 = Fraction(1)


def vec(*vals):
    return SparseVector.from_pairs(
        (i + 1, Fraction(v)) for i, v in enumerate(vals) if v != 0)


def test_sparse_vector_canon():
    v = SparseVector.from_pairs([(3, F1), (1, Fraction(0)), (2, Fraction(-1, 2))])
    assert v.entries == ((2, Fraction(-1, 2)), (3, F1))
    assert v.support == (2, 3)
    assert v.as_dict().get(1, 0) == 0 and v.as_dict().get(3, 0) == 1
    assert sup_norm(v) == 1
    with pytest.raises(DomainError):
        SparseVector.from_pairs([(1, F1), (1, F1)])
    with pytest.raises(DomainError):
        SparseVector.from_pairs([(0, F1)])
    assert SparseVector.from_pairs([(2, Fraction(0))]).entries == ()


def test_functional_apply():
    f = Functional.from_pairs([(1, F1), (2, Fraction(-1))])
    assert apply(f, vec(3, 5).as_dict()) == -2
    assert apply(vscale(-1, f), vec(3, 5).as_dict()) == 2


def test_functional_is_sparse_vector():
    assert Functional is SparseVector
    assert unclab.Functional is unclab.norms.SparseVector is SparseVector


def test_build_closure_under_negation():
    f = Functional.from_pairs([(1, F1)])
    inst = NormInstance.build(2, [f], "initial_segments", True)
    assert len(inst.functionals) == 2
    assert inst.functionals[1].entries == ((1, Fraction(-1)),)
    # negation-closed input family is not doubled
    inst2 = NormInstance.build(2, [f, vscale(-1, f)], "initial_segments", True)
    assert len(inst2.functionals) == 2


def test_build_validation():
    f = Functional.from_pairs([(3, F1)])
    with pytest.raises(DomainError):
        NormInstance.build(2, [f], "initial_segments", True)
    with pytest.raises(DomainError):
        NormInstance.build(0, [], "initial_segments", True)
    with pytest.raises(DomainError):
        NormInstance.build(2, [], "rows", True)
    # all_subsets evaluation is linear in the dim, so no dim is refused
    assert NormInstance.build(23, [], "all_subsets", True).dim == 23


def test_summing_frozen():
    inst = build_standard("summing", 4)
    a = vec(1, 0, 1, 0)
    assert eval_norm(inst, a) == 2
    cert = dual_certificate(inst, a)
    assert cert.value == 2
    assert cert.kind == "functional"
    # first attaining pair in enumeration order: the third partial-sum
    # functional on the segment [1..3]
    assert cert.functional_index == 2
    assert cert.projection == (1, 2, 3)
    f = inst.functionals[cert.functional_index]
    assert apply(f, restrict(a, cert.projection).as_dict()) == cert.value


def test_summing_alternating():
    inst = build_standard("summing", 4)
    b = vec(1, -1, 1, -1)
    assert eval_norm(inst, b) == 1
    e = restrict(vec(1, -1, 1, -1), [1, 3])
    assert eval_norm(inst, e) == 2


def test_l1_instance():
    inst = build_standard("l1", 3)
    assert eval_norm(inst, vec(1, -1, 1)) == 3
    assert eval_norm(inst, vec(Fraction(1, 2), 0, Fraction(-1, 2))) == 1
    cert = dual_certificate(inst, vec(1, -1, 1))
    assert cert.value == 3


def test_linf_instance():
    inst = build_standard("linf", 3)
    assert eval_norm(inst, vec(1, -2, 1)) == 2
    c = dual_certificate(inst, vec(1, -2, 1))
    assert c.value == 2


def test_pointcloud_no_sup():
    inst = build_standard("pointcloud", 2,
                          points=[[F1, F1], [F1, Fraction(-1)]])
    assert inst.include_sup is False
    # full-support row evaluation only reaches 0 on (1, -1) for row one,
    # 2 for row two
    assert eval_norm(inst, vec(1, -1)) == 2


def test_vector_outside_dim():
    inst = build_standard("summing", 3)
    with pytest.raises(DomainError):
        eval_norm(inst, vec(0, 0, 0, 1))


def test_zero_certificate():
    inst = build_standard("summing", 3)
    cert = dual_certificate(inst, SparseVector(()))
    assert cert.kind == "zero" and cert.value == 0


def test_sup_certificate():
    # family that never attains the sup: single tiny functional
    f = Functional.from_pairs([(1, Fraction(1, 4))])
    inst = NormInstance.build(2, [f], "initial_segments", include_sup=True)
    v = vec(1, 0)
    assert eval_norm(inst, v) == 1
    cert = dual_certificate(inst, v)
    assert cert.kind == "sup" and cert.coordinate == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_norm_axioms_summing(seed):
    # summing 4, and a random family with the sup term in every class
    rng = random.Random(seed)
    instances = [build_standard("summing", 4)] + [
        NormInstance.build(4, [rand_sparse(rng, 4) for _ in range(rng.randint(1, 3))],
                           projection_class, True)
        for projection_class in PROJECTION_CLASSES]
    u = rand_sparse(rng, 4)
    v = rand_sparse(rng, 4)
    c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    for inst in instances:
        nu, nv = eval_norm(inst, u), eval_norm(inst, v)
        assert nu > 0
        assert eval_norm(inst, vadd(u, v)) <= nu + nv
        assert eval_norm(inst, vscale(c, u)) == abs(c) * nu
        # certificate re-verification
        cert = dual_certificate(inst, u)
        assert cert.value == nu
        if cert.kind == "functional":
            f = inst.functionals[cert.functional_index]
            assert apply(f, restrict(u, cert.projection).as_dict()) == nu
        else:
            assert abs(u.as_dict().get(cert.coordinate, 0)) == nu


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_norm_axioms_l1(seed):
    rng = random.Random(seed)
    inst = build_standard("l1", 3)
    u = rand_sparse(rng, 3)
    v = rand_sparse(rng, 3)
    l1 = sum((abs(x) for _, x in u.entries), Fraction(0))
    assert eval_norm(inst, u) == l1
    assert eval_norm(inst, vadd(u, v)) <= l1 + eval_norm(inst, v)


def test_interval_class_vs_initial():
    f = Functional.from_pairs([(i, F1) for i in range(1, 5)])
    init = NormInstance.build(4, [f], "initial_segments", include_sup=False)
    ivl = NormInstance.build(4, [f], "intervals", include_sup=False)
    v = vec(-1, 1, 1, -1)
    assert eval_norm(init, v) == 1
    assert eval_norm(ivl, v) == 2
    cert = dual_certificate(ivl, v)
    assert cert.projection == (2, 3)


def test_all_subsets_class():
    f = Functional.from_pairs([(i, F1) for i in range(1, 4)])
    inst = NormInstance.build(3, [f], "all_subsets", include_sup=False)
    v = vec(1, -2, 3)
    assert eval_norm(inst, v) == 4
    cert = dual_certificate(inst, v)
    assert cert.projection == (1, 3)
    assert apply(inst.functionals[cert.functional_index],
                 restrict(v, cert.projection).as_dict()) == 4


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_eval_norm_equals_brute_force(data):
    # the integer kernel against the definition: max over every projection
    # of the class of f(P_E v), and the sup term; vector and functionals
    # draw denominators 1..12 independently, so their scales differ
    dim = data.draw(st.integers(1, 5))
    rows = st.lists(RATIONALS, min_size=dim, max_size=dim).map(
        lambda row: SparseVector.from_pairs((i + 1, x) for i, x in enumerate(row)))
    funcs = data.draw(st.lists(rows, min_size=1, max_size=4))
    inst = NormInstance.build(dim, funcs, data.draw(st.sampled_from(PROJECTION_CLASSES)),
                              data.draw(st.booleans()))
    v = data.draw(rows)
    want = brute_norm(inst, v)
    assert eval_norm(inst, v) == want
    assert dual_certificate(inst, v).value == want


def test_projection_scan_equals_the_enumeration():
    # seeded segment and interval instances, dims 1-9, with small values so
    # that ties are common; each attaining functional's first set from the
    # scan must equal the first set of the class enumeration
    rng = random.Random(35)
    values = [Fraction(x) for x in (-2, -1, 1, 2)] + [Fraction(1, 2)]

    def draw(dim, k):
        coords = sorted(rng.sample(range(1, dim + 1), rng.randint(1, min(k, dim))))
        return SparseVector.from_pairs((i, rng.choice(values)) for i in coords)

    attaining = 0
    for trial in range(24_000):
        dim = 1 + trial % 9
        cls = ("initial_segments", "intervals")[trial // 9 % 2]
        inst = NormInstance.build(dim, [draw(dim, 6) for _ in range(rng.randint(1, 2))], cls,
                                  rng.random() < 0.2)
        v = draw(dim, dim)
        cert = dual_certificate(inst, v)
        if cert.kind != "functional":
            continue
        attaining += 1
        f = inst.functionals[cert.functional_index]
        assert cert.projection == first_projection(inst, f, v, cert.value), (trial, inst, v)
    assert attaining >= 20_000


def test_interval_certificate_scales_with_the_entries():
    # the first attaining interval starts at dim / 2, after every interval
    # that starts earlier has been ruled out: the enumeration of all
    # intervals took seconds at dim 800
    dim = 4000
    half = dim // 2
    f = Functional.from_pairs([(half - 1, F1), (half, F1)])
    inst = NormInstance.build(dim, [f], "intervals", False)
    v = SparseVector.from_pairs([(half - 1, -F1), (half, F1)])
    start = time.perf_counter()
    cert = dual_certificate(inst, v)
    assert time.perf_counter() - start < 1
    assert (cert.value, cert.functional_index, cert.projection) == (1, 0, (half,))


def test_norm_memory_follows_the_touched_coordinates():
    # a one-entry instance at dim 10^7: the dense vector covers coordinate 1
    inst = NormInstance.build(10 ** 7, [Functional.from_pairs([(1, F1)])],
                              "initial_segments", True)
    v = SparseVector.from_pairs([(1, Fraction(1, 2))])
    tracemalloc.start()
    try:
        value = eval_norm(inst, v)
        cert = dual_certificate(inst, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert value == cert.value == Fraction(1, 2) and cert.projection == (1,)
