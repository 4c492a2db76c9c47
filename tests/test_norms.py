import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unclab
from conftest import (apply, brute_norm, build_standard, rand_sparse, restrict, sup_norm, vadd,
                      vscale)
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
    inst = NormInstance.build(2, [f])
    assert len(inst.functionals) == 2
    assert inst.functionals[1].entries == ((1, Fraction(-1)),)
    # negation-closed input family is not doubled
    inst2 = NormInstance.build(2, [f, vscale(-1, f)])
    assert len(inst2.functionals) == 2


def test_build_validation():
    f = Functional.from_pairs([(3, F1)])
    with pytest.raises(DomainError):
        NormInstance.build(2, [f])
    with pytest.raises(DomainError):
        NormInstance.build(0, [])
    with pytest.raises(DomainError):
        NormInstance.build(2, [], projection_class="rows")
    # all_subsets evaluation is linear in the dim, so no dim is refused
    assert NormInstance.build(23, [], projection_class="all_subsets").dim == 23


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
                           projection_class)
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
