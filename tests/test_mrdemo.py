"""Coded special-sequence demo: placement, norm instance, report freeze."""

import random
from fractions import Fraction as F

import pytest

from conftest import apply, rand_resolution, rand_sparse
from unclab import serialize as ser
from unclab.errors import DomainError
from unclab.mrdemo import coded_norm_instance, mr_demo, phi_index, special_sequence
from unclab.norms import Functional, NormInstance, SparseVector, eval_norm


@pytest.fixture
def family(fixtures):
    return ser.load_resolution_list(ser.read_json_file(str(fixtures / "mr_family.json")))


def test_phi_index_deterministic_and_in_range():
    seen = set()
    for stage in range(6):
        for prev in (-1, 0, 3):
            v = phi_index(9, stage, prev, 1 + 4 * stage, 7)
            assert 0 <= v < 7
            assert v == phi_index(9, stage, prev, 1 + 4 * stage, 7)
            seen.add(v)
    assert len(seen) > 1  # the coding map actually moves


def test_special_sequence_placement(family):
    blocks = special_sequence(family, 4, 0)
    assert [b.family_index for b in blocks] == [2, 1, 2, 0]
    # consecutive intervals, no gaps: lengths 4, 2, 4, 2
    starts = [b.start for b in blocks]
    assert starts == [1, 5, 7, 11]
    for b in blocks:
        r = family[b.family_index]
        assert [c for c, _ in b.vector.entries] == \
            list(range(b.start, b.start + len(r.pattern)))
        assert [v for _, v in b.vector.entries] == list(r.alpha)
        # dual mass: (1/total_weight) per coordinate, block pairing = len/weight
        w = r.total_weight()
        assert all(c == F(1) / w for _, c in b.dual.entries)
        assert apply(b.dual, b.vector.as_dict()) == sum(r.alpha, F(0)) / w
    with pytest.raises(DomainError):
        special_sequence([], 4, 0)
    with pytest.raises(DomainError):
        special_sequence(family, 1, 0)
    with pytest.raises(DomainError):
        special_sequence(family, 33, 0)


def test_coded_norm_instance_shape(family):
    blocks = special_sequence(family, 4, 0)
    inst = coded_norm_instance(blocks)
    assert inst.dim == 12
    assert inst.projection_class == "intervals"
    assert inst.include_sup
    # the placed duals concatenated, and its negation
    assert len(inst.functionals) == 2
    assert inst.functionals[0].entries == tuple(
        e for b in blocks for e in b.dual.entries)


def block_interval_instance(blocks) -> NormInstance:
    """The norm by its definition: one functional per block interval
    [j1, j2], the sum of the placed duals of blocks j1..j2, over intervals."""
    k = len(blocks)
    sums = [Functional.from_pairs([e for b in blocks[j1:j2 + 1] for e in b.dual.entries])
            for j1 in range(k) for j2 in range(j1, k)]
    dim = max(c for c, _ in blocks[-1].vector.entries)
    return NormInstance.build(dim, sums, "intervals", include_sup=True)


def test_coded_norm_equals_block_interval_family(family):
    rng = random.Random(33)
    families = [family] + [[rand_resolution(rng, max_len=5) for _ in range(rng.randint(1, 4))]
                           for _ in range(6)]
    for members in families:
        for k in range(2, 13):
            blocks = special_sequence(members, k, rng.randint(0, 10 ** 6))
            inst, oracle = coded_norm_instance(blocks), block_interval_instance(blocks)
            assert len(oracle.functionals) == k * (k + 1)
            sums = [SparseVector.from_pairs(
                (i, -v if alternate and j % 2 == 0 else v)
                for j in stages for i, v in blocks[j].vector.entries)
                for stages, alternate in ((range(k), True), (range(0, k, 2), False),
                                          (range(1, k, 2), False))]
            for v in sums + [rand_sparse(rng, inst.dim) for _ in range(4)]:
                assert eval_norm(inst, v) == eval_norm(oracle, v)


def test_mr_demo_frozen(family):
    rep = mr_demo(family, 4, 0)
    assert rep["label"] == "exploratory"
    assert rep["phi_chain"] == [2, 1, 2, 0]
    assert rep["universe"] == 12
    assert rep["family_size"] == 3
    assert rep["alternating_norm"] == 1
    assert rep["odd_norm"] == 2 and rep["even_norm"] == 2
    assert rep["split_sum"] == 4 == rep["split_target"]
    assert rep["split_meets_target"] is True
    assert rep["eta"] == F(3, 2)
    assert rep["chain_budget"] == 1
    assert rep["alternating_bound"] == 1 + 1 + 2 * 4 * F(3, 2)
    assert rep["alternating_within_bound"] is True
    assert sorted(rep) == [
        "alternating_bound", "alternating_norm", "alternating_within_bound",
        "chain_budget", "eta", "even_norm", "family_size", "k", "label",
        "odd_norm", "phi_chain", "seed", "split_meets_target", "split_sum",
        "split_target", "universe"]


def test_mr_demo_seed_and_k_sensitivity(family):
    assert mr_demo(family, 4, 0) == mr_demo(family, 4, 0)
    other = mr_demo(family, 4, 5)
    assert other["phi_chain"] == [1, 1, 0, 1]
    assert other["universe"] == 8
    # split grows linearly with k; the alternating side stays collapsed
    six = mr_demo(family, 6, 0)
    assert six["split_sum"] == 6
    assert six["split_meets_target"] is True
    assert six["alternating_norm"] <= six["alternating_bound"]
