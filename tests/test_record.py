"""The record base that the library's value types derive from."""

from fractions import Fraction as F

import pytest

from unclab.caps import Caps, load_caps
from unclab.constants import ConstantQuery, ConstantReport
from unclab.errors import DomainError
from unclab.norms import SparseVector
from unclab.ramsey import ColourFamily, PrefixContinuousMap
from unclab.resolutions import Resolution
from unclab.serialize import to_jsonable


def test_fields_are_the_annotations_in_order():
    assert Resolution._fields == ("k", "pattern", "alpha")
    assert ConstantReport._fields == ("mode", "method", "value_lower", "value_upper",
                                      "witness", "details")
    assert Caps._fields[:3] == ("brute_bracket", "grid_pairs", "lp_dim")
    rep = ConstantReport("K", "grid", F(1), None, None)
    assert list(to_jsonable(rep)) == list(ConstantReport._fields)


def test_construction_by_position_keyword_and_default():
    r = Resolution(2, (1, 2), (F(1), F(1, 2)))
    assert (r.k, r.pattern, r.alpha) == (2, (1, 2), (F(1), F(1, 2)))
    assert Resolution(2, alpha=(F(1), F(1, 2)), pattern=(1, 2)) == r
    q = ConstantQuery("BOU", D=F(2), d=F(1))
    assert (q.mode, q.delta, q.D, q.d, q.order) == ("BOU", None, F(2), F(1), None)
    assert Caps().lp_dim == 14 and Caps(1).brute_bracket == 1
    for args, kwargs in [((2, (1,), (F(1),), 4), {}),       # one too many
                         ((2, (1,)), {}),                     # alpha missing
                         ((2, (1,), (F(1),)), {"k": 3}),      # k given twice
                         ((2, (1,), (F(1),)), {"colour": 1})]:  # no such field
        with pytest.raises(TypeError):
            Resolution(*args, **kwargs)


def test_dict_default_is_fresh_per_record():
    a = ConstantReport("K", "grid", F(1), None, None)
    b = ConstantReport("K", "grid", F(1), None, None)
    a.details["cells"] = 1
    assert b.details == {} and ConstantReport.details == {}
    # a dict given to the constructor is kept as it is
    details = {"lattice_points": 8}
    assert ConstantReport("K", "grid", F(1), None, None, details).details is details
    assert ConstantReport("K", "grid", F(1), None, witness=None,
                          details=details).details is details


def test_post_init_validates():
    with pytest.raises(DomainError, match="k must be"):
        Resolution(0, (1,), (F(1),))
    with pytest.raises(DomainError, match="needs delta"):
        ConstantQuery("K")
    with pytest.raises(DomainError, match="outside universe"):
        ColourFamily(2, 3, (frozenset({(4, 1)}),))


def test_records_refuse_assignment(monkeypatch):
    r = Resolution(1, (1,), (F(1),))
    for name in ("k", "weight"):
        with pytest.raises(AttributeError, match="frozen"):
            setattr(r, name, 2)
    assert r.k == 1 and not hasattr(r, "weight")
    with pytest.raises(AttributeError, match="frozen"):
        Caps().lp_dim = 3
    monkeypatch.setenv("UNCLAB_CAPS", "lp_dim=4")
    assert load_caps() == Caps(lp_dim=4)


def test_cached_property_on_a_frozen_record():
    m = PrefixContinuousMap.from_dict(1, {(1,): (frozenset(),), (2,): (frozenset({2}),)})
    assert m._by_prefix is m._by_prefix
    assert m.missing_prefixes(3) == [(3,)]


def test_equality_hash_and_repr_over_the_fields():
    one = SparseVector.from_pairs([(1, 1)])
    assert one == SparseVector(((1, F(1)),)) and one != SparseVector(())
    assert hash(one) == hash(SparseVector(((1, F(1)),)))
    assert repr(one) == "SparseVector(entries=((1, Fraction(1, 1)),))"
    # records of different types never compare equal
    assert ConstantQuery("C_uncond") != "C_uncond"
