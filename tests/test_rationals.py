from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unclab.errors import RationalFormatError
from unclab.rationals import (_common_denominator, format_rational,
                              parse_rational)


def test_parse_basic():
    assert parse_rational("5/4") == Fraction(5, 4)
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(" 10/4 ") == Fraction(5, 2)
    assert parse_rational("6/-4") == Fraction(-3, 2)


def test_parse_rejects():
    for bad in ("1/0", "", "  ", "a/b", "1.5", "1/2/3", "/3", "5/"):
        with pytest.raises(RationalFormatError):
            parse_rational(bad)
    # literals are strings, in documents too (serialize.load_rational)
    for bad in (3, 1.5, None):
        with pytest.raises(RationalFormatError, match="expected rational string"):
            parse_rational(bad)


def test_format_canonical():
    assert format_rational(Fraction(5, 4)) == "5/4"
    assert format_rational(2) == "2/1"
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(10, 4)) == "5/2"


@given(st.fractions())
def test_round_trip(x):
    assert parse_rational(format_rational(x)) == x


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_format_lowest_terms(p, q):
    text = format_rational(Fraction(p, q))
    num, den = text.split("/")
    import math
    assert math.gcd(int(num), int(den)) == 1
    assert int(den) > 0


@given(st.lists(st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6)),
                max_size=4))
def test_common_denominator_is_least(xs):
    denom, ints = _common_denominator(xs)
    assert ints == [x * denom for x in xs]
    assert all(type(i) is int for i in ints)
    # no smaller positive scale clears every denominator
    assert denom == min(d for d in range(1, denom + 1)
                        if all((x * d).denominator == 1 for x in xs))


def test_common_denominator_frozen():
    assert _common_denominator([]) == (1, [])
    assert _common_denominator([Fraction(1, 4), Fraction(-5, 6), Fraction(0)]) == (12, [3, -10, 0])
