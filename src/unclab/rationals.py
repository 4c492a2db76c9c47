"""Exact rational parsing and canonical formatting.

Wire format is the string "p/q" in lowest terms with q > 0. Parsing reads
strings only and is lenient (plain integers and surrounding whitespace
accepted); emission is always canonical, so "2" round-trips to "2/1". The
integer kernels scale their Fractions to one common denominator here; the
subset generator and the coordinate-set normaliser that several layers
share live here too, so that no layer imports another for them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DomainError, RationalFormatError


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str):
        raise RationalFormatError(f"expected rational string, got {type(text).__name__}")
    s = text.strip()
    if not s:
        raise RationalFormatError("empty rational literal")
    num, slash, den = s.partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:
        raise RationalFormatError(f"malformed rational {text!r}")
    if q == 0:
        raise RationalFormatError(f"zero denominator in {text!r}")
    return Fraction(p, q)


def format_rational(value: Fraction | int) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _common_denominator(xs: list[Fraction]) -> tuple[int, list[int]]:
    """The least denom > 0 with every x * denom an integer, and those integers.

    Lets an exact kernel run on plain ints and build one Fraction at the end.
    """
    denom = lcm(*{x.denominator for x in xs})
    return denom, [x.numerator * (denom // x.denominator) for x in xs]


def _subsets(base: tuple[int, ...]):
    """Every subset of base as a tuple, in ascending bitmask order."""
    n = len(base)
    for mask in range(1 << n):
        yield tuple(base[i] for i in range(n) if mask >> i & 1)


def _coords(xs) -> tuple[int, ...]:
    """The coordinates xs sorted, repeats dropped; refuses one below 1."""
    out = tuple(sorted(set(xs)))
    if out and out[0] < 1:
        raise DomainError("coordinates must be >= 1")
    return out
