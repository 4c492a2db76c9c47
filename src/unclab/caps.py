"""Size caps, overridable through the UNCLAB_CAPS environment variable.

Format: comma-separated name=value pairs, e.g.

    UNCLAB_CAPS="match_pairs=20000000,layout_pieces=500000"

Unknown names are rejected so typos do not silently keep defaults.
"""

from __future__ import annotations

import os

from .errors import DomainError, SizeError
from .record import Record


class Caps(Record):
    grid_pairs: int = 1_000_000     # max (point, E) pairs ((4s+1)^dim - 1)/2 of a grid at step 1/s
    lp_cells: int = 20_000          # max estimated LP cells of a fractional_lp constant
    layout_pieces: int = 1_000_000  # max pieces one structured_dp call builds
    match_pairs: int = 10_000_000   # max (L, block) pairs 2^u max(C(u, depth), 1) of a match scan
    hereditary_checks: int = 10_000_000  # max candidates and drawn numbers of a hereditary request
    bracket_cells: int = 4_000_000  # max bracket DP cells of a bracket, mr-demo or rademacher request


def load_caps() -> Caps:
    values = {}
    raw = os.environ.get("UNCLAB_CAPS", "").strip()
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise DomainError(f"UNCLAB_CAPS entry {item!r} is not name=value")
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in Caps._fields:
            raise DomainError(f"UNCLAB_CAPS names unknown cap {name!r}")
        try:
            values[name] = int(value)
        except ValueError:
            raise DomainError(f"UNCLAB_CAPS value for {name!r} is not an integer")
    return Caps(**values)


def check_cap(name: str, actual: int, what: str) -> None:
    """Refuse a request whose work `actual` exceeds the cap field `name`.
    A count past 2^128 is named by its power of two: str() refuses an int
    of more than 4300 digits."""
    cap = getattr(load_caps(), name)
    if actual > cap:
        size = (f"= {actual}" if actual.bit_length() <= 128
                else f">= 2^{actual.bit_length() - 1}")
        raise SizeError(f"{name}: {what} {size} exceeds cap {cap} (override with UNCLAB_CAPS)")
