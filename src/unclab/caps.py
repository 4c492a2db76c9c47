"""Size caps, overridable through the UNCLAB_CAPS environment variable.

Format: comma-separated name=value pairs, e.g.

    UNCLAB_CAPS="brute_bracket=10,layout_universe=20000"

Unknown names are rejected so typos do not silently keep defaults.
"""

from __future__ import annotations

import os

from .errors import DomainError, SizeError
from .record import Record


class Caps(Record):
    brute_bracket: int = 8          # max resolution length for bracket method="brute"
    grid_dim: int = 10              # max instance dim for compute_constant grid
    grid_points: int = 1_000_000    # max lattice points (2s+1)^dim - 1 of a grid at step 1/s
    lp_dim: int = 14                # max instance dim for compute_constant fractional_lp
    all_subsets_dim: int = 22       # max dim for the all_subsets projection class
    layout_universe: int = 10_000   # max canonical layout universe size
    brute_universe: int = 16        # max universe for elton brute_miniature
    match_universe: int = 16        # max universe for exhaustive search_matching
    remark_universe: int = 20       # max universe for remark_family
    orthogonal_budget: int = 100_000  # max candidate evaluations in explore_orthogonal_family
    rademacher_cells: int = 4_000_000  # max bracket DP cells of a Rademacher family or member


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


def check_cap(actual: int, cap: int, what: str) -> None:
    if actual > cap:
        raise SizeError(f"{what} = {actual} exceeds cap {cap} (override with UNCLAB_CAPS)")
