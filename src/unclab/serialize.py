"""JSON document loading and canonical dumping.

Canonical emission: sorted keys, two-space indent, rationals as "p/q"
strings in lowest terms with explicit denominator, sets as sorted lists,
trailing newline. Byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from . import norms, ramsey, resolutions
from .errors import DomainError, InternalError, MissingInputError, SchemaError
from .rationals import format_rational, parse_rational
from .record import Record

# the short name of each projection class; an input document may give either
SHORT_CLASS = {"initial_segments": "initial", "intervals": "interval",
               "all_subsets": "all"}
_CLASS_ALIASES = {name: cls for cls, short in SHORT_CLASS.items()
                  for name in (cls, short)}


def to_jsonable(obj):
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [to_jsonable(x) for x in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, Record):
        return {name: to_jsonable(getattr(obj, name)) for name in obj._fields}
    if isinstance(obj, float):
        raise DomainError("refusing to serialize a float; use exact rationals")
    raise InternalError(f"cannot serialize a value of type {type(obj).__name__}")


def dump_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


def read_json_file(path) -> object:
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"input file not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise SchemaError(f"{p}: not valid JSON ({e.msg} at line {e.lineno})")


def _require(data: dict, key: str, where: str):
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object, got {type(data).__name__}")
    if key not in data:
        raise SchemaError(f"{where}: missing key {key!r}")
    return data[key]


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_int_list(value, where: str) -> list[int]:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list")
    return [_as_int(x, where) for x in value]


def load_rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError(f"{where}: rationals must be strings or integers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise SchemaError(f"{where}: expected a rational, got {value!r}")


def load_resolution(data, where: str = "resolution") -> resolutions.Resolution:
    k = _as_int(_require(data, "k", where), f"{where}.k")
    pattern = _as_int_list(_require(data, "pattern", where), f"{where}.pattern")
    alpha_raw = _require(data, "alpha", where)
    if not isinstance(alpha_raw, list):
        raise SchemaError(f"{where}.alpha: expected a list")
    alpha = [load_rational(x, f"{where}.alpha[{i}]") for i, x in enumerate(alpha_raw)]
    try:
        return resolutions.Resolution(k, tuple(pattern), tuple(alpha))
    except DomainError as e:
        raise SchemaError(f"{where}: {e}")


def load_resolution_list(data, where: str = "family") -> list[resolutions.Resolution]:
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{where}: expected a nonempty list")
    return [load_resolution(x, f"{where}[{i}]") for i, x in enumerate(data)]


def _load_entries(items: list, where: str) -> norms.SparseVector:
    """A list of {"i": coordinate, "v": rational} entries."""
    pairs = []
    for j, item in enumerate(items):
        spot = f"{where}[{j}]"
        pairs.append((_as_int(_require(item, "i", spot), f"{spot}.i"),
                      load_rational(_require(item, "v", spot), f"{spot}.v")))
    try:
        return norms.SparseVector.from_pairs(pairs)
    except DomainError as e:
        raise SchemaError(f"{where}: {e}")


def load_sparse_vector(data, where: str = "vector") -> norms.SparseVector:
    if isinstance(data, dict):
        data = _require(data, "entries", where)
    if not isinstance(data, list):
        raise SchemaError(f"{where}: expected a list of entries")
    return _load_entries(data, where)


def load_norm_instance(data, where: str = "instance") -> norms.NormInstance:
    dim = _as_int(_require(data, "dim", where), f"{where}.dim")
    raw_class = _require(data, "projection_class", where)
    if raw_class not in _CLASS_ALIASES:
        raise SchemaError(f"{where}.projection_class: unknown class {raw_class!r}")
    include_sup = _require(data, "include_sup", where)
    if not isinstance(include_sup, bool):
        raise SchemaError(f"{where}.include_sup: expected true or false")
    funcs_raw = _require(data, "functionals", where)
    if not isinstance(funcs_raw, list):
        raise SchemaError(f"{where}.functionals: expected a list")
    functionals = []
    for i, entries in enumerate(funcs_raw):
        spot = f"{where}.functionals[{i}]"
        if not isinstance(entries, list):
            raise SchemaError(f"{spot}: expected a list")
        functionals.append(_load_entries(entries, spot))
    try:
        return norms.NormInstance.build(
            dim=dim, functionals=tuple(functionals),
            projection_class=_CLASS_ALIASES[raw_class], include_sup=include_sup)
    except DomainError as e:
        raise SchemaError(f"{where}: {e}")


def load_prefix_map(data, where: str = "map") -> ramsey.PrefixContinuousMap:
    """One document per map: {"depth": d, "entries": [{"prefix": [...],
    "F": [[...], ...]}, ...]}. Per-entry shape (components inside the prefix
    and successive) is checked on construction."""
    depth = _as_int(_require(data, "depth", where), f"{where}.depth")
    entries_raw = _require(data, "entries", where)
    if not isinstance(entries_raw, list):
        raise SchemaError(f"{where}.entries: expected a list")
    table = {}
    for i, item in enumerate(entries_raw):
        spot = f"{where}.entries[{i}]"
        prefix = tuple(_as_int_list(_require(item, "prefix", spot), f"{spot}.prefix"))
        F_raw = _require(item, "F", spot)
        if not isinstance(F_raw, list) or not F_raw:
            raise SchemaError(f"{spot}.F: expected a nonempty list of sets")
        F = tuple(frozenset(_as_int_list(x, f"{spot}.F[{j}]"))
                  for j, x in enumerate(F_raw))
        if prefix in table:
            raise SchemaError(f"{spot}: duplicate prefix {prefix}")
        table[prefix] = F
    try:
        return ramsey.PrefixContinuousMap.from_dict(depth, table)
    except DomainError as e:
        raise SchemaError(f"{where}: {e}")
