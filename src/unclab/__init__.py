"""Exact-rational workbench for sequence-space combinatorics.

Importing the package runs none of its modules. Every module except `cli`
is registered through `importlib.util.LazyLoader`: it sits in `sys.modules`
and on the package from the start, and its code runs the first time one of
its attributes is read. The package-level names below resolve through a
PEP 562 `__getattr__`, so `unclab.bracket` runs `unclab.resolutions` (and
what that module imports) and nothing else.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "caps": ("Caps", "load_caps"),
    "constants": ("ConstantQuery", "ConstantReport", "ConstantWitness",
                  "compute_constant", "verify_witness"),
    "elton": ("EltonLayout", "EltonParams", "LayoutVector", "StructuredFunctional",
              "VectorTriple", "brute_miniature", "build_layout", "build_vectors",
              "case_bounds", "elton_ladder", "k_lower_certificate",
              "quasi_case_bounds", "quasi_certificate", "structured_dp",
              "validate_params"),
    "errors": ("DomainError", "InternalError", "MissingInputError",
               "RationalFormatError", "SchemaError", "SizeError", "UnclabError"),
    "mrdemo": ("coded_norm_instance", "mr_demo", "special_sequence"),
    "norms": ("Certificate", "Functional", "NormInstance", "SparseVector",
              "build_standard", "dual_certificate", "eval_norm"),
    "ramsey": ("ColourFamily", "MatchingWitness", "PrefixContinuousMap",
               "is_initial_segment", "make_pattern", "remark_family",
               "restrict_pattern", "search_matching", "validate_matching",
               "validate_matching_data", "weakly_hereditary"),
    "rationals": ("format_rational", "parse_rational"),
    "resolutions": ("Resolution", "bracket", "build_rademacher",
                    "choose_multiplicities", "explore_orthogonal_family",
                    "longest_chain", "mutual_bracket", "pattern_embeds",
                    "rademacher_bound", "repeat_resolution", "ris_condition"),
    "schreier": ("LevelSplit", "SchreierDecomposition", "interval_ladder",
                 "level_split", "oscillation", "schreier_decompose",
                 "schreier_member"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def _register_lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


caps = _register_lazy("caps")
constants = _register_lazy("constants")
elton = _register_lazy("elton")
errors = _register_lazy("errors")
mrdemo = _register_lazy("mrdemo")
norms = _register_lazy("norms")
ramsey = _register_lazy("ramsey")
rationals = _register_lazy("rationals")
resolutions = _register_lazy("resolutions")
schreier = _register_lazy("schreier")
serialize = _register_lazy("serialize")


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *_HOME})
