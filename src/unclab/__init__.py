"""Exact-rational workbench for sequence-space combinatorics.

Importing the package runs none of its modules. Every module except `cli`
is registered through `importlib.util.LazyLoader`: it sits in `sys.modules`
and on the package from the start, and its code runs the first time one of
its attributes is read. The package-level names below resolve through a
PEP 562 `__getattr__`, so `unclab.compute_constant` runs `unclab.constants`
(and what that module imports) and nothing else.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the names imported from the package itself rather than from their modules
_EXPORTS = {
    "constants": ("ConstantQuery", "compute_constant"),
    "norms": ("Functional", "NormInstance"),
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
lp = _register_lazy("lp")
mrdemo = _register_lazy("mrdemo")
norms = _register_lazy("norms")
ramsey = _register_lazy("ramsey")
rationals = _register_lazy("rationals")
record = _register_lazy("record")
resolutions = _register_lazy("resolutions")
schreier = _register_lazy("schreier")
serialize = _register_lazy("serialize")


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)
