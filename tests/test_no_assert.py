"""Static scans: library code keeps no check in an `assert`, which
`python -O` strips, no module keeps an import it does not use, and every
size cap bounds something."""

import ast
from pathlib import Path

import pytest

import unclab
from unclab.caps import Caps, load_caps
from unclab.errors import DomainError

SRC = Path(unclab.__file__).parent
TESTS = Path(__file__).resolve().parent


def test_no_assert_statements_in_library_code():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.parent.name}/{path.name}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda t: t[1])
            if name not in used]


def test_no_unused_imports():
    # __init__.py imports are the package's re-exports
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((TESTS.parent / "scripts").glob("*.py"))
    paths += sorted(TESTS.glob("*.py"))
    found = [entry for p in paths for entry in _unused_imports(p)]
    assert found == []


def _cap_uses() -> tuple[set[str], set[str]]:
    """The names library code passes to `check_cap`, called by name or as
    `caps.check_cap` (a non-literal name as its source text), and the
    fields it reads as `load_caps().<field>`."""
    checked, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and "check_cap" in (getattr(node.func, "id", None),
                                                               getattr(node.func, "attr", None))):
                name = node.args[0]
                checked.add(name.value if isinstance(name, ast.Constant)
                            else ast.unparse(name))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call)
                  and getattr(node.value.func, "id", None) == "load_caps"):
                read.add(node.attr)
    return checked, read


def test_every_cap_is_checked_or_read(monkeypatch):
    assert Caps._fields == ("grid_pairs", "lp_cells", "layout_pieces", "match_pairs",
                            "hereditary_checks", "bracket_cells")
    checked, read = _cap_uses()
    # a name that is no field would end the job in an AttributeError traceback
    assert sorted(checked - set(Caps._fields)) == []
    # a field nothing checks or reads bounds no work
    assert sorted(set(Caps._fields) - checked - read) == []
    # caps that were removed are unknown names, refused like any other
    for name in ("grid_dim", "grid_points", "all_subsets_dim", "brute_universe",
                 "orthogonal_budget", "brute_bracket", "match_universe", "layout_universe",
                 "rademacher_cells", "remark_universe", "lp_dim"):
        monkeypatch.setenv("UNCLAB_CAPS", f"{name}=1")
        with pytest.raises(DomainError, match="unknown cap"):
            load_caps()
