"""Static scans: library code keeps no check in an `assert`, which
`python -O` strips, and no module keeps an import it does not use."""

import ast
from pathlib import Path

import unclab

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
