"""Library code keeps no check in an `assert`, which `python -O` strips."""

import ast
from pathlib import Path

import unclab

SRC = Path(unclab.__file__).parent


def test_no_assert_statements_in_library_code():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
