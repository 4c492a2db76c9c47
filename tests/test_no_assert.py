"""Static scans: library code keeps no check in an `assert`, which
`python -O` strips, no module keeps an import it does not use, and every
public function of the library has a caller outside the tests."""

import ast
from collections import defaultdict
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


# Public library names that nothing in src/unclab, scripts/ or perfbench/
# calls, each with the reason it stays. The scan matches names, not targets,
# so an entry may also be matched by an unrelated reference of the same name.
NO_CALLER = {
    "verify_witness": "oracle: re-checks a reported constant's witness (criterion 6)",
    "brute_miniature": "oracle: exhaustive family maximum that structured_dp is "
                       "checked against (criterion 5)",
    "level_split": "paper object: dyadic blocks of a delta-threshold set (criterion 7)",
    "LevelSplit": "paper object: level_split's result (criterion 7)",
    "interval_ladder": "paper object: dyadic intervals covering [delta, 1] (criterion 7)",
    "SchreierDecomposition.count": "paper object: the block count (criterion 7); "
                                   "perfbench's own `.count` also matches it",
    "make_pattern": "paper object: a colour pattern from (element, colour) pairs "
                    "(criterion 8)",
    "validate_matching_data": "paper object: the matching conditions on raw sets "
                              "(criterion 8)",
    "Resolution.weight_of_colour": "paper object: a colour's weight, read by the "
                                   "bracket laws (criterion 2)",
    "build_standard": "paper object: the l1, linf, summing and pointcloud norms "
                      "(criterion 6)",
}


def _public_definitions(tree: ast.Module):
    """(name, node) for each public top-level function and class, and
    (Class.method, node) for each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{sub.name}", sub) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_"))


def _registered_verb(node) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "verb"
               for d in node.decorator_list)


def test_every_public_function_has_a_caller():
    library = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    callers = (library + sorted((TESTS.parent / "scripts").glob("*.py"))
               + sorted((TESTS.parent / "perfbench").glob("*.py")))
    refs = defaultdict(list)   # referenced name -> [(path, line)]
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                refs[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append((path, node.lineno))
    defined, uncalled = set(), []
    for path in library:
        for name, node in _public_definitions(ast.parse(path.read_text(), str(path))):
            defined.add(name)
            # a reference inside the definition itself (a recursive call) is no caller
            if name not in NO_CALLER and not _registered_verb(node) and all(
                    where == path and node.lineno <= line <= node.end_lineno
                    for where, line in refs[name.rpartition(".")[2]]):
                uncalled.append(f"{path.name}:{node.lineno} {name}")
    assert uncalled == []
    assert sorted(set(NO_CALLER) - defined) == []
