"""Every def in the library runs from an entry point.

One fresh interpreter runs the golden report corpus (`test_golden.CASES`)
through `unclab.cli.main` and the two report scripts with the small
arguments `test_scripts.RUNS` gives them. A call-only `sys.settrace` hook is
installed before `import unclab.cli`, so the functions that run at import
time (the lazy-module registration, the verb decorators) count as entered.
The hook records the code object of every frame that starts; a def is
entered when its code object is among them, matched exactly by file, first
line and name, so a method never passes on a call to another of the same
name.

A def that no entry point reaches is either deleted, moved into the tests,
or stands on `UNREACHED` with its reason. An entry covers the defs nested
inside it.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import unclab

from conftest import child_env
from test_golden import CASES
from test_scripts import RUNS

ROOT = Path(__file__).resolve().parent.parent
PKG = Path(unclab.__file__).resolve().parent
REPORT_SCRIPTS = ("elton_ladder.py", "orthogonal_family_search.py")

# defs no golden case or report script enters, by module-qualified name,
# each with the reason it stays
UNREACHED = {
    "__init__.__getattr__": "package-level names; perfbench's LP_FIRST_CALL job "
                            "imports four of them from `unclab`",
    "record.Record.__eq__": "value equality of records: the tests compare reports, "
                            "witnesses and inputs; no entry point compares two",
    "record.Record.__hash__": "records hash by their fields, as they compare; "
                              "no entry point hashes one",
    "record.Record.__setattr__": "records are frozen; no entry point assigns to one",
    "record.Record.__repr__": "the tests' assertion diffs and debugging print "
                              "records; no entry point prints one",
}

RUN = """\
import contextlib, io, json, os, runpy, sys
pkg, plan = sys.argv[1], json.loads(sys.stdin.read())
codes = set()
def _call(frame, event, arg, add=codes.add):
    add(frame.f_code)
sys.settrace(_call)
import unclab.cli
failed = []
for args, exit_code in plan["cases"]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            unclab.cli.main(args, prog_name="unclab")
            code = 0
        except SystemExit as e:
            code = e.code or 0
    if code != exit_code:
        failed.append([args, code])
for argv in plan["scripts"]:
    sys.argv = argv
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(argv[0], run_name="__main__")
sys.settrace(None)
entered = sorted({(os.path.relpath(c.co_filename, pkg), c.co_firstlineno, c.co_name)
                  for c in codes if c.co_filename.startswith(pkg + os.sep)})
print(json.dumps({"failed": failed, "entered": entered}))
"""


def _defs(tree: ast.Module, module: str):
    """(qualified name, first line, name, enclosing qualified names) for
    every def; the first line is the first decorator's, as in co_firstlineno."""
    def walk(node, prefix, outer):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{sub.name}"
                if not isinstance(sub, ast.ClassDef):
                    first = min([sub.lineno] + [d.lineno for d in sub.decorator_list])
                    yield name, first, sub.name, outer
                yield from walk(sub, name, outer + (name,))
            else:
                yield from walk(sub, prefix, outer)
    return walk(tree, module, ())


def _entered() -> set[tuple[str, int, str]]:
    plan = {"cases": [[args, code] for _, code, args in CASES],
            "scripts": [[str(ROOT / "scripts" / name), *args]
                        for name, *args in RUNS if name in REPORT_SCRIPTS]}
    assert len(plan["scripts"]) == len(REPORT_SCRIPTS)
    proc = subprocess.run([sys.executable, "-c", RUN, str(PKG)], input=json.dumps(plan),
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["failed"] == []
    return {tuple(e) for e in result["entered"]}


def test_every_library_def_is_entered():
    entered = _entered()
    defined, found = set(), []
    for path in sorted(PKG.glob("*.py")):
        for name, line, short, outer in _defs(ast.parse(path.read_text(), str(path)),
                                              path.stem):
            defined.add(name)
            if (path.name, line, short) not in entered:
                if not any(n in UNREACHED for n in (name, *outer)):
                    found.append(f"{path.name}:{line} {name} is never entered")
            elif name in UNREACHED:
                found.append(f"{name} is entered but stands on UNREACHED")
    assert found == []
    assert sorted(set(UNREACHED) - defined) == []
