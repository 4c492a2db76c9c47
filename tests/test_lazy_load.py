"""Which unclab modules a CLI job executes, and that lazy loading keeps the API.

Every case runs in a fresh interpreter started the way perfbench/run.py
starts a job: `python -c "from unclab.cli import main; main()" VERB ...`
from the repository root with `src` on PYTHONPATH. An audit hook placed in
front of that line records each module body that `exec` runs. When the
interpreter exits, the last line of stderr lists the unclab ones; the
top-level packages the job imported that are neither unclab nor in the
standard library; which of `dataclasses` and `inspect` it imported; and
`gc.get_freeze_count()`, the objects in the permanent generation.
unclab has no runtime dependency, and its records do without
`dataclasses` (which imports `inspect`, `ast`, `dis` and `tokenize`), so
every job's two lists of imports must be empty. `main()` run as the
program freezes the heap before the interpreter exits, so the count is
positive after every job, whatever its exit code.
"""

import gc
import json
import subprocess
import sys
from pathlib import Path

import unclab
from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("serialize", "rationals", "resolutions", "norms", "constants", "lp",
          "schreier", "elton", "mrdemo", "ramsey", "record")

RECORD = """\
import atexit, gc, json, os, sys
_start = set(sys.modules)
_ran = []
def _hook(event, args):
    if event == "exec" and getattr(args[0], "co_name", None) == "<module>":
        path = args[0].co_filename
        if os.path.basename(os.path.dirname(path)) == "unclab":
            stem = os.path.splitext(os.path.basename(path))[0]
            _ran.append("unclab" if stem == "__init__" else "unclab." + stem)
def _report():
    foreign = ({name.partition(".")[0] for name in set(sys.modules) - _start}
               - {"unclab", *sys.stdlib_module_names})
    heavy = {"dataclasses", "inspect"} & set(sys.modules)
    sys.stderr.write("\\n" + json.dumps([sorted(_ran), sorted(foreign), sorted(heavy),
                                        gc.get_freeze_count()]) + "\\n")
sys.addaudithook(_hook)
atexit.register(_report)
"""
JOB = "from unclab.cli import main; main()"

# every package-level name of unclab, by the module it comes from: the ones
# perfbench's LP_FIRST_CALL job imports from the package
EXPORTS = {
    "constants": "ConstantQuery compute_constant",
    "norms": "Functional NormInstance",
}


def python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)


def job_report(*argv: str, returncode: int = 0) -> tuple[set[str], int]:
    """The unclab modules a job executes and its freeze count at exit."""
    proc = python(RECORD + JOB, *argv)
    assert proc.returncode == returncode, proc.stderr
    ran, foreign, heavy, frozen = json.loads(proc.stderr.splitlines()[-1])
    assert foreign == [] and heavy == []
    return set(ran), frozen


def executed(*argv: str) -> set[str]:
    return job_report(*argv)[0]


def mods(*names: str) -> set[str]:
    return {"unclab", "unclab.cli", *(f"unclab.{n}" for n in names)}


RESOLUTION_JOB = mods("serialize", "resolutions", "rationals", "caps", "errors", "record")
# a constant job's modules before its method and mode add theirs
CONSTANT_JOB = ("serialize", "constants", "norms", "rationals", "caps", "errors", "record")


def test_help_executes_no_layer():
    assert executed("--help") == mods()


def test_bracket_executes_only_its_layers():
    # none of constants, elton, mrdemo, norms, ramsey or schreier
    assert executed("bracket", "tests/fixtures/resolution_r.json",
                    "tests/fixtures/resolution_s.json", "--mutual") == RESOLUTION_JOB


def test_chain_executes_only_its_layers():
    assert executed("chain", "--patterns", "tests/fixtures/patterns.json",
                    "--k", "2") == RESOLUTION_JOB


def test_constant_executes_only_its_layers():
    # a grid job in a mode other than BOU or schreier runs neither lp nor schreier
    assert executed("constant", "--instance", "tests/fixtures/norm_summing4.json",
                    "--mode", "C_uncond", "--step", "1/2") == mods(*CONSTANT_JOB)


def test_norm_executes_only_its_layers():
    # norms checks no cap, so a norm job does not run caps
    assert executed("norm", "--instance", "tests/fixtures/norm_summing4.json",
                    "--vector", "tests/fixtures/vector_a.json") == mods(
        "serialize", "norms", "rationals", "errors", "record")


def test_bou_constant_executes_schreier():
    assert executed("constant", "--instance", "tests/fixtures/norm_summing4.json",
                    "--mode", "BOU", "--D", "2", "--d", "1", "--step", "1/2") == mods(
        *CONSTANT_JOB, "schreier")


def test_lp_constant_executes_lp():
    assert executed("constant", "--instance", "tests/fixtures/norm_pointcloud2.json",
                    "--mode", "Kstar", "--delta", "1/2", "--method", "lp") == mods(
        *CONSTANT_JOB, "lp")


def test_match_executes_only_its_layers():
    assert executed("match", "--maps", "tests/fixtures/map_family_a.json",
                    "--universe", "12", "--horizon", "4") == mods(
        "serialize", "ramsey", "rationals", "caps", "errors", "record")


def test_import_cli_registers_every_layer_and_runs_none():
    proc = python(RECORD + "import sys, unclab.cli\n"
                  "print(json.dumps(sorted(n for n in sys.modules if n.startswith('unclab'))))")
    assert proc.returncode == 0, proc.stderr
    registered = set(json.loads(proc.stdout))
    assert {f"unclab.{layer}" for layer in LAYERS} <= registered
    # importing the CLI freezes nothing: only a run of main() as the program does
    assert json.loads(proc.stderr.splitlines()[-1]) == [sorted(mods()), [], [], 0]


def test_process_entry_freezes_the_heap_on_every_exit():
    # a verb job, --help, a domain error (exit 1) and a usage error (exit 2)
    for argv, returncode in (
            (["chain", "--patterns", "tests/fixtures/patterns.json", "--k", "2"], 0),
            (["--help"], 0),
            (["constant", "--instance", "tests/fixtures/norm_summing4.json",
              "--mode", "K"], 1),
            (["nosuch"], 2)):
        assert job_report(*argv, returncode=returncode)[1] > 0, argv


def test_in_process_main_freezes_nothing(invoke_cli):
    before = gc.get_freeze_count()
    patterns = str(ROOT / "tests" / "fixtures" / "patterns.json")
    assert invoke_cli(["chain", "--patterns", patterns, "--k", "2"]).exit_code == 0
    assert invoke_cli(["--help"]).exit_code == 0
    assert invoke_cli(["nosuch"]).exit_code == 2
    assert gc.get_freeze_count() == before


def test_old_package_exports_resolve():
    assert {home: tuple(names.split()) for home, names in EXPORTS.items()} == unclab._EXPORTS
    code = ("import importlib, json, unclab\n"
            "from unclab import ConstantQuery, Functional, NormInstance, compute_constant\n"
            f"exports = {EXPORTS!r}\n"
            "bad = [name for home, names in exports.items() for name in names.split()\n"
            "       if getattr(unclab, name) is not\n"
            "       getattr(importlib.import_module('unclab.' + home), name)]\n"
            "print(json.dumps([bad, Functional is unclab.norms.SparseVector,\n"
            "                  hasattr(unclab, 'SparseVector'),\n"
            "                  hasattr(unclab, 'no_such_name')]))")
    proc = python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], True, False, False]
