"""Golden report corpus: every verb's report pinned byte for byte.

Each case runs the CLI in-process through the `invoke_cli` fixture, with
the working directory at the repository root and fixture paths relative to
it, so the echoed `inputs` are the same on every checkout. Stdout, stderr
and the exit code must match exactly.

The files under `tests/golden/` hold the output of the same invocation as
`test_golden_report` below: `<name>.stdout` is `result.stdout_bytes` and
`<name>.stderr` is `result.stderr_bytes`, written unchanged. They were
recorded before the sparse-type and verb-wrapper refactors and are meant to
stay unchanged by refactors; a report that changes on purpose comes with
its new file in the same commit. The LP cases were recorded on the
in-repo simplex; the schreier case's value and cell count equal those of
the earlier sympy path, while its witness is the optimal vertex this
simplex reaches. The mode A and Lprime cases on a dim-3 intervals instance
pin the sign, support and A-feasibility rows of the LP cells, witness
vertex included. The Kstar case on a dim-2 point cloud and the C_uncond
case on a dim-3 all_subsets instance pin the point-row denominators and
the all_subsets pieces of the LP; with the restricted hereditary check
they run the CLI paths that `tests/test_reachability.py` needs entered.

Every report is JSON: a case that exits 0 prints one JSON document on
stdout and nothing on stderr, and an error case prints nothing on stdout
and its JSON error on stderr.

The in-process runs call `main(args)`. `main()` run as the program takes
its arguments from `sys.argv` and freezes the heap when the job ends, so
one case per verb and an error case also run as `python -m unclab` in a
fresh interpreter, against the same files.
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import (apply, brute_norm, brute_oscillation, child_env, class_sets,
                      first_projection, kstar_denominator, min_split, restrict,
                      verify_witness)
from unclab import cli
from unclab import serialize as ser
from unclab.constants import ConstantQuery
from unclab.errors import DomainError
from unclab.norms import SparseVector
from unclab.rationals import parse_rational

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INST = "tests/fixtures/norm_summing4.json"
INTERVALS3 = "tests/fixtures/norm_intervals3.json"
POINTCLOUD2 = "tests/fixtures/norm_pointcloud2.json"
SUBSETS3 = "tests/fixtures/norm_subsets3.json"

CASES = [
    ("bracket_dp", 0, ["bracket", "tests/fixtures/resolution_r.json",
                       "tests/fixtures/resolution_s.json"]),
    ("bracket_mutual", 0, ["bracket", "tests/fixtures/resolution_r.json",
                           "tests/fixtures/resolution_s.json", "--mutual"]),
    ("rademacher_json", 0, ["rademacher", "--k0", "2", "--m", "3", "--n", "1",
                            "--auto-ns"]),
    ("chain", 0, ["chain", "--patterns", "tests/fixtures/patterns.json",
                  "--k", "2"]),
    ("norm", 0, ["norm", "--instance", INST,
                 "--vector", "tests/fixtures/vector_a.json"]),
    ("constant_c_uncond", 0, ["constant", "--instance", INST,
                              "--mode", "C_uncond", "--step", "1/2"]),
    ("constant_bou", 0, ["constant", "--instance", INST, "--mode", "BOU",
                         "--D", "2", "--d", "1", "--step", "1/2"]),
    ("constant_schreier_lp", 0, ["constant", "--instance", INST,
                                 "--mode", "schreier", "--order", "1",
                                 "--method", "lp"]),
    ("constant_a_lp", 0, ["constant", "--instance", INTERVALS3, "--mode", "A",
                          "--delta", "1/2", "--method", "lp"]),
    ("constant_lprime_lp", 0, ["constant", "--instance", INTERVALS3,
                               "--mode", "Lprime", "--delta", "1/2",
                               "--method", "lp"]),
    ("constant_kstar_lp", 0, ["constant", "--instance", POINTCLOUD2,
                              "--mode", "Kstar", "--delta", "1/2", "--method", "lp"]),
    ("constant_c_uncond_lp", 0, ["constant", "--instance", SUBSETS3,
                                 "--mode", "C_uncond", "--method", "lp"]),
    ("elton", 0, ["elton", "--n1", "1", "--n2", "8", "--K", "4",
                  "--eps", "13/100"]),
    ("quasi_dp", 0, ["quasi", "--n1", "1", "--n2", "8", "--K", "4",
                     "--eps", "13/100", "--alpha", "1/2"]),
    ("mr_demo", 0, ["mr-demo", "--family", "tests/fixtures/mr_family.json",
                    "--k", "4", "--seed", "0"]),
    ("match_exhaustive", 0, ["match", "--maps", "tests/fixtures/map_family_a.json",
                             "--universe", "12", "--horizon", "4"]),
    ("hereditary_weakly", 0, ["hereditary", "--universe", "12",
                              "--mode", "weakly"]),
    ("hereditary_restrict", 0, ["hereditary", "--universe", "12",
                                "--restrict", "1,2,4,7,9,11"]),
    ("error_missing_file", 2, ["bracket", "tests/fixtures/no_such_file.json",
                               "tests/fixtures/resolution_s.json"]),
    ("error_k_without_delta", 1, ["constant", "--instance", INST,
                                  "--mode", "K"]),
]


@pytest.mark.parametrize("name,exit_code,args", CASES,
                         ids=[c[0] for c in CASES])
def test_golden_report(name, exit_code, args, monkeypatch, invoke_cli):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("UNCLAB_CAPS", raising=False)
    result = invoke_cli(args)
    assert result.exit_code == exit_code
    assert result.stdout_bytes == (GOLDEN / f"{name}.stdout").read_bytes()
    assert result.stderr_bytes == (GOLDEN / f"{name}.stderr").read_bytes()
    # the JSON contract: one document on the stream the exit code names
    report, silent = ((result.stdout, result.stderr) if exit_code == 0
                      else (result.stderr, result.stdout))
    assert isinstance(json.loads(report), dict) and silent == ""


# the first case of each verb, and an error case
PROCESS_CASES = [c for c in CASES if c[0] in {
    "bracket_dp", "rademacher_json", "chain", "norm", "constant_c_uncond", "elton",
    "quasi_dp", "mr_demo", "match_exhaustive", "hereditary_weakly", "error_k_without_delta"}]


def test_process_cases_cover_every_verb():
    assert {args[0] for _, _, args in PROCESS_CASES} == set(cli.main.commands)


@pytest.mark.parametrize("name,exit_code,args", PROCESS_CASES,
                         ids=[c[0] for c in PROCESS_CASES])
def test_golden_report_as_a_process(name, exit_code, args):
    proc = subprocess.run([sys.executable, "-m", "unclab", *args], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == exit_code
    assert proc.stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    assert proc.stderr == (GOLDEN / f"{name}.stderr").read_bytes()


# ------------------------------------------ goldens checked from definitions

RATIONAL = re.compile(r"-?\d+/\d+")


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise DomainError(f"report disagrees with its definition: {what}")


def check_constant_report(report: dict) -> None:
    """Re-derive a constant report's value and witness on its instance: the
    ratio by verify_witness, the denominator by brute_norm (the cloud sup
    for Kstar), a BOU split as the fewest blocks of oscillation <= d, and an
    LP piece as one linear piece of ||P_E .|| (for Kstar, the point row on
    E) that gives the numerator at a."""
    inputs, w = report["inputs"], report["witness"]
    inst = ser.load_norm_instance(ser.read_json_file(ROOT / inputs["instance"]))
    query = ConstantQuery(inputs["mode"], **{
        key: inputs[key] if key == "order" else parse_rational(inputs[key])
        for key in ("delta", "D", "d", "order") if key in inputs})
    a = SparseVector.from_pairs((i, parse_rational(v)) for i, v in w["a"]["entries"])
    E, index = tuple(w["E"]), w["point_index"]
    expect(index is None or 0 <= index < len(inst.functionals), "point index")
    threshold = None if w["threshold"] is None else parse_rational(w["threshold"])
    ratio = verify_witness(inst, query,
                           SimpleNamespace(a=a, E=E, threshold=threshold, point_index=index))
    value = parse_rational(report["value_lower"])
    expect(ratio == value, "value_lower")
    expect(report["value_upper"] in (None, report["value_lower"]), "value_upper")
    num, den = parse_rational(w["numerator"]), parse_rational(w["denominator"])
    expect(den == (kstar_denominator(inst, a) if query.mode == "Kstar" else brute_norm(inst, a)),
           "denominator")
    expect(num == ratio * den, "numerator")
    if w["decomposition"] is not None:
        blocks = tuple(map(tuple, w["decomposition"]["blocks"]))
        expect(blocks == min_split(E, lambda b: brute_oscillation(a, b) <= query.d),
               "decomposition")
    if w["piece"] is not None:
        piece = SparseVector.from_pairs((i, parse_rational(c)) for i, c in w["piece"])
        if query.mode == "Kstar":
            pieces = [restrict(inst.functionals[index], E)]
        else:
            pieces = [restrict(f, set(S) & set(E)) for f in inst.functionals
                      for S in class_sets(inst)]
            if inst.include_sup:
                pieces += [SparseVector(((i, x),)) for i in E for x in (1, -1)]
        expect(piece in pieces, "piece")
        expect(apply(piece, a.as_dict()) == num, "piece at a")


def check_norm_report(report: dict) -> None:
    """Re-derive a norm report's value by brute_norm and its certificate by
    the rule dual_certificate documents: the first functional attaining the
    value on a set of the projection class, with the first such set (for
    all_subsets the functional's positive-part set), else the first
    coordinate of that size."""
    inputs = report["inputs"]
    inst = ser.load_norm_instance(ser.read_json_file(ROOT / inputs["instance"]))
    v = ser.load_sparse_vector(ser.read_json_file(ROOT / inputs["vector"]))
    value, av, sets = parse_rational(report["value"]), v.as_dict(), class_sets(inst)
    expect(value == brute_norm(inst, v), "value")
    attaining = [k for k, f in enumerate(inst.functionals)
                 if any(apply(f, restrict(v, S).as_dict()) == value for S in sets)]
    want = {"value": report["value"], "kind": "zero", "functional_index": None,
            "projection": None, "coordinate": None}
    if attaining and v.entries:
        f = inst.functionals[attaining[0]]
        if inst.projection_class == "all_subsets":
            E = [i for i, c in f.entries if c * av.get(i, 0) > 0]
        else:
            E = list(first_projection(inst, f, v, value))
        want.update(kind="functional", functional_index=attaining[0], projection=E)
    elif v.entries:
        want.update(kind="sup", coordinate=next(i for i, x in v.entries if abs(x) == value))
    expect(report["certificate"] == want, "certificate")


def unit_changes(doc: dict, keys: tuple[str, ...]):
    """Every copy of doc with one leaf under `keys` changed by one unit: an
    int raised by one, a "p/q" rational to "(p+1)/q". Yields (path, copy)."""
    def leaves(node, path):
        if isinstance(node, (dict, list)):
            for key, child in node.items() if isinstance(node, dict) else enumerate(node):
                yield from leaves(child, path + (key,))
        elif isinstance(node, str) and RATIONAL.fullmatch(node):
            p, q = node.split("/")
            yield path, f"{int(p) + 1}/{q}"
        elif isinstance(node, int) and not isinstance(node, bool):
            yield path, node + 1

    for key in keys:
        for path, new in leaves(doc[key], (key,)):
            changed = copy.deepcopy(doc)
            spot = changed
            for step in path[:-1]:
                spot = spot[step]
            spot[path[-1]] = new
            yield path, changed


# each checked golden: its check, and the report keys whose leaves are changed
DEFINITION_CHECKS = {
    name: (check_norm_report, ("value", "certificate")) if args[0] == "norm"
    else (check_constant_report, ("value_lower", "value_upper", "witness"))
    for name, code, args in CASES if args[0] in ("constant", "norm") and code == 0}


@pytest.mark.parametrize("name", sorted(DEFINITION_CHECKS))
def test_golden_report_checks_against_its_definitions(name):
    check, keys = DEFINITION_CHECKS[name]
    report = json.loads((GOLDEN / f"{name}.stdout").read_text())
    check(report)
    changes = list(unit_changes(report, keys))
    assert len(changes) >= 4
    for path, changed in changes:
        with pytest.raises(DomainError):
            check(changed)
            pytest.fail(f"a one-unit change at {path} passes the check")
