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

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from unclab import cli

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
