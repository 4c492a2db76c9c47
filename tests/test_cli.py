"""End-to-end CLI contract: verbs, JSON reports, exit codes, byte stability."""

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import unclab
from conftest import brute_bracket, child_env
from unclab import cli
from unclab import serialize as ser

FIX = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIX, name)


def run(*args, env_extra=None, check=None):
    proc = subprocess.run([sys.executable, "-m", "unclab", *args], capture_output=True,
                          text=True, env={**child_env(), **(env_extra or {})}, timeout=120)
    if check is not None:
        assert proc.returncode == check, (proc.returncode, proc.stderr)
    return proc


def out_json(proc):
    return json.loads(proc.stdout)


def err_json(proc):
    return json.loads(proc.stderr)


def test_bracket_dp_and_brute():
    rep = out_json(run("bracket", fx("resolution_r.json"), fx("resolution_s.json"), check=0))
    assert rep["verb"] == "bracket"
    assert rep["value"] == "5/4"
    assert rep["witness"] == [[1, 1], [2, 2]]
    assert rep["method"] == "dp"
    # the DP's report against the exhaustive oracle of the tests
    r, s = (ser.load_resolution(ser.read_json_file(fx(name)), side)
            for name, side in (("resolution_r.json", "left"), ("resolution_s.json", "right")))
    value, witness = brute_bracket(r, s)
    assert (F(rep["value"]), rep["witness"]) == (value, [list(p) for p in witness])
    assert rep["inputs"]["left"].endswith("resolution_r.json")
    assert "version" in rep
    assert "wall_ms" not in rep


def test_removed_options_are_usage_errors(invoke_cli):
    # each verb has one method and one JSON report, and no option with one value in use
    for args, option in ((["bracket", fx("resolution_r.json"), fx("resolution_s.json"),
                           "--method", "dp"], "--method"),
                         (["rademacher", "--k0", "2", "--m", "3", "--n", "1", "--auto-ns",
                           "--table"], "--table"),
                         *((["match", "--maps", fx("map_family_b.json"), "--universe", "12",
                             option, value], option)
                           for option, value in (("--strategy", "random"), ("--seed", "5"),
                                                 ("--budget", "10"))),
                         (["hereditary", "--universe", "12", "--samples", "2", "--seed", "7",
                           "--min-size", "3"], "--min-size")):
        result = invoke_cli(args)
        assert result.exit_code == 2 and result.stdout == ""
        assert f"unrecognized arguments: {option}" in result.stderr


def test_bracket_byte_stability_and_timing():
    a = run("bracket", fx("resolution_r.json"), fx("resolution_s.json"), check=0)
    b = run("bracket", fx("resolution_r.json"), fx("resolution_s.json"), check=0)
    assert a.stdout == b.stdout  # byte-identical reports
    timed = run("bracket", fx("resolution_r.json"), fx("resolution_s.json"),
                "--timing", check=0)
    assert "wall_ms" in out_json(timed)


def test_bracket_mutual():
    rep = out_json(run("bracket", fx("resolution_r.json"), fx("resolution_s.json"),
                       "--mutual", check=0))
    assert rep["value"] == "5/4"
    assert rep["left_right"] == "5/4" and rep["right_left"] == "5/4"
    assert rep["witness_direction"] == "left_right"


def test_exit_code_3_malformed_rational(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 2, "pattern": [1], "alpha": ["1/0"]}')
    proc = run("bracket", str(bad), fx("resolution_s.json"), check=3)
    err = err_json(proc)
    assert err["kind"] == "RationalFormatError"
    # an option value that starts with "-" is still the option's value
    proc = run("constant", "--instance", fx("norm_summing4.json"),
               "--mode", "C_uncond", "--step", "-abc", check=3)
    assert err_json(proc) == {"error": "malformed rational '-abc'",
                              "kind": "RationalFormatError"}


def test_exit_code_2_missing_inputs():
    proc = run("bracket", "/nonexistent/r.json", fx("resolution_s.json"), check=2)
    assert err_json(proc)["kind"] == "MissingInputError"
    # the argument parser's own usage failures share exit code 2
    proc = run("norm", "--instance", fx("norm_summing4.json"), check=2)
    assert "Usage" in proc.stderr or "usage" in proc.stderr
    proc = run("bracket", fx("resolution_r.json"), fx("resolution_s.json"),
               "--no-such-flag", check=2)
    assert "no-such-flag" in proc.stderr
    # options are not abbreviated: --mut is not --mutual
    proc = run("bracket", fx("resolution_r.json"), fx("resolution_s.json"),
               "--mut", check=2)
    assert "--mut" in proc.stderr


def test_help_lists_every_verb():
    verbs = {"bracket", "rademacher", "chain", "norm", "constant", "elton",
             "quasi", "mr-demo", "match", "hereditary"}
    assert set(cli.main.commands) == verbs
    assert verbs <= set(run("--help", check=0).stdout.split())
    # option metavars are argparse's defaults, not renamed destinations
    usage = run("constant", "--help", check=0).stdout
    assert "--delta DELTA" in usage and "_TEXT" not in usage and "_PATH" not in usage


HELP = """\
usage: unclab [-h] VERB ...

Exact-rational workbench for sequence-space combinatorics.

positional arguments:
  VERB
    bracket   Weighted matching value of two resolutions.
    rademacher
              Pairwise interaction table for a Rademacher-class family.
    chain     Longest embedding chain among colour patterns.
    norm      Evaluate an instance norm on a vector, with the attaining
              functional.
    constant  Extremal constant of an instance norm in the given mode.
    elton     Certified norm-ratio lower bound for a two-scale layout.
    quasi     Quasi-variant certificate with the threshold-projection
              diagnosis.
    mr-demo   Exploratory alternating-sum demo over a placed special sequence.
    match     Search a universe for a matched pair under a prefix-determined
              map.
    hereditary
              Hereditariness of colour-pattern family restrictions.

options:
  -h, --help  show this help message and exit
"""
CONSTANT_HELP = """\
usage: unclab constant [-h] --instance INSTANCE --mode MODE [--delta DELTA]
                       [--D D] [--d D] [--order ORDER] [--method {grid,lp}]
                       [--step STEP] [--timing]

Extremal constant of an instance norm in the given mode.

options:
  -h, --help           show this help message and exit
  --instance INSTANCE
  --mode MODE
  --delta DELTA
  --D D
  --d D
  --order ORDER
  --method {grid,lp}
  --step STEP
  --timing             add the wall-clock time
"""
BRACKET_HELP = """\
usage: unclab bracket [-h] [--mutual] [--timing] LEFT RIGHT

Weighted matching value of two resolutions.

positional arguments:
  LEFT
  RIGHT

options:
  -h, --help  show this help message and exit
  --mutual    symmetrized value
  --timing    add the wall-clock time
"""
UNKNOWN_VERB = """\
usage: unclab [-h] VERB ...
unclab: error: argument VERB: invalid choice: 'nosuch' (choose from 'bracket', \
'rademacher', 'chain', 'norm', 'constant', 'elton', 'quasi', 'mr-demo', 'match', \
'hereditary')
"""


def test_usage_text_is_pinned(monkeypatch, invoke_cli):
    # main builds only the running verb's arguments; the verb listing, a
    # verb's own help and the unknown-verb error keep their text (argparse
    # layout at 80 columns, Python 3.11)
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke_cli(["--help"]) == (0, HELP.encode(), b"")
    assert invoke_cli(["constant", "--help"]) == (0, CONSTANT_HELP.encode(), b"")
    assert invoke_cli(["bracket", "--help"]) == (0, BRACKET_HELP.encode(), b"")
    assert invoke_cli(["nosuch"]) == (2, b"", UNKNOWN_VERB.encode())


def test_only_the_running_verb_gets_a_sub_parser(monkeypatch, invoke_cli):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert invoke_cli(["bracket", "--help"]).exit_code == 0
    assert added == ["bracket"]
    # without a verb in argv[0] every verb is listed
    for argv in (["--help"], ["nosuch"], [], ["-h", "bracket"]):
        added.clear()
        invoke_cli(argv)
        assert added == list(cli.main.commands), argv


def test_exit_code_5_internal_error(monkeypatch, invoke_cli):
    def broken(*args, **kwargs):
        raise unclab.errors.InternalError("dp table inconsistent")

    monkeypatch.setattr(unclab.resolutions, "bracket", broken)
    result = invoke_cli(["bracket", fx("resolution_r.json"), fx("resolution_s.json")])
    assert result.exit_code == 5
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"error": "dp table inconsistent",
                                         "kind": "InternalError"}
    # a report value with no canonical JSON form is refused, not written as str()
    monkeypatch.setattr(unclab.resolutions, "bracket", lambda *args: (object(), ()))
    result = invoke_cli(["bracket", fx("resolution_r.json"), fx("resolution_s.json")])
    assert result.exit_code == 5
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"error": "cannot serialize a value of type object",
                                         "kind": "InternalError"}
    # any other exception is an internal error too, named by its type
    monkeypatch.setattr(unclab.resolutions, "bracket", lambda *args: 1 // 0)
    result = invoke_cli(["bracket", fx("resolution_r.json"), fx("resolution_s.json")])
    assert result.exit_code == 5
    assert result.stdout == ""
    assert json.loads(result.stderr) == {
        "error": "ZeroDivisionError: integer division or modulo by zero",
        "kind": "InternalError"}


def test_exit_code_4_schema(tmp_path):
    inst = tmp_path / "inst.json"
    # functional touches coordinate 9 on a dim-4 instance
    inst.write_text(json.dumps({
        "dim": 4, "projection_class": "initial",
        "include_sup": True,
        "functionals": [[{"i": 9, "v": "1"}]]}))
    proc = run("norm", "--instance", str(inst), "--vector", fx("vector_a.json"),
               check=4)
    assert err_json(proc)["kind"] == "SchemaError"
    missing = tmp_path / "missing_key.json"
    missing.write_text('{"pattern": [1]}')
    proc = run("bracket", str(missing), fx("resolution_s.json"), check=4)
    assert err_json(proc)["kind"] == "SchemaError"
    # a vector is {"entries": [...]}; the bare list of entries is refused
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(ser.read_json_file(fx("vector_a.json"))["entries"]))
    proc = run("norm", "--instance", fx("norm_summing4.json"), "--vector", str(bare),
               check=4)
    assert err_json(proc) == {"error": "vector: expected an object, got list",
                              "kind": "SchemaError"}
    # a rational inside a document is a string: a JSON integer is refused
    ints = tmp_path / "ints.json"
    ints.write_text(json.dumps({"entries": [{"i": 1, "v": 1}]}))
    proc = run("norm", "--instance", fx("norm_summing4.json"), "--vector", str(ints),
               check=4)
    assert err_json(proc) == {"error": "vector[0].v: expected a rational string, got 1",
                              "kind": "SchemaError"}


def test_exit_code_1_domain_and_caps():
    proc = run("rademacher", "--k0", "2", "--m", "0", "--n", "1", "--auto-ns",
               check=1)
    assert err_json(proc)["kind"] == "DomainError"
    # option values that start with "-" reach the domain checks
    for args in (["constant", "--instance", fx("norm_summing4.json"), "--mode", "K",
                  "--delta", "-1/2"],
                 ["constant", "--instance", fx("norm_summing4.json"), "--mode", "BOU",
                  "--D", "-1/2", "--d", "1"],
                 ["elton", "--n1", "1", "--n2", "8", "--K", "4", "--eps", "-1/2"]):
        assert err_json(run(*args, check=1))["kind"] == "DomainError"
    # a negative universe is a domain error, not a failed shift
    proc = run("match", "--maps", fx("map_family_a.json"), "--universe", "-3", check=1)
    assert err_json(proc)["kind"] == "DomainError"
    # universe 12 at depth 2: 2^12 * C(12, 2) = 270 336 (L, block) pairs
    proc = run("match", "--maps", fx("map_family_a.json"), "--universe", "12",
               env_extra={"UNCLAB_CAPS": "match_pairs=270335"}, check=1)
    assert err_json(proc)["kind"] == "SizeError"
    assert "UNCLAB_CAPS" in err_json(proc)["error"]
    # a layout of 2 + 2^8000 value runs is refused before its run list is built
    proc = run("elton", "--n1", "1", "--n2", "8", "--K", "8000", "--eps", "13/100", check=1)
    assert err_json(proc) == {
        "error": "layout_pieces: layout value runs >= 2^8000 exceeds cap 1000000 "
                 "(override with UNCLAB_CAPS)",
        "kind": "SizeError"}
    for caps in ("bogus=3", "match_universe=16", "layout_universe=40000"):
        proc = run("match", "--maps", fx("map_family_a.json"), "--universe", "12",
                   env_extra={"UNCLAB_CAPS": caps}, check=1)
        assert err_json(proc)["kind"] == "DomainError"
        assert "unknown cap" in err_json(proc)["error"]
    # a raised cap unlocks the same failing call
    proc = run("match", "--maps", fx("map_family_a.json"), "--universe", "12",
               env_extra={"UNCLAB_CAPS": "match_pairs=270336"}, check=0)
    assert out_json(proc)["found"] is True


def test_elton_verb():
    rep = out_json(run("elton", "--n1", "1", "--n2", "8", "--K", "4",
                       "--eps", "13/100", check=0))
    assert rep["verb"] == "elton"
    assert rep["ratio_case"] == "10/9"
    assert rep["ratio_lower"] == "5/4"
    assert rep["verification"] == "dp"
    assert rep["norm_plus_lower"] == "5/4"
    assert rep["case_bounds"]["case4"] == "9/8"
    assert rep["inputs"]["eps"] == "13/100"


def test_layout_verbs_take_no_scale_options():
    # the case bounds cover (m1, m2) = (1, 2) only, so the layout verbs take
    # no scales; hereditary's --m1/--m2 are its own
    layout = ["--n1", "2", "--n2", "5", "--K", "3", "--eps", "1/2"]
    for args, option in ((["elton", *layout, "--m1", "1"], "--m1"),
                         (["quasi", *layout, "--alpha", "1/2", "--m2", "3"], "--m2")):
        proc = run(*args, check=2)
        assert proc.stdout == ""
        assert f"unrecognized arguments: {option}" in proc.stderr


def test_quasi_verb():
    rep = out_json(run("quasi", "--n1", "1", "--n2", "64", "--K", "8",
                       "--eps", "1/50", "--alpha", "2/3", check=0))
    assert rep["verb"] == "quasi"
    assert rep["norm_minus_upper"] == "7/3"
    assert rep["ratio_lower"] == "8/7"
    assert rep["passes_target"] is True
    assert rep["verification"] == "dp"
    assert rep["threshold_tie_at_alpha"] is True


def test_rademacher_k0_3_is_refused_by_its_cap():
    proc = run("rademacher", "--k0", "3", "--m", "2", "--n", "1", "--auto-ns",
               check=1)
    err = err_json(proc)
    assert err["kind"] == "SizeError"
    # refused before the greedy runs, by its least sum 2^9 + 2 (the chosen
    # multiplicities sum to 135 005 699)
    assert err["error"] == ("bracket_cells: bracket DP cells = "
                            f"{(2 * 3 * (2 ** 9 + 2)) ** 2} exceeds cap 4000000 "
                            "(override with UNCLAB_CAPS)")
    assert proc.stdout == ""


def test_rademacher_json_and_table():
    rep = out_json(run("rademacher", "--k0", "2", "--m", "3", "--n", "1",
                       "--auto-ns", check=0))
    assert rep["inputs"]["ns"] == [1, 17]
    assert rep["ris_condition"] is True
    assert rep["lengths"] == [72, 72, 72]
    bound = F(5, 2)
    for i, row in enumerate(rep["pairwise"]):
        for j, cell in enumerate(row):
            if i != j:
                assert F(cell) <= bound
    assert F(rep["max_diagonal"]) <= 2
    assert rep["bound_same_level"] == "2/1"
    # the JSON report carries the labelled, symmetric interaction table
    assert rep["labels"] == ["R(n=4,l=1)", "R(n=2,l=2)", "R(n=1,l=3)"]
    assert [[row[j] for row in rep["pairwise"]] for j in range(3)] == rep["pairwise"]
    timed = out_json(run("rademacher", "--k0", "2", "--m", "3", "--n", "1", "--auto-ns",
                         "--timing", check=0))
    assert isinstance(timed["wall_ms"], int)
    # exactly one of --ns / --auto-ns
    run("rademacher", "--k0", "2", "--m", "3", "--n", "1", check=1)
    run("rademacher", "--k0", "2", "--m", "3", "--n", "1", "--ns", "1,17",
        "--auto-ns", check=1)


def test_chain_verb(tmp_path):
    rep = out_json(run("chain", "--patterns", fx("patterns.json"), "--k", "2",
                       check=0))
    assert rep["count"] == 5
    assert rep["length"] == 4
    assert rep["chain"] == [0, 1, 3, 4]
    assert rep["chain_patterns"][-1] == [1, 1, 2, 2]
    # every pattern's colours are checked, also when there is no pair to compare
    for patterns in ([[1, 5]], [[1, 5], [1]]):
        path = tmp_path / "patterns.json"
        path.write_text(json.dumps(patterns))
        proc = run("chain", "--patterns", str(path), "--k", "2", check=1)
        assert proc.stdout == ""
        assert err_json(proc) == {"error": "colour 5 outside 1..2", "kind": "DomainError"}


def test_norm_verb():
    rep = out_json(run("norm", "--instance", fx("norm_summing4.json"),
                       "--vector", fx("vector_a.json"), check=0))
    assert rep["value"] == "2/1"
    assert rep["dim"] == 4
    assert rep["projection_class"] == "initial"
    cert = rep["certificate"]
    assert cert["kind"] == "functional"
    assert cert["functional_index"] == 2
    assert cert["projection"] == [1, 2, 3]


def test_constant_verb():
    rep = out_json(run("constant", "--instance", fx("norm_summing4.json"),
                       "--mode", "C_uncond", "--step", "1/2", check=0))
    assert rep["value_lower"] == "2/1"
    assert rep["value_upper"] is None
    assert rep["method"] == "grid(step=1/2)"
    assert rep["mode"] == "C_uncond"
    assert rep["witness"] is not None
    assert rep["inputs"]["step"] == "1/2"
    run("constant", "--instance", fx("norm_summing4.json"), "--mode", "K",
        check=1)  # K needs delta


def test_constant_echoes_its_query():
    rep = out_json(run("constant", "--instance", fx("norm_summing4.json"),
                       "--mode", "K", "--delta", "1/2", "--step", "1", check=0))
    assert rep["inputs"]["delta"] == "1/2"
    assert not {"D", "d", "order"} & set(rep["inputs"])
    rep = out_json(run("constant", "--instance", fx("norm_summing4.json"),
                       "--mode", "schreier", "--order", "2", "--step", "1",
                       check=0))
    assert rep["inputs"]["order"] == 2
    # options the mode does not read are refused
    err = run("constant", "--instance", fx("norm_summing4.json"),
              "--mode", "C_uncond", "--delta", "1/2", "--order", "2", check=1)
    assert err_json(err)["kind"] == "DomainError"
    # --step is a grid option: the LP method refuses it and does not echo it
    err = run("constant", "--instance", fx("norm_summing4.json"),
              "--mode", "schreier", "--order", "1", "--method", "lp",
              "--step", "2/3", check=1)
    assert err_json(err)["kind"] == "DomainError"
    rep = out_json(run("constant", "--instance", fx("norm_summing4.json"),
                       "--mode", "C_uncond", "--method", "lp", check=0))
    assert "step" not in rep["inputs"]
    assert "converged" not in rep["details"]


def test_constant_schreier_any_order(invoke_cli):
    # on summing 4 every order from 2 up reaches order 2's value, by the
    # grid and by the LP; order 0 names no family
    base = ["constant", "--instance", fx("norm_summing4.json"), "--mode", "schreier"]
    for method in (["--step", "1/2"], ["--method", "lp"]):
        values = []
        for order in ("2", "3", "1000000"):
            res = invoke_cli([*base, "--order", order, *method])
            assert res.exit_code == 0, res.stderr
            values.append(json.loads(res.stdout)["value_lower"])
        assert values == ["2/1"] * 3
    res = invoke_cli([*base, "--order", "0"])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "mode schreier needs an order >= 1"


def test_mr_demo_verb():
    rep = out_json(run("mr-demo", "--family", fx("mr_family.json"), "--k", "4",
                       "--seed", "0", check=0))
    assert rep["verb"] == "mr-demo"
    assert rep["label"] == "exploratory"
    assert rep["alternating_norm"] == "1/1"
    assert rep["split_sum"] == "4/1"
    assert rep["split_meets_target"] is True
    assert rep["phi_chain"] == [2, 1, 2, 0]


def test_match_verb():
    rep = out_json(run("match", "--maps", fx("map_family_a.json"),
                       "--universe", "12", "--horizon", "4", check=0))
    assert rep["found"] is True
    assert rep["witness"]["L"] == [1, 2, 3, 4]
    assert rep["witness"]["M"] == [1, 2] + list(range(5, 13))
    assert rep["checked"] == 1
    assert rep["determinacy"] == {"depth": 2, "model": "fixed_depth"}
    assert "inconclusive" in rep["note"]
    assert rep["strategy"] == rep["inputs"]["strategy"] == "exhaustive"


def test_hereditary_verb():
    rep = out_json(run("hereditary", "--universe", "12", "--mode", "weakly",
                       check=0))
    assert rep["family_size"] == 286
    assert rep["hereditary"] is False
    assert rep["violation"] == {"a": [[2, 1]], "b": [[1, 2], [2, 1]],
                                "colour": 1}
    rep = out_json(run("hereditary", "--universe", "12", "--restrict", "1,2,4",
                       check=0))
    assert rep["inputs"]["restrict"] == [1, 2, 4]
    assert rep["mode"] == "hereditary"
    rep = out_json(run("hereditary", "--universe", "12", "--mode", "hereditary",
                       "--samples", "3", "--seed", "7", check=0))
    assert len(rep["runs"]) == 3
    assert rep["all_fail"] is True
    # sampled sets keep at least min(8, universe) elements
    assert rep["inputs"] == {"universe": 12, "m1": 1, "m2": 2, "mode": "hereditary",
                             "samples": 3, "seed": 7}
    assert all(len(r["M"]) >= 8 for r in rep["runs"])
    rep = out_json(run("hereditary", "--universe", "12", "--m1", "2", "--m2", "3",
                       "--samples", "3", "--seed", "1", check=0))
    assert (rep["inputs"]["m1"], rep["inputs"]["m2"]) == (2, 3)
    run("hereditary", "--universe", "12", "--samples", "3", check=2)
    for extra in (["--samples", "3", "--seed", "1"], ["--samples", "3"],
                  ["--seed", "1"]):
        proc = run("hereditary", "--universe", "12", "--restrict", "1,2,4",
                   *extra, check=1)
        assert err_json(proc) == {"error": "--restrict excludes --samples and --seed",
                                  "kind": "DomainError"}
    rep = out_json(run("hereditary", "--universe", "5", "--samples", "2",
                       "--seed", "7", check=0))
    assert all(len(r["M"]) == 5 for r in rep["runs"])


def test_out_of_range_sample_counts_are_refused():
    # it would otherwise report on no search at all
    proc = run("hereditary", "--universe", "12", "--samples", "0", "--seed", "1", check=1)
    assert proc.stdout == ""
    assert err_json(proc) == {"error": "--samples must be >= 1, got 0", "kind": "DomainError"}


def _resolution_doc(length: int) -> dict:
    return {"k": 1, "pattern": [1] * length, "alpha": ["1"] * length}


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _refused(result, cap: str, cells: int, limit: int) -> bool:
    return result.exit_code == 1 and result.stdout == "" and json.loads(result.stderr) == {
        "error": f"{cap}: bracket DP cells = {cells} exceeds cap {limit} "
                 "(override with UNCLAB_CAPS)", "kind": "SizeError"}


def test_bracket_cells_bound_a_bracket_before_its_dp(tmp_path, monkeypatch, invoke_cli):
    r = _write(tmp_path / "r.json", _resolution_doc(10))
    s = _write(tmp_path / "s.json", _resolution_doc(12))
    # one direction fills 10 x 12 cells, --mutual both directions
    monkeypatch.setenv("UNCLAB_CAPS", "bracket_cells=240")
    assert invoke_cli(["bracket", r, s, "--mutual"]).exit_code == 0
    monkeypatch.setenv("UNCLAB_CAPS", "bracket_cells=120")
    assert invoke_cli(["bracket", r, s]).exit_code == 0

    def no_dp(*args):
        raise AssertionError("a bracket DP ran")

    monkeypatch.setattr(unclab.resolutions, "bracket", no_dp)
    assert _refused(invoke_cli(["bracket", r, s, "--mutual"]), "bracket_cells", 240, 120)
    monkeypatch.setenv("UNCLAB_CAPS", "bracket_cells=119")
    assert _refused(invoke_cli(["bracket", r, s]), "bracket_cells", 120, 119)


def test_bracket_cells_bound_mr_demo_before_its_first_bracket(tmp_path, monkeypatch,
                                                              invoke_cli):
    # the ordered pairs of distinct members of lengths 1200, 1200 and 1000:
    # 3400^2 - 2 * 1200^2 - 1000^2 = 7 680 000 cells
    family = _write(tmp_path / "family.json",
                    [_resolution_doc(n) for n in (1200, 1200, 1000)])

    def never(*args):
        raise AssertionError("mr-demo started work")

    monkeypatch.delenv("UNCLAB_CAPS", raising=False)
    monkeypatch.setattr(unclab.mrdemo, "mutual_bracket", never)
    monkeypatch.setattr(unclab.mrdemo, "special_sequence", never)
    result = invoke_cli(["mr-demo", "--family", family, "--k", "4", "--seed", "0"])
    assert _refused(result, "bracket_cells", 7_680_000, 4_000_000)


def test_hereditary_requests_are_checked_before_the_family_is_built(monkeypatch,
                                                                     invoke_cli):
    def never(*args):
        raise AssertionError("the family was built")

    monkeypatch.delenv("UNCLAB_CAPS", raising=False)
    monkeypatch.setattr(unclab.ramsey, "remark_family", never)
    result = invoke_cli(["hereditary", "--universe", "12", "--restrict", "1,2",
                         "--samples", "3"])
    assert (result.exit_code, json.loads(result.stderr)) == (1, {
        "error": "--restrict excludes --samples and --seed", "kind": "DomainError"})
    # C(13, 3) = 286 patterns, 2^3 candidates each, and 13 numbers a sample
    # draws at most, once per sample
    result = invoke_cli(["hereditary", "--universe", "12", "--samples", "100000000",
                         "--seed", "1"])
    assert (result.exit_code, json.loads(result.stderr)) == (1, {
        "error": "hereditary_checks: candidates and drawn numbers = 230100000000 "
                 "exceeds cap 10000000 (override with UNCLAB_CAPS)", "kind": "SizeError"})
    # an empty family (u < m2 + 1) still counts the numbers its samples draw
    for universe, m2, samples, checks in (("100000000", "100000000", "1", 100000001),
                                          ("2", "2", "100000000", 300000000)):
        result = invoke_cli(["hereditary", "--universe", universe, "--m2", m2,
                             "--samples", samples, "--seed", "1"])
        assert json.loads(result.stderr)["error"].startswith(
            f"hereditary_checks: candidates and drawn numbers = {checks} exceeds"), universe


def test_oversized_requests_exit_at_once(tmp_path):
    r = _write(tmp_path / "r.json", _resolution_doc(2001))
    s = _write(tmp_path / "s.json", _resolution_doc(2000))
    family = _write(tmp_path / "family.json", [_resolution_doc(1500)] * 3)
    # an all-ones functional over initial segments at dim 12: 196 560 LP cells
    ones = _write(tmp_path / "ones.json", {
        "dim": 12, "projection_class": "initial", "include_sup": True,
        "functionals": [[{"i": i, "v": "1"} for i in range(1, 13)]]})
    for args, cap in ((["bracket", r, s], "bracket_cells"),
                      (["mr-demo", "--family", family, "--k", "4", "--seed", "0"],
                       "bracket_cells"),
                      (["rademacher", "--k0", "12", "--m", "1", "--n", "1", "--auto-ns"],
                       "bracket_cells"),
                      (["rademacher", "--k0", "2", "--ns", "1,17", "--m", "1000000000",
                        "--n", "1"], "bracket_cells"),
                      (["constant", "--instance", ones, "--mode", "C_uncond", "--method", "lp"],
                       "lp_cells"),
                      (["hereditary", "--universe", "12", "--samples", "100000000",
                        "--seed", "1"], "hereditary_checks"),
                      (["hereditary", "--universe", "100000000", "--m2", "100000000",
                        "--samples", "1", "--seed", "1"], "hereditary_checks"),
                      (["hereditary", "--universe", "2", "--samples", "100000000",
                        "--seed", "1"], "hereditary_checks")):
        start = time.perf_counter()
        proc = run(*args, check=1)
        assert time.perf_counter() - start < 1, args
        assert err_json(proc)["kind"] == "SizeError" and proc.stdout == ""
        assert err_json(proc)["error"].split(":")[0] == cap, args


def test_negative_hereditary_universe_is_a_domain_error():
    # it would otherwise exit 5 from random.sample, or report an empty family
    for universe, extra in (("-1", ["--samples", "1", "--seed", "0"]), ("-3", [])):
        proc = run("hereditary", "--universe", universe, *extra, check=1)
        assert proc.stdout == ""
        assert err_json(proc) == {"error": f"universe must be >= 0, got {universe}",
                                  "kind": "DomainError"}
    assert out_json(run("hereditary", "--universe", "0", check=0))["family_size"] == 0


def test_integer_lists_name_their_option():
    proc = run("rademacher", "--k0", "2", "--m", "3", "--n", "1", "--ns", "1,x", check=1)
    assert err_json(proc) == {"error": "--ns must be comma separated integers, got '1,x'",
                              "kind": "DomainError"}
    proc = run("hereditary", "--universe", "12", "--restrict", "1,,4", check=1)
    assert err_json(proc) == {
        "error": "--restrict must be comma separated integers, got '1,,4'",
        "kind": "DomainError"}


def test_fixture_round_trips(fixtures):
    # parse -> canonical dump -> parse is the identity on every fixture kind
    r = ser.load_resolution(ser.read_json_file(str(fixtures / "resolution_r.json")))
    assert ser.load_resolution(json.loads(ser.dump_json(ser.to_jsonable(r)))) == r
    inst = ser.load_norm_instance(
        ser.read_json_file(str(fixtures / "norm_summing4.json")))
    v = ser.load_sparse_vector(ser.read_json_file(str(fixtures / "vector_a.json")))
    wire = {"entries": [{"i": i, "v": ser.format_rational(x)}
                        for i, x in v.entries]}
    assert ser.load_sparse_vector(json.loads(ser.dump_json(wire))) == v
    assert inst.dim == 4
    # canonical dumping is stable: dump(parse(dump(x))) == dump(x)
    once = ser.dump_json(ser.to_jsonable(r))
    twice = ser.dump_json(ser.to_jsonable(
        ser.load_resolution(json.loads(once))))
    assert once == twice
