"""End-to-end CLI contract: verbs, JSON reports, exit codes, byte stability."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import unclab
from conftest import child_env
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
    for method in ("dp", "brute"):
        proc = run("bracket", fx("resolution_r.json"), fx("resolution_s.json"),
                   "--method", method, check=0)
        rep = out_json(proc)
        assert rep["verb"] == "bracket"
        assert rep["value"] == "5/4"
        assert rep["witness"] == [[1, 1], [2, 2]]
        assert rep["method"] == method
        assert rep["inputs"]["left"].endswith("resolution_r.json")
        assert "version" in rep
        assert "wall_ms" not in rep


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
    # options are not abbreviated: --mut is neither --mutual nor --method
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
usage: unclab bracket [-h] [--method {dp,brute}] [--mutual] [--timing]
                      LEFT RIGHT

Weighted matching value of two resolutions.

positional arguments:
  LEFT
  RIGHT

options:
  -h, --help           show this help message and exit
  --method {dp,brute}
  --mutual             symmetrized value
  --timing             add the wall-clock time
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
    proc = run("match", "--maps", fx("map_family_a.json"), "--universe", "12",
               env_extra={"UNCLAB_CAPS": "match_universe=4"}, check=1)
    assert err_json(proc)["kind"] == "SizeError"
    assert "UNCLAB_CAPS" in err_json(proc)["error"]
    proc = run("match", "--maps", fx("map_family_a.json"), "--universe", "12",
               env_extra={"UNCLAB_CAPS": "bogus=3"}, check=1)
    assert err_json(proc)["kind"] == "DomainError"
    # a raised cap unlocks the same failing call
    proc = run("match", "--maps", fx("map_family_a.json"), "--universe", "12",
               env_extra={"UNCLAB_CAPS": "match_universe=16"}, check=0)
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
    assert rep["ratio_lower"] == "512/451"
    assert rep["passes_target"] is True
    assert rep["verification"] == "symbolic"
    assert rep["threshold_tie_at_alpha"] is True


def test_rademacher_k0_3_is_refused_by_its_cap():
    proc = run("rademacher", "--k0", "3", "--m", "2", "--n", "1", "--auto-ns",
               check=1)
    err = err_json(proc)
    assert err["kind"] == "SizeError"
    assert err["error"] == ("rademacher_cells: bracket DP cells = "
                            f"{(2 * 3 * 135005699) ** 2} exceeds cap 4000000 "
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
    table = run("rademacher", "--k0", "2", "--m", "3", "--n", "1", "--auto-ns",
                "--table", check=0).stdout
    assert "─" in table
    assert "R(n=4,l=1)" in table
    assert "same-level bound" in table
    timed = run("rademacher", "--k0", "2", "--m", "3", "--n", "1", "--auto-ns",
                "--table", "--timing", check=0).stdout
    assert timed.splitlines()[-1].startswith("wall_ms")
    # exactly one of --ns / --auto-ns
    run("rademacher", "--k0", "2", "--m", "3", "--n", "1", check=1)
    run("rademacher", "--k0", "2", "--m", "3", "--n", "1", "--ns", "1,17",
        "--auto-ns", check=1)


def test_chain_verb():
    rep = out_json(run("chain", "--patterns", fx("patterns.json"), "--k", "2",
                       check=0))
    assert rep["count"] == 5
    assert rep["length"] == 4
    assert rep["chain"] == [0, 1, 3, 4]
    assert rep["chain_patterns"][-1] == [1, 1, 2, 2]


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
    rep = out_json(run("match", "--maps", fx("map_family_b.json"),
                       "--universe", "12", "--horizon", "4", "--strategy",
                       "random", "--seed", "5", check=0))
    assert rep["strategy"] == "random" and rep["inputs"]["seed"] == 5
    run("match", "--maps", fx("map_family_a.json"), "--universe", "12",
        "--strategy", "random", check=2)  # seed required


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
    # --min-size only shapes sampled sets; elsewhere it is refused, not dropped
    for extra in (["--restrict", "1,2,4"], []):
        proc = run("hereditary", "--universe", "12", *extra, "--min-size", "3",
                   check=1)
        assert err_json(proc) == {"error": "--min-size needs --samples",
                                  "kind": "DomainError"}
    rep = out_json(run("hereditary", "--universe", "12", "--samples", "2",
                       "--seed", "7", "--min-size", "11", check=0))
    assert rep["inputs"]["min_size"] == 11
    assert all(len(r["M"]) >= 11 for r in rep["runs"])


def test_out_of_range_sample_counts_are_refused():
    # each would otherwise crash in random.sample or report on no search at all
    for args, error in [
            (["hereditary", "--universe", "12", "--samples", "2", "--seed", "1",
              "--min-size", "-3"], "--min-size must be >= 0, got -3"),
            (["hereditary", "--universe", "12", "--samples", "0", "--seed", "1"],
             "--samples must be >= 1, got 0"),
            (["match", "--maps", fx("map_family_b.json"), "--universe", "12",
              "--horizon", "4", "--strategy", "random", "--seed", "5", "--budget", "-3"],
             "random strategy needs a budget >= 1, got -3")]:
        proc = run(*args, check=1)
        assert proc.stdout == ""
        assert err_json(proc) == {"error": error, "kind": "DomainError"}


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
