"""Command line front end. Every verb prints canonical JSON on stdout.

Reports carry the verb, the echoed inputs, exact-rational values with their
witnesses, the method used, and the package version. Wall-clock time is
opt-in through --timing because reports must be byte-stable across runs.

Exit codes: 0 success, 1 domain/size errors, 2 missing inputs (shared with
the argument parser's own usage failures), 3 malformed rationals, 4 schema
errors in input documents, 5 internal invariant failures and any other
exception a verb raises.

Each CLI job is one short process, so its exit is part of its cost. When
`main()` runs as the program (no `args`), it calls `gc.freeze()` once the
job has parsed its arguments and run, whatever the exit: the collections
that CPython runs at interpreter exit skip the permanent generation, so
they no longer walk every module's reference cycles, and the OS takes the
memory back. Atexit handlers, stream flushing and exit codes are unaffected.
In-process callers, `main(args)`, freeze nothing, so a test session that
calls it many times keeps collecting its garbage.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time

from . import (__version__, constants, elton, errors, mrdemo, norms, ramsey, rationals,
               resolutions)
from . import serialize as ser


def arg(*names: str, **kwargs):
    """One `ArgumentParser.add_argument` call, kept for the verb's parser."""
    return names, kwargs


class Command:
    """A verb: its one-line help, its arguments and the callback that runs
    it. `main` reads `callback` when the verb runs, so a wrapper set on it
    after import is the one called."""

    def __init__(self, help: str, arguments: tuple, callback):
        self.help, self.arguments, self.callback = help, arguments, callback


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Exact-rational workbench for sequence-space combinatorics."""
    if args is not None:
        _run(list(args), prog_name)
        return
    try:
        _run(sys.argv[1:], prog_name)
    finally:
        gc.freeze()   # the collections at exit skip it (module docstring)


def _run(argv: list[str], prog_name: str | None) -> None:
    parser = argparse.ArgumentParser(prog=prog_name, description=main.__doc__,
                                     allow_abbrev=False)
    verbs = parser.add_subparsers(dest="verb", metavar="VERB", required=True)
    # when argv[0] names a verb only its sub-parser is added, with its
    # arguments; otherwise every verb is listed, for --help and usage errors
    running = argv[0] if argv and argv[0] in main.commands else None
    for name in [running] if running else main.commands:
        command = main.commands[name]
        sub = verbs.add_parser(name, help=command.help, description=command.help,
                               allow_abbrev=False)
    if running:
        actions = [sub.add_argument(*names, **kwargs) for names, kwargs in command.arguments]
        takes_value = {s for a in actions if a.nargs != 0 for s in a.option_strings}
        # an option takes the next word as its value, even one such as -1/2
        # that argparse would read as an option: pass it as --opt=VALUE
        words, argv = iter(argv[1:]), argv[:1]
        for word in words:
            value = next(words, None) if word in takes_value else None
            argv.append(word if value is None else f"{word}={value}")
    kwargs = vars(parser.parse_args(argv))
    main.commands[kwargs.pop("verb")].callback(**kwargs)


main.commands: dict[str, Command] = {}


def verb(name: str, *arguments):
    """Register a verb body under `name` with its arguments, plus --timing.

    The body returns (inputs, out), which becomes the report together with
    the verb's name and the package version; --timing adds the wall-clock
    time in milliseconds. An UnclabError prints as JSON on stderr and exits
    with the error's exit code. Any other Exception is a bug, not a fault
    in the input: it prints as `{"error": "<type>: <message>", "kind":
    "InternalError"}` and exits 5, like an InternalError.
    """
    def register(fn):
        def callback(timing, **kwargs):
            t0 = time.monotonic()
            try:
                inputs, out = fn(**kwargs)
                report = {"verb": name, "version": __version__, "inputs": inputs, **out}
                if timing:
                    report["wall_ms"] = int((time.monotonic() - t0) * 1000)
                sys.stdout.write(ser.dump_json(report))
            except errors.UnclabError as e:
                sys.stderr.write(ser.dump_json({"error": str(e), "kind": type(e).__name__}))
                sys.exit(e.exit_code)
            except Exception as e:
                sys.stderr.write(ser.dump_json({"error": f"{type(e).__name__}: {e}",
                                                "kind": "InternalError"}))
                sys.exit(errors.InternalError.exit_code)

        main.commands[name] = Command(fn.__doc__, arguments + (
            arg("--timing", action="store_true", help="add the wall-clock time"),), callback)
        return fn
    return register


def _integers(option: str, text: str) -> tuple[int, ...]:
    """The comma separated integers an option's value lists."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise errors.DomainError(f"{option} must be comma separated integers, got {text!r}")


@verb("bracket",
      arg("left_path", metavar="LEFT"),
      arg("right_path", metavar="RIGHT"),
      arg("--mutual", action="store_true", help="symmetrized value"))
def bracket_cmd(left_path, right_path, mutual):
    """Weighted matching value of two resolutions."""
    r = ser.load_resolution(ser.read_json_file(left_path), "left")
    s = ser.load_resolution(ser.read_json_file(right_path), "right")
    resolutions.check_bracket_cells((2 if mutual else 1) * len(r) * len(s))
    inputs = {"left": left_path, "right": right_path, "mutual": mutual}
    if mutual:
        lr, lr_wit = resolutions.bracket(r, s)
        rl, rl_wit = resolutions.bracket(s, r)
        out = {"value": max(lr, rl), "left_right": lr, "right_left": rl,
               "witness_direction": "left_right" if lr >= rl else "right_left",
               "witness": [list(p) for p in (lr_wit if lr >= rl else rl_wit)]}
    else:
        value, wit = resolutions.bracket(r, s)
        out = {"value": value, "witness": [list(p) for p in wit]}
    out["method"] = "dp"
    return inputs, out


@verb("rademacher",
      arg("--k0", type=int, required=True),
      arg("--m", type=int, required=True, help="number of levels"),
      arg("--n", type=int, required=True, help="base multiplicity"),
      arg("--ns", help="comma separated multiplicities, e.g. 1,17"),
      arg("--auto-ns", action="store_true",
          help="greedy minimal multiplicities for this k0"))
def rademacher(k0, m, n, ns, auto_ns):
    """Pairwise interaction table for a Rademacher-class family."""
    if (ns is None) == (not auto_ns):
        raise errors.DomainError("give exactly one of --ns or --auto-ns")
    if auto_ns:
        resolutions.check_rademacher_family(k0, None, n, m)
        ns = resolutions.choose_multiplicities(k0)
    else:
        ns = _integers("--ns", ns)
    family = resolutions.rademacher_family(k0, ns, n, m)
    labels = [f"R(n={n * k0 ** (m - l)},l={l})" for l in range(1, m + 1)]
    directed = [[resolutions.bracket(a, b)[0] for b in family] for a in family]
    matrix = [[max(directed[i][j], directed[j][i]) for j in range(m)] for i in range(m)]
    off_diag = [matrix[i][j] for i in range(m) for j in range(m) if i != j]
    same, cross = resolutions.rademacher_bounds(k0, ns)
    out = {
        "ris_condition": resolutions.ris_condition(k0, ns),
        "labels": labels,
        "lengths": [len(r) for r in family],
        "pairwise": matrix,
        "max_diagonal": max(matrix[i][i] for i in range(m)),
        "max_off_diagonal": max(off_diag) if off_diag else None,
        "bound_same_level": same,
        "bound_cross_levels": cross if m > 1 else None,
    }
    return {"k0": k0, "m": m, "n": n, "ns": list(ns)}, out


@verb("chain",
      arg("--patterns", required=True),
      arg("--k", type=int, required=True))
def chain(patterns, k):
    """Longest embedding chain among colour patterns."""
    colour_lists = ser.load_patterns(ser.read_json_file(patterns))
    indices = resolutions.longest_chain(colour_lists, k)
    out = {"count": len(colour_lists), "length": len(indices),
           "chain": indices,
           "chain_patterns": [list(colour_lists[i]) for i in indices]}
    return {"patterns": patterns, "k": k}, out


@verb("norm",
      arg("--instance", required=True),
      arg("--vector", required=True))
def norm(instance, vector):
    """Evaluate an instance norm on a vector, with the attaining functional."""
    inst = ser.load_norm_instance(ser.read_json_file(instance))
    v = ser.load_sparse_vector(ser.read_json_file(vector))
    cert = norms.dual_certificate(inst, v)
    out = {"value": cert.value, "dim": inst.dim,
           "projection_class": ser.SHORT_CLASS[inst.projection_class],
           "certificate": cert}
    return {"instance": instance, "vector": vector}, out


@verb("constant",
      arg("--instance", required=True),
      arg("--mode", required=True),
      arg("--delta"),
      arg("--D"),
      arg("--d"),
      arg("--order", type=int),
      arg("--method", choices=["grid", "lp"], default="grid"),
      arg("--step"))
def constant(instance, mode, delta, D, d, order, method, step):
    """Extremal constant of an instance norm in the given mode."""
    inst = ser.load_norm_instance(ser.read_json_file(instance))
    query = constants.ConstantQuery(
        mode=mode,
        delta=rationals.parse_rational(delta) if delta is not None else None,
        D=rationals.parse_rational(D) if D is not None else None,
        d=rationals.parse_rational(d) if d is not None else None,
        order=order,
    )
    method_name = "fractional_lp" if method == "lp" else method
    step = rationals.parse_rational(step) if step is not None else None
    report = constants.compute_constant(inst, query, method=method_name, step=step)
    inputs = {"instance": instance, "mode": mode, "method": method_name}
    if method == "grid":
        inputs["step"] = constants.DEFAULT_STEP if step is None else step
    inputs.update((name, getattr(query, name)) for name in constants.QUERY_FIELDS
                  if getattr(query, name) is not None)
    return inputs, dict(ser.to_jsonable(report))


@verb("elton",
      arg("--n1", type=int, required=True),
      arg("--n2", type=int, required=True),
      arg("--K", type=int, required=True),
      arg("--eps", required=True))
def elton_cmd(n1, n2, K, eps):
    """Certified norm-ratio lower bound for a two-scale layout."""
    eps = rationals.parse_rational(eps)
    return ({"n1": n1, "n2": n2, "K": K, "eps": eps},
            elton.k_lower_certificate(elton.EltonParams(n1, n2, K, eps)))


@verb("quasi",
      arg("--n1", type=int, required=True),
      arg("--n2", type=int, required=True),
      arg("--K", type=int, required=True),
      arg("--eps", required=True),
      arg("--alpha", required=True))
def quasi(n1, n2, K, eps, alpha):
    """Quasi-variant certificate with the threshold-projection diagnosis."""
    eps = rationals.parse_rational(eps)
    alpha = rationals.parse_rational(alpha)
    return ({"n1": n1, "n2": n2, "K": K, "eps": eps, "alpha": alpha},
            elton.quasi_certificate(elton.EltonParams(n1, n2, K, eps), alpha))


@verb("mr-demo",
      arg("--family", required=True),
      arg("--k", type=int, required=True),
      arg("--seed", type=int, required=True))
def mr_demo_cmd(family, k, seed):
    """Exploratory alternating-sum demo over a placed special sequence."""
    members = ser.load_resolution_list(ser.read_json_file(family))
    return {"family": family, "k": k, "seed": seed}, mrdemo.mr_demo(members, k, seed)


@verb("match",
      arg("--maps", required=True, help="prefix-determined map document"),
      arg("--universe", type=int, required=True),
      arg("--horizon", type=int,
          help="minimum size of both sets (default: map depth)"))
def match(maps, universe, horizon):
    """Search a universe for a matched pair under a prefix-determined map."""
    pmap = ser.load_prefix_map(ser.read_json_file(maps))
    result = ramsey.search_matching(pmap, universe, horizon=horizon)
    return {"maps": maps, "universe": universe, "strategy": "exhaustive"}, result


@verb("hereditary",
      arg("--universe", type=int, required=True),
      arg("--m1", type=int, default=1),
      arg("--m2", type=int, default=2),
      arg("--mode", choices=["hereditary", "weakly"], default="hereditary"),
      arg("--restrict", help="comma separated restriction set, e.g. 1,2,4,7"),
      arg("--samples", type=int, help="check this many random restriction sets "
          "of at least min(8, universe) elements"),
      arg("--seed", type=int))
def hereditary(universe, m1, m2, mode, restrict, samples, seed):
    """Hereditariness of colour-pattern family restrictions."""
    if restrict is not None and (samples is not None or seed is not None):
        raise errors.DomainError("--restrict excludes --samples and --seed")
    if samples is not None:
        if seed is None:
            raise errors.MissingInputError("--seed is required with --samples")
        if samples < 1:
            raise errors.DomainError(f"--samples must be >= 1, got {samples}")
    ramsey.check_hereditary(universe, m1, m2, samples)
    family = ramsey.remark_family(universe, m1, m2)
    inputs = {"universe": universe, "m1": m1, "m2": m2, "mode": mode}
    out = {"family_size": len(family)}
    if restrict is not None:
        M = sorted(_integers("--restrict", restrict))
        inputs["restrict"] = M
        out.update(ramsey.weakly_hereditary(family, M, mode=mode))
    elif samples is not None:
        inputs["samples"] = samples
        inputs["seed"] = seed
        rng = random.Random(seed)
        runs = []
        for _ in range(samples):
            size = rng.randint(min(8, universe), universe)
            M = sorted(rng.sample(range(1, universe + 1), size))
            runs.append({"M": M, **ramsey.weakly_hereditary(family, M, mode=mode)})
        out["runs"] = runs
        out["all_fail"] = all(r["hereditary"] is False for r in runs)
    else:
        out.update(ramsey.weakly_hereditary(family, None, mode=mode))
    return inputs, out


if __name__ == "__main__":
    main()
