"""Run one unclab CLI verb with spans around every public library function.

Usage: python3 trace_cli.py SPANS_OUT JOB_ID VERB [ARGS...]

The public functions of each layer module are wrapped from outside, in the
module that defines them and in every unclab module that imports them by
name (so unclab.constants.eval_norm and unclab.mrdemo.eval_norm are traced
as well as unclab.norms.eval_norm).  Each CLI verb body is a span too.
Spans stay in memory as [name, parent, start_ns, end_ns, counts] and are
written to SPANS_OUT as JSON when the verb exits.  A direct recursive call
of a traced function is not a span of its own: it belongs to its caller.
Work counts are read from call arguments and returned reports only.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = ("serialize", "rationals", "resolutions", "norms", "constants",
          "schreier", "elton", "mrdemo", "ramsey")


def _constant_counts(args, kwargs, report):
    method = kwargs.get("method", args[2] if len(args) > 2 else "grid")
    return {"method": method, "lattice_points": report.details.get("lattice_points", 0),
            "cells": report.details.get("cells", 0)}


COUNTS = {
    "resolutions.bracket": lambda a, k, r: {"cells": len(a[0]) * len(a[1])},
    "elton.structured_dp": lambda a, k, r: {"universe": a[0].universe},
    "constants.compute_constant": _constant_counts,
    "ramsey.search_matching": lambda a, k, r: {"checked": r["checked"]},
    "ramsey.weakly_hereditary": lambda a, k, r: {"checked": r["checked"]},
    "serialize.dump_json": lambda a, k, r: {"bytes": len(r.encode())},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []   # (span index, traced function name)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = [name, stack[-2][0] if len(stack) > 1 else -1, start, clock(), None]
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[sid] = [name, stack[-1][0] if stack else -1, start, end,
                          count(args, kwargs, result) if count else None]
            return result

        return traced

    def install(self, cli) -> None:
        modules = [m for n, m in sys.modules.items() if n == "unclab" or n.startswith("unclab.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"unclab.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for verb, command in cli.main.commands.items():
            command.callback = self.wrap(f"cli.{verb}", command.callback)

    def write(self, path: str, job: str, import_ns: int) -> None:
        with open(path, "w") as out:
            json.dump({"job": job, "import_ns": import_ns, "spans": self.spans}, out)


def main() -> None:
    out_path, job, *argv = sys.argv[1:]
    start = time.perf_counter_ns()
    import unclab.cli as cli
    import_ns = time.perf_counter_ns() - start
    tracer = Tracer()
    tracer.install(cli)
    sys.argv = ["unclab", *argv]
    try:
        cli.main()
    finally:
        tracer.write(out_path, job, import_ns)


if __name__ == "__main__":
    main()
