"""Per-layer metrics from the spans that trace_cli.py writes.

A span's self time is its duration minus the durations of its direct child
spans.  A layer's time is the sum of self times of the spans in its group,
over every traced job of the run; rates divide that time by the layer's
work count.  A layer that did no work reports zero.

PER_LAYER lists every metric with its unit and the end-to-end metric and
workload it is expected to move; later performance changes cite these.
"""

from __future__ import annotations

import json
from collections import defaultdict

# Which end-to-end metric on which workload each layer should move.
BRACKET = "brackets: job_s.p50, jobs_per_s; certificates: jobs_per_s; not constants"
NORM = "constants: job_s.p50; certificates: mr-demo jobs; not brackets"
GRID = "constants: job_s.p50"
LP = "constants: jobs_per_s, job_s.p90"
SCHREIER = "constants: job_s.p50 (BOU and schreier modes)"
ELTON = "certificates: job_s.p90, jobs_per_s, peak_rss_mb"
CERT_P50 = "certificates: job_s.p50"
CLI = "all workloads: setup_s, job_s.p50; most on brackets, whose jobs are shortest"

PER_LAYER = [  # (name, unit, expected effect)
    ("resolutions.bracket.calls", "count", BRACKET),
    ("resolutions.bracket.cells", "count", BRACKET),
    ("resolutions.bracket.self_s", "s", BRACKET),
    ("resolutions.bracket.ns_per_cell", "ns", BRACKET),
    ("resolutions.chain.self_s", "s", "brackets: job_s.p50, jobs_per_s"),
    ("norms.eval_norm.calls", "count", NORM),
    ("norms.eval_norm.self_s", "s", NORM),
    ("norms.eval_norm.us_per_call", "us", NORM),
    ("norms.dual_certificate.self_s", "s", NORM),
    ("constants.grid.lattice_points", "count", GRID),
    ("constants.grid.self_s", "s", GRID),
    ("constants.grid.us_per_point", "us", GRID),
    ("constants.lp.cells", "count", LP),
    ("constants.lp.self_s", "s", LP),
    ("constants.lp.s_per_cell", "s", LP),
    ("constants.lp.sympy_import_s", "s", LP + ", peak_rss_mb"),
    ("schreier.calls", "count", SCHREIER),
    ("schreier.self_s", "s", SCHREIER),
    ("elton.structured_dp.calls", "count", ELTON),
    ("elton.structured_dp.universe", "count", ELTON),
    ("elton.structured_dp.self_s", "s", ELTON),
    ("elton.certificate.self_s", "s", ELTON),
    ("mrdemo.self_s", "s", CERT_P50),
    ("ramsey.search_matching.checked", "count", CERT_P50),
    ("ramsey.search_matching.self_s", "s", CERT_P50),
    ("ramsey.weakly_hereditary.checked", "count", CERT_P50),
    ("ramsey.weakly_hereditary.self_s", "s", CERT_P50),
    ("ramsey.remark_family.self_s", "s", CERT_P50),
    ("serialize.load_s", "s", CLI),
    ("serialize.dump_s", "s", CLI),
    ("serialize.dump_bytes", "bytes", CLI),
    ("cli.self_s", "s", CLI),
    ("cli.import_s", "s", CLI),
    ("trace.overhead_frac", "ratio", "none: traced over untraced wall time, minus one"),
]

# Span names whose group is not simply their module.
GROUPS = {
    "resolutions.bracket": "resolutions.bracket",
    "resolutions.mutual_bracket": "resolutions.bracket",
    "resolutions.eta_orthogonal": "resolutions.bracket",
    "resolutions.longest_chain": "resolutions.chain",
    "resolutions.pattern_embeds": "resolutions.chain",
    "norms.eval_norm": "norms.eval_norm",
    "norms.dual_certificate": "norms.dual_certificate",
    "elton.structured_dp": "elton.structured_dp",
    "ramsey.search_matching": "ramsey.search_matching",
    "ramsey.validate_matching": "ramsey.search_matching",
    "ramsey.is_initial_segment": "ramsey.search_matching",
    "ramsey.weakly_hereditary": "ramsey.weakly_hereditary",
    "ramsey.restrict_pattern": "ramsey.weakly_hereditary",
    "ramsey.remark_family": "ramsey.remark_family",
    "ramsey.make_pattern": "ramsey.remark_family",
    "serialize.dump_json": "serialize.dump",
    "serialize.to_jsonable": "serialize.dump",
}
MODULE_GROUPS = {"cli": "cli", "schreier": "schreier", "mrdemo": "mrdemo",
                 "elton": "elton.certificate", "serialize": "serialize.load"}
SCHREIER_CALLS = {"schreier.oscillation", "schreier.schreier_decompose",
                  "schreier.schreier_member"}


def span_group(spans: list, index: int) -> str:
    name, _, _, _, counts = spans[index]
    if name in GROUPS:
        return GROUPS[name]
    module = name.split(".")[0]
    if name == "constants.compute_constant":
        lp = counts is not None and counts["method"] == "fractional_lp"
        return "constants.lp" if lp else "constants.grid"
    if module == "rationals":
        # Rational parsing and formatting count as serialization, on the
        # side of the nearest serialize span above them.
        parent = spans[index][1]
        while parent >= 0 and not spans[parent][0].startswith("serialize."):
            parent = spans[parent][1]
        if parent < 0:
            return "serialize.load"
        return GROUPS.get(spans[parent][0], "serialize.load")
    return MODULE_GROUPS.get(module, module + ".other")


class LayerTotals:
    """Sums self times and work counts over the traced jobs of a run."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.import_ns = 0

    def add_job(self, path) -> None:
        with open(path) as f:
            doc = json.load(f)
        spans = doc["spans"]
        self.import_ns += doc["import_ns"]
        child_ns = [0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, _, start, end, counts) in enumerate(spans):
            self.self_ns[span_group(spans, i)] += end - start - child_ns[i]
            if name in SCHREIER_CALLS:
                self.counts["schreier.calls"] += 1
            if name == "norms.eval_norm":
                self.counts["norms.eval_norm.calls"] += 1
            if counts is None:
                continue
            if name == "resolutions.bracket":
                self.counts["resolutions.bracket.calls"] += 1
                self.counts["resolutions.bracket.cells"] += counts["cells"]
            elif name == "elton.structured_dp":
                self.counts["elton.structured_dp.calls"] += 1
                self.counts["elton.structured_dp.universe"] += counts["universe"]
            elif name == "constants.compute_constant":
                self.counts["constants.grid.lattice_points"] += counts["lattice_points"]
                self.counts["constants.lp.cells"] += counts["cells"]
            elif name in ("ramsey.search_matching", "ramsey.weakly_hereditary"):
                self.counts[name + ".checked"] += counts["checked"]
            elif name == "serialize.dump_json":
                self.counts["serialize.dump_bytes"] += counts["bytes"]

    def metrics(self, overhead_frac: float, lp_first_call_s: float) -> dict:
        s = {group: ns / 1e9 for group, ns in self.self_ns.items()}
        c = self.counts

        def per(seconds: float, count: int, scale: float) -> float:
            return seconds * scale / count if count else 0.0

        values = {
            "resolutions.bracket.calls": c["resolutions.bracket.calls"],
            "resolutions.bracket.cells": c["resolutions.bracket.cells"],
            "resolutions.bracket.self_s": s.get("resolutions.bracket", 0.0),
            "resolutions.bracket.ns_per_cell": per(s.get("resolutions.bracket", 0.0),
                                                   c["resolutions.bracket.cells"], 1e9),
            "resolutions.chain.self_s": s.get("resolutions.chain", 0.0),
            "norms.eval_norm.calls": c["norms.eval_norm.calls"],
            "norms.eval_norm.self_s": s.get("norms.eval_norm", 0.0),
            "norms.eval_norm.us_per_call": per(s.get("norms.eval_norm", 0.0),
                                               c["norms.eval_norm.calls"], 1e6),
            "norms.dual_certificate.self_s": s.get("norms.dual_certificate", 0.0),
            "constants.grid.lattice_points": c["constants.grid.lattice_points"],
            "constants.grid.self_s": s.get("constants.grid", 0.0),
            "constants.grid.us_per_point": per(s.get("constants.grid", 0.0),
                                               c["constants.grid.lattice_points"], 1e6),
            "constants.lp.cells": c["constants.lp.cells"],
            "constants.lp.self_s": s.get("constants.lp", 0.0),
            "constants.lp.s_per_cell": per(s.get("constants.lp", 0.0), c["constants.lp.cells"], 1),
            "constants.lp.sympy_import_s": lp_first_call_s,
            "schreier.calls": c["schreier.calls"],
            "schreier.self_s": s.get("schreier", 0.0),
            "elton.structured_dp.calls": c["elton.structured_dp.calls"],
            "elton.structured_dp.universe": c["elton.structured_dp.universe"],
            "elton.structured_dp.self_s": s.get("elton.structured_dp", 0.0),
            "elton.certificate.self_s": s.get("elton.certificate", 0.0),
            "mrdemo.self_s": s.get("mrdemo", 0.0),
            "ramsey.search_matching.checked": c["ramsey.search_matching.checked"],
            "ramsey.search_matching.self_s": s.get("ramsey.search_matching", 0.0),
            "ramsey.weakly_hereditary.checked": c["ramsey.weakly_hereditary.checked"],
            "ramsey.weakly_hereditary.self_s": s.get("ramsey.weakly_hereditary", 0.0),
            "ramsey.remark_family.self_s": s.get("ramsey.remark_family", 0.0),
            "serialize.load_s": s.get("serialize.load", 0.0),
            "serialize.dump_s": s.get("serialize.dump", 0.0),
            "serialize.dump_bytes": c["serialize.dump_bytes"],
            "cli.self_s": s.get("cli", 0.0),
            "cli.import_s": self.import_ns / 1e9,
            "trace.overhead_frac": overhead_frac,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


# Run in a fresh interpreter: the first fractional-LP call of a process pays
# a one-time set-up (today the sympy import) that a second call does not.
LP_FIRST_CALL = """
import time
from fractions import Fraction as F
from unclab import ConstantQuery, Functional, NormInstance, compute_constant
inst = NormInstance.build(2, [Functional.from_pairs([(1, F(1)), (2, F(1, 4))]),
                              Functional.from_pairs([(1, F(1, 4)), (2, F(-1, 3))])],
                          "initial_segments", False)
query = ConstantQuery("Kstar", delta=F(1, 2))
times = []
for _ in range(2):
    start = time.perf_counter()
    compute_constant(inst, query, method="fractional_lp")
    times.append(time.perf_counter() - start)
print(max(0.0, times[0] - times[1]))
"""
