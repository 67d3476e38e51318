"""Per-layer metrics from the span dumps that ``tracer`` writes.

Busy time of a span name is the summed duration of its outermost spans,
over all threads, so it can exceed wall time.  Self time is a span's
duration minus the part of it covered by its children.  A ratio whose
denominator is zero (no calls on this workload) reads 0.
"""

from __future__ import annotations

import math
import statistics

from spec import AUDIT_FAMILIES, PER_LAYER
from tracer import WRAP_POINTS

# span name -> the wrap points that record it
SPAN_POINTS = {}
for _point, _span, _observe in WRAP_POINTS:
    SPAN_POINTS.setdefault(_span, set()).add(_point)


class Dump:
    def __init__(self, data):
        self.spans = data["spans"]
        self.counts = data["counts"]
        self.distinct = data["distinct"]
        self.missing = set(data["missing"])
        self._by_id = {span[0]: span for span in self.spans}
        self._children = {}
        for span in self.spans:
            self._children.setdefault(span[4], []).append(span)

    def named(self, name):
        return [span for span in self.spans if span[1] == name]

    def _outermost(self, span, name):
        parent = self._by_id.get(span[4])
        while parent is not None:
            if parent[1] == name:
                return False
            parent = self._by_id.get(parent[4])
        return True

    def busy(self, name):
        return sum(s[3] - s[2] for s in self.named(name) if self._outermost(s, name))

    def self_time(self, name):
        total = 0.0
        for span in self.named(name):
            covered, reach = 0.0, span[2]
            for child in sorted(self._children.get(span[0], []), key=lambda c: c[2]):
                start, end = max(child[2], reach), min(child[3], span[3])
                if end > start:
                    covered += end - start
                    reach = end
            total += span[3] - span[2] - covered
        return total


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile_ms(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return 1e3 * ordered[rank]


def summarize(dumps, extra_counts=None):
    """Per-layer metric values for one pass.

    A metric reads None when a wrap point recording one of the spans it
    needs is missing (looked up by span name in ``tracer.WRAP_POINTS``).

    ``dumps`` are the parsed span files of every traced process of the
    pass; ``extra_counts`` holds counters measured outside the program
    (``cli.csv_bytes``).
    """
    dumps = [Dump(d) for d in dumps]
    missing_points = set().union(*(d.missing for d in dumps)) if dumps else set()
    missing = {span for span, points in SPAN_POINTS.items() if points & missing_points}

    def busy(name):
        return sum(d.busy(name) for d in dumps)

    def self_time(name):
        return sum(d.self_time(name) for d in dumps)

    def calls(name):
        return sum(len(d.named(name)) for d in dumps)

    def count(name):
        return sum(d.counts.get(name, 0) for d in dumps) + (extra_counts or {}).get(name, 0)

    def distinct(name):
        return sum(d.distinct.get(name, 0) for d in dumps)

    stage_durations = [s[3] - s[2] for d in dumps for s in d.named("pipeline.stage")]

    table = {
        "measure.restrict_s": (["measure.restrict"], lambda: busy("measure.restrict")),
        "measure.restrict_calls": (["measure.restrict"], lambda: calls("measure.restrict")),
        "measure.cells_in": (["measure.restrict"], lambda: count("measure.cells_in")),
        "measure.cells_out": (["measure.restrict"], lambda: count("measure.cells_out")),
        "measure.restrict_kept_ratio": (
            ["measure.restrict"],
            lambda: _ratio(count("measure.cells_out"), count("measure.cells_in")),
        ),
        "measure.restrict_distinct_ratio": (
            ["measure.restrict"],
            lambda: _ratio(distinct("measure.restrict"), calls("measure.restrict")),
        ),
        "measure.condition_s": (["measure.condition"], lambda: busy("measure.condition")),
        "pipeline.level_partition_s": (
            ["pipeline.level_partition"],
            lambda: busy("pipeline.level_partition"),
        ),
        "pipeline.level_partition_calls": (
            ["pipeline.level_partition"],
            lambda: calls("pipeline.level_partition"),
        ),
        "pipeline.level_partition_distinct_ratio": (
            ["pipeline.level_partition"],
            lambda: _ratio(distinct("pipeline.level_partition"), calls("pipeline.level_partition")),
        ),
        "pipeline.cells": (["pipeline.level_partition"], lambda: count("pipeline.cells")),
        "pipeline.stage_self_s": (["pipeline.stage"], lambda: self_time("pipeline.stage")),
        "pipeline.stage_calls": (["pipeline.stage"], lambda: len(stage_durations)),
        "pipeline.stage_p50_ms": (
            ["pipeline.stage"],
            lambda: _percentile_ms(stage_durations, 0.50),
        ),
        "pipeline.stage_p98_ms": (
            ["pipeline.stage"],
            lambda: _percentile_ms(stage_durations, 0.98),
        ),
        "convergence.sweep_s": (["convergence.sweep"], lambda: busy("convergence.sweep")),
        "convergence.sweep_self_s": (["convergence.sweep"], lambda: self_time("convergence.sweep")),
        "convergence.solve_s": (["convergence.solve"], lambda: busy("convergence.solve")),
        "convergence.solve_calls": (["convergence.solve"], lambda: calls("convergence.solve")),
        "convergence.records": (["convergence.sweep"], lambda: count("convergence.records")),
        "models.build_s": (
            ["models.build"],
            lambda: busy("models.build"),
        ),
        "models.exact_resolvent_s": (
            ["models.exact_resolvent"],
            lambda: busy("models.exact_resolvent"),
        ),
        "models.exact_resolvent_calls": (
            ["models.exact_resolvent"],
            lambda: calls("models.exact_resolvent"),
        ),
        "models.exact_form_s": (["models.exact_form"], lambda: busy("models.exact_form")),
        "models.exact_form_calls": (
            ["models.exact_form"],
            lambda: calls("models.exact_form"),
        ),
        "models.apply_semigroup_s": (
            ["models.apply_semigroup"],
            lambda: busy("models.apply_semigroup"),
        ),
        "graphs.extract_s": (["graphs.extract"], lambda: busy("graphs.extract")),
        "graphs.write_json_s": (["graphs.write_json"], lambda: busy("graphs.write_json")),
        "graphs.write_edges_s": (["graphs.write_edges"], lambda: busy("graphs.write_edges")),
        "graphs.read_json_s": (["graphs.read_json"], lambda: busy("graphs.read_json")),
        "graphs.read_edges_s": (["graphs.read_edges"], lambda: busy("graphs.read_edges")),
        "graphs.bytes_written": (
            ["graphs.write_json", "graphs.write_edges"],
            lambda: count("graphs.bytes_written"),
        ),
        "graphs.edges": (["graphs.write_json"], lambda: count("graphs.edges")),
        "graphs.edge_density": (
            ["graphs.write_json"],
            lambda: _ratio(count("graphs.edges"), count("graphs.pairs")),
        ),
        "graphs.edges_below_eps": (["graphs.write_json"], lambda: count("graphs.edges_below_eps")),
        "graphs.energy_s": (["graphs.energy"], lambda: busy("graphs.energy")),
        "graphs.energy_calls": (["graphs.energy"], lambda: calls("graphs.energy")),
        "audits.total_s": (["audits.suite"], lambda: busy("audits.suite")),
        "audits.failed": (["audits.suite"], lambda: count("audits.failed")),
        "cli.self_s": (["cli.main"], lambda: self_time("cli.main")),
        "cli.csv_bytes": ([], lambda: count("cli.csv_bytes")),
    }
    for family in AUDIT_FAMILIES:
        table[f"audits.{family}_s"] = (
            [f"audits.{family}"],
            lambda family=family: busy(f"audits.{family}"),
        )

    out = {}
    for name in PER_LAYER:
        if name not in table:
            continue  # measured by run.py, not from spans
        needs, compute = table[name]
        out[name] = None if missing.intersection(needs) else compute()
    return out


def median_of(passes):
    """Metric-wise median over passes, keeping None where any pass is missing."""
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        out[name] = None if any(v is None for v in values) else statistics.median(values)
    return out
