"""What the benchmark measures: workloads, metrics, and how they relate.

This module is the single source for ``BENCHMARK.json`` and
``perfbench/METRICS.md`` (both written by ``report.py``).  The
self-tests check that the two files match what is declared here.

Workloads run the real command line, one subprocess at a time, in
passes of a few seconds, repeated for the length of a run; a run
reports medians over its passes.

The reference machine (two vCPUs of a shared x86 host) runs the same
single-threaded Python up to a third slower for periods of tens of
seconds to minutes, in wall and in process CPU time alike.  Short passes
give each run several samples, but such periods can cover whole runs,
so over ten runs the spread of ``wall_s`` (interquartile range over
median) was 8-13 % there.  Hence the widest allowed bound on ``wall_s``.
Every pass time is kept in the run manifest.
"""

from __future__ import annotations

RUN_SECONDS = 35
SETUP_REPEATS = 5

# ``run`` and ``verify`` use the interval model at half the default
# resolution, where one audit battery takes about 3 s instead of 6 s.
RESOLUTION = 512
MODES = 32

# ``run`` keeps the structure of the default sweep (all six n values, so
# every (m, l, k) partition is rebuilt six times; both lambdas; the
# default 15-vector battery; a graph export; the full audit battery) on
# a 96-point grid: the sweep takes about half of a pass and the audit
# battery, which ``verify`` also measures, about a third, while three
# passes still fit in a run.
RUN_CONFIG = {
    "schema": 1,
    "model": "neumann",
    "resolution": RESOLUTION,
    "modes": MODES,
    "grid": {"n": [2, 4, 6, 8, 10, 12], "m": [2, 4, 8, 16], "l": [2, 4], "k": [2, 8]},
    "lambdas": [1.0, 2.0],
    "graph_exports": [[6, 8, 4, 2]],
}
VERIFY_CONFIG = {"schema": 1, "model": "neumann", "resolution": RESOLUTION, "modes": MODES}
VERIFY_AUDITS = 58

# A deep graph of the default model: 512 vertices, about 11 MB of JSON,
# edge-list and vertex files, and a share of the conductances at or
# below EDGE_EPS, so the writers' edge filter is exercised.
EXPORT_INDEX = (10, 16, 2, 8)
EXPORT_RESOLUTION = 1024
EXPORT_MODES = 64

WORKLOADS = {
    "run": (
        "mosco-graphs run: 96-point sweep over all six n at resolution 512 (about 1/2 of a "
        "pass), graph export and 58 audits (about 1/3); partition build and restrict dominate"
    ),
    "export-roundtrip": (
        "mosco-graphs export-graph of the (10,16,2,8) graph of the default model, then both "
        "readers in a fresh process; serialization dominates, no sweep or audits"
    ),
    "verify": (
        "mosco-graphs verify: the 58 audits at resolution 512; audit families dominate, "
        "no sweep and no export"
    ),
}

# name -> (unit, better, bound, description)
END_TO_END = {
    "wall_s": (
        "s",
        "lower",
        0.25,
        "median over passes of spawn to exit of the workload's processes "
        "(export-roundtrip: the export command plus the read-back process)",
    ),
    "setup_s": (
        "s",
        "lower",
        0.25,
        "median over fresh processes of importing mosco_graphs and building what the "
        "command needs before its first unit of work",
    ),
    "peak_rss_mb": (
        "MB",
        "lower",
        0.1,
        "median over passes of the largest peak RSS among the pass's processes",
    ),
}

ALL_WORKLOADS = tuple(WORKLOADS)

# The audit families that audit_suite calls.
AUDIT_FAMILIES = (
    "kernel_validity",
    "semigroup_contraction",
    "markov_range",
    "semigroup_law",
    "time_monotonicity",
    "energy_exhaustion",
    "conditioning",
    "projection_composition",
    "stage_bounds",
    "resolvent_contraction",
    "resolvent_identity",
    "form_generator_consistency",
    "tail_mass",
    "cell_oscillation",
    "partition_refinement",
    "extraction_tower",
    "identification",
    "extraction_symmetry",
    "rejects_asymmetry",
    "unit_contraction",
    "normal_contraction",
)


def _layer(unit, better, moves, note=""):
    return {"unit": unit, "better": better, "moves": moves, "note": note}


_RUN_VERIFY = [("wall_s", "run"), ("wall_s", "verify")]
_EXPORTING = [("wall_s", "export-roundtrip"), ("peak_rss_mb", "export-roundtrip"),
              ("wall_s", "run"), ("peak_rss_mb", "run")]
_READING = [("wall_s", "export-roundtrip")]

# name -> {unit, better, moves: [(end-to-end metric, workload)], note}
PER_LAYER = {
    "measure.restrict_s": _layer("s", "lower", _RUN_VERIFY, "should not move export-roundtrip"),
    "measure.restrict_calls": _layer("count", "lower", _RUN_VERIFY),
    "measure.cells_in": _layer("count", "lower", _RUN_VERIFY),
    "measure.cells_out": _layer("count", "lower", _RUN_VERIFY),
    "measure.restrict_kept_ratio": _layer("ratio", "higher", _RUN_VERIFY, "cells_out / cells_in"),
    "measure.restrict_distinct_ratio": _layer(
        "ratio", "higher", _RUN_VERIFY, "distinct (partition, index set) / calls"
    ),
    "measure.condition_s": _layer("s", "lower", _RUN_VERIFY),
    "pipeline.level_partition_s": _layer("s", "lower", _RUN_VERIFY, "mostly run"),
    "pipeline.level_partition_calls": _layer("count", "lower", _RUN_VERIFY),
    "pipeline.level_partition_distinct_ratio": _layer(
        "ratio", "higher", _RUN_VERIFY, "distinct (basis rows, k) / calls"
    ),
    "pipeline.cells": _layer("count", "lower", _RUN_VERIFY, "cells built by level_partition"),
    "pipeline.stage_self_s": _layer("s", "lower", _RUN_VERIFY, "Stage construction minus traced children"),
    "pipeline.stage_calls": _layer("count", "lower", _RUN_VERIFY),
    "pipeline.stage_p50_ms": _layer("ms", "lower", _RUN_VERIFY),
    "pipeline.stage_p98_ms": _layer("ms", "lower", _RUN_VERIFY),
    "convergence.sweep_s": _layer("s", "lower", [("wall_s", "run")], "wall time of the call"),
    "convergence.sweep_self_s": _layer("s", "lower", [("wall_s", "run")]),
    "convergence.solve_s": _layer(
        "s", "lower", [("wall_s", "run")], "scipy.linalg.solve as seen from convergence"
    ),
    "convergence.solve_calls": _layer("count", "lower", [("wall_s", "run")]),
    "convergence.records": _layer("count", "higher", [("wall_s", "run")], "records returned by the sweep"),
    "models.build_s": _layer(
        "s",
        "lower",
        [("setup_s", w) for w in ALL_WORKLOADS],
        "get_model and builtin_models",
    ),
    "models.exact_resolvent_s": _layer("s", "lower", [("wall_s", "run")]),
    "models.exact_resolvent_calls": _layer("count", "lower", [("wall_s", "run")]),
    "models.exact_form_s": _layer("s", "lower", [("wall_s", "run")]),
    "models.exact_form_calls": _layer("count", "lower", [("wall_s", "run")]),
    "models.apply_semigroup_s": _layer(
        "s", "lower", [("wall_s", "export-roundtrip"), ("wall_s", "verify")]
    ),
    "graphs.extract_s": _layer("s", "lower", _EXPORTING),
    "graphs.write_json_s": _layer("s", "lower", _EXPORTING),
    "graphs.write_edges_s": _layer("s", "lower", _EXPORTING),
    "graphs.read_json_s": _layer("s", "lower", _READING, "in the read-back process"),
    "graphs.read_edges_s": _layer("s", "lower", _READING, "in the read-back process"),
    "graphs.bytes_written": _layer("bytes", "lower", _EXPORTING),
    "graphs.edges": _layer("count", "lower", _EXPORTING, "edges kept in written graphs"),
    "graphs.edge_density": _layer("ratio", "lower", _EXPORTING, "kept / upper-triangle pairs"),
    "graphs.edges_below_eps": _layer(
        "count", "lower", _EXPORTING, "nonzero conductances dropped at or below EDGE_EPS"
    ),
    "graphs.energy_s": _layer("s", "lower", [("wall_s", "verify")]),
    "graphs.energy_calls": _layer("count", "lower", [("wall_s", "verify")]),
    **{
        f"audits.{family}_s": _layer("s", "lower", _RUN_VERIFY)
        for family in AUDIT_FAMILIES
    },
    "audits.total_s": _layer("s", "lower", _RUN_VERIFY, "audit_suite"),
    "audits.failed": _layer("count", "lower", _RUN_VERIFY),
    "cli.self_s": _layer(
        "s", "lower", [("wall_s", "run")], "CLI time outside traced calls: mostly CSV formatting"
    ),
    "cli.csv_bytes": _layer("bytes", "lower", [("wall_s", "run")]),
    "trace.overhead_ratio": _layer(
        "ratio",
        "lower",
        [("wall_s", w) for w in ALL_WORKLOADS],
        "traced / untraced wall_s; how far traced per-layer times are inflated",
    ),
}


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": spec["unit"], "better": spec["better"]}
            for name, spec in PER_LAYER.items()
        ],
    }
