"""Self-tests of the benchmark.

    python3 -m pytest perfbench/selftest.py

The declarations must satisfy the benchmark format; every output check
must reject a broken output (negative controls); tracing must leave the
outputs byte-identical and survive wrap points that no longer exist.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import report  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 5


# -- declarations ---------------------------------------------------------------


def test_metric_names_match_the_pattern_and_carry_a_unit():
    declared = [(name, unit) for name, (unit, *_r) in spec.END_TO_END.items()]
    declared += [(name, layer["unit"]) for name, layer in spec.PER_LAYER.items()]
    names = [name for name, _ in declared]
    assert len(names) == len(set(names))
    for name, unit in declared:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


def test_every_per_layer_metric_names_what_it_should_move():
    for name, layer in spec.PER_LAYER.items():
        assert layer["moves"], name
        for metric, workload in layer["moves"]:
            assert metric in spec.END_TO_END, (name, metric)
            assert workload in spec.WORKLOADS, (name, workload)
        assert layer["better"] in ("higher", "lower"), name


def test_metric_and_workload_counts_stay_within_limits():
    assert 1 <= len(spec.END_TO_END) <= 5
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert 2 <= len(spec.WORKLOADS) <= 8
    for name, why in spec.WORKLOADS.items():
        assert NAME.fullmatch(name) and "\n" not in why and len(why) <= 200, name
    bounds = {name: bound for name, (_u, _b, bound, _d) in spec.END_TO_END.items()}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert spec.END_TO_END["setup_s"][:2] == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


def test_checked_in_files_match_the_declarations():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
    assert (HERE / "METRICS.md").read_text() == report.metrics_markdown()


def test_every_per_layer_metric_is_computed_from_spans():
    empty = {"spans": [], "counts": {}, "distinct": {}, "missing": []}
    values = layers.summarize([empty])
    assert set(values) | {"trace.overhead_ratio"} == set(spec.PER_LAYER)
    assert all(value == 0 for value in values.values())


def test_every_metric_from_spans_is_tied_to_a_wrap_point():
    """With every wrap point missing, only counters taken outside the program remain."""
    dump = {"spans": [], "counts": {}, "distinct": {},
            "missing": [point for point, _span, _observe in tracer.WRAP_POINTS]}
    values = layers.summarize([dump], {"cli.csv_bytes": 1})
    assert {name for name, value in values.items() if value is not None} == {"cli.csv_bytes"}


def test_the_baseline_has_every_metric_of_every_workload():
    baseline = json.loads(report.BASELINE.read_text())
    assert baseline["description"]
    for workload in spec.WORKLOADS:
        entry = baseline["workloads"][workload]
        assert set(entry["end_to_end"]) == set(spec.END_TO_END), workload
        assert set(entry["per_layer"]) == set(spec.PER_LAYER), workload


def test_audit_families_are_the_ones_the_suite_calls():
    source = (ROOT / "src" / "mosco_graphs" / "audits.py").read_text()
    body = source[source.index("def audit_suite(") :]
    body = body[: body.index("\ndef ", 1)]
    called = set(re.findall(r"\baudit_(\w+)\(", body)) - {"suite"}
    assert called == set(spec.AUDIT_FAMILIES)


# -- tracing ----------------------------------------------------------------------


def test_a_missing_wrap_point_is_reported_and_does_not_break_the_program():
    """As after a refactor: ``CellPartition.restrict`` is gone, an observer is stale."""
    from mosco_graphs import Stage, StageIndex, measure, neumann_model, pipeline

    def stale_observer(*_args):
        raise RuntimeError("observer out of date")

    points = [
        ("measure:CellPartition.restrict", "measure.restrict", None),
        ("no_such_module:anything", "nothing", None),
        ("pipeline:level_partition", "pipeline.level_partition", stale_observer),
        ("pipeline:Stage.__init__", "pipeline.stage", None),
    ]
    model = neumann_model(64, 8)
    index = StageIndex(2, 4, 2)  # no partition, so no restrict needed
    expected = Stage(model, model.basis, index).form_data.matrix
    expected_cells = pipeline.level_partition(model.basis, 4, 2).n_cells

    recorder = tracer.Tracer()
    saved = [(module, dict(vars(module))) for module in tracer._package_modules()]
    saved_init, saved_restrict = Stage.__init__, measure.CellPartition.restrict
    del measure.CellPartition.restrict
    try:
        tracer.install(recorder, points)
        got = Stage(model, model.basis, index).form_data.matrix
        got_cells = pipeline.level_partition(model.basis, 4, 2).n_cells
    finally:
        Stage.__init__, measure.CellPartition.restrict = saved_init, saved_restrict
        for module, attributes in saved:
            for name, value in attributes.items():
                setattr(module, name, value)
    assert np.array_equal(got, expected) and got_cells == expected_cells
    assert set(recorder.missing) == {
        "measure:CellPartition.restrict",
        "no_such_module:anything",
        "pipeline:level_partition",
    }
    dump = {"spans": recorder.spans, "counts": recorder.counts, "distinct": {},
            "missing": recorder.missing}
    values = layers.summarize([json.loads(json.dumps(dump))])
    assert values["measure.restrict_s"] is None
    assert values["measure.restrict_kept_ratio"] is None
    assert values["pipeline.level_partition_calls"] is None
    assert values["pipeline.stage_calls"] == 1
    assert values["graphs.extract_s"] == 0


# -- passes, output checks and their negative controls ---------------------------


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One untraced and one traced pass of every workload."""
    out = {}
    for workload in spec.WORKLOADS:
        for traced in (False, True):
            workdir = tmp_path_factory.mktemp(f"{workload}-{int(traced)}")
            out[workload, traced] = workloads.run_pass(workload, ROOT, workdir, SEED, traced)
    return out


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_and_untraced_outputs_are_identical_and_pass_the_checks(passes, workload):
    plain, traced = passes[workload, False], passes[workload, True]
    assert plain.digest == traced.digest
    assert workloads.check_pass(workload, ROOT, plain, SEED) == []
    assert workloads.check_pass(workload, ROOT, traced, SEED) == []
    assert traced.dumps and not any(d["missing"] for d in traced.dumps)


def test_run_check_rejects_a_csv_from_another_seed(passes):
    result = passes["run", False]
    assert checks.check_run(ROOT, result.out_dir, SEED + 1, 0)


def _perturb_export(src, dst, in_edge_list):
    """Copy an export with its largest off-diagonal conductance scaled by 1.01."""
    shutil.copytree(src, dst)
    label = checks._label(spec.EXPORT_INDEX)
    path = dst / f"graph_{label}.json"
    data = json.loads(path.read_text())
    edge = max((e for e in data["edges"] if e["i"] != e["j"]), key=lambda e: e["c"])
    old = edge["c"]
    edge["c"] = old * 1.01
    path.write_text(json.dumps(data, indent=1) + "\n")
    if in_edge_list:
        edges = dst / f"graph_{label}.edges.txt"
        text = edges.read_text()
        row = f"{edge['i']} {edge['j']} {old:.17g}\n"
        assert row in text
        edges.write_text(text.replace(row, f"{edge['i']} {edge['j']} {edge['c']:.17g}\n"))


@pytest.mark.parametrize("in_edge_list", [False, True])
def test_export_check_rejects_one_perturbed_conductance(passes, tmp_path, in_edge_list):
    result = passes["export-roundtrip", False]
    broken = tmp_path / "broken"
    _perturb_export(result.out_dir, broken, in_edge_list)
    problems = checks.check_export(ROOT, broken, SEED, 0)
    assert problems
    if in_edge_list:  # both readers agree, so the energy oracle must catch it
        assert any("energy" in p for p in problems)


def test_verify_check_rejects_an_injected_asymmetry(tmp_path):
    proc = workloads.spawn(
        [sys.executable, "-m", "mosco_graphs.cli", "verify", "--seed", str(SEED),
         "--inject-asymmetry"],
        ROOT, tmp_path, "verify",
    )
    assert proc.returncode != 0
    assert checks.check_verify(proc.stdout, proc.returncode)
    assert checks.check_verify(proc.stdout, 0)  # the [FAIL] line alone is enough
