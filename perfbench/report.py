"""Run every workload once untraced and once traced, and print every metric.

    python3 perfbench/report.py

Runs each workload for ``spec.RUN_SECONDS`` with seed ``REPORT_SEED``,
prints each end-to-end and per-layer metric by name with its unit, and
the outcome of the output checks; exits 1 if any check failed.  Then
rewrites ``BENCHMARK.json`` and ``perfbench/METRICS.md`` from the
declarations in ``spec.py``.

    python3 perfbench/report.py --baseline-from .bench_results

runs nothing: it rebuilds ``perfbench/baseline.json`` from the result
files and manifests that ``run.py`` left in a directory (per workload,
the median and quartiles of each end-to-end metric over the untraced
runs, and the median of each per-layer metric over the traced runs),
then rewrites the two files as above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
REPORT_SEED = 1


def _fmt(value):
    return "missing" if value is None else f"{value:.6g}"


def metrics_markdown():
    """The text of METRICS.md: workloads, metrics and the layer map."""
    out = [
        "# Benchmark metrics",
        "",
        "Generated by `python3 perfbench/report.py` from `perfbench/spec.py`;",
        "do not edit by hand.",
        "",
        "## Workloads",
        "",
    ]
    out += [f"- `{name}`: {why}" for name, why in spec.WORKLOADS.items()]
    out += ["", "## End-to-end metrics (`--trace 0`)", "",
            "| metric | unit | better | bound | meaning |", "|---|---|---|---|---|"]
    out += [
        f"| `{name}` | {unit} | {better} | {bound} | {meaning} |"
        for name, (unit, better, bound, meaning) in spec.END_TO_END.items()
    ]
    out += ["", "## Per-layer metrics (`--trace 1`)", "",
            "Each metric names the end-to-end metric and workload it should move.", "",
            "| metric | unit | better | should move | note |", "|---|---|---|---|---|"]
    for name, layer in spec.PER_LAYER.items():
        moves = ", ".join(f"`{metric}` on `{workload}`" for metric, workload in layer["moves"])
        out.append(f"| `{name}` | {layer['unit']} | {layer['better']} | {moves} | {layer['note']} |")
    out += ["", "## Baseline", "",
            "Measured by this benchmark at the seed commit: `perfbench/baseline.json`, "
            "written by `python3 perfbench/report.py --baseline-from DIR`."]
    return "\n".join(out).rstrip("\n") + "\n"


def _describe(manifests):
    """Where and how the runs in ``manifests`` were measured, in one sentence."""

    def values(key, trace=None):
        found = {str(m[key]) for m in manifests if trace is None or m["trace"] == trace}
        return ", ".join(sorted(found, key=lambda v: (len(v), v))) or "none"

    return (
        f"Measured by this benchmark at commit {values('git_commit')} on nproc "
        f"{values('nproc')}, Python {values('python')}, numpy {values('numpy')}, scipy "
        f"{values('scipy')}, OpenBLAS {values('openblas')}, {values('seconds')} s per run; "
        f"untraced seeds {values('seed', 0)}, traced seeds {values('seed', 1)}."
    )


def baseline_from(directory):
    by_workload, manifests = {}, []
    for path in sorted(Path(directory).glob("*.result.json")):
        manifest = json.loads(path.with_name(path.name.replace(".result", ".manifest")).read_text())
        manifests.append(manifest)
        result = json.loads(path.read_text())
        entry = by_workload.setdefault(manifest["workload"], {0: [], 1: []})
        entry[manifest["trace"]].append(result["metrics"])

    def stats(runs, name):
        values = [r[name]["value"] for r in runs if r[name]["value"] is not None]
        if not values:
            return {"unit": runs[0][name]["unit"], "median": None, "q1": None, "q3": None,
                    "runs": 0}
        q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
        return {"unit": runs[0][name]["unit"], "median": statistics.median(values),
                "q1": q1, "q3": q3, "runs": len(values)}

    return {
        "description": _describe(manifests),
        "workloads": {
            workload: {
                "end_to_end": {n: stats(runs[0], n) for n in spec.END_TO_END} if runs[0] else {},
                "per_layer": {
                    n: {k: v for k, v in stats(runs[1], n).items() if k in ("unit", "median")}
                    for n in spec.PER_LAYER
                } if runs[1] else {},
            }
            for workload, runs in by_workload.items()
        },
    }


def write_files():
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    (HERE / "METRICS.md").write_text(metrics_markdown())
    print("wrote BENCHMARK.json and perfbench/METRICS.md")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline-from", metavar="DIR")
    args = parser.parse_args(argv)

    if args.baseline_from:
        data = baseline_from(args.baseline_from)
        BASELINE.write_text(json.dumps(data, indent=1) + "\n")
        write_files()
        return 0

    failed = False
    for workload in spec.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(REPORT_SEED), "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                failed = True
                continue
            result = json.loads(lines[-1])
            failed |= not result["correct"]
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:42s} {_fmt(metric['value']):>12s} {metric['unit']}")

    write_files()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
