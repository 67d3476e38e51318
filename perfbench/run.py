"""Benchmark entry point for mosco-graphs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Repeats passes of the workload
(see ``workloads.py``) for about S seconds, checks every pass's outputs,
and prints each metric with its unit, then one JSON line:

    {"correct": ..., "attempted": passes, "failed": failed passes, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over
passes; ``setup_s`` is the median of several fresh processes).  With
``--trace 1`` passes alternate untraced and traced; the metrics are the
per-layer ones, as medians over the traced passes, plus the tracing
overhead.  A traced pass must leave outputs byte-identical to the
untraced ones.

The result and a manifest of the run are also written to
``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402


def _args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_missing():
    needed = [ROOT / "src" / "mosco_graphs" / "cli.py", ROOT / "tests" / "oracles.py"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def measure(workload, seed, seconds, trace, workdir):
    """Run passes for ``seconds``; return (attempted, failed, metrics, details)."""
    oracles = checks.load_oracles(ROOT)
    setup = []
    if not trace:
        setup = [
            workloads.setup_seconds(workload, ROOT, workdir, seed)
            for _ in range(spec.SETUP_REPEATS)
        ]

    # The first pass is checked against the oracles; every later pass,
    # traced or not, must reproduce its outputs byte for byte.
    started = time.perf_counter()
    passes, problems = [], []
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        result = workloads.run_pass(workload, ROOT, workdir, seed, traced)
        if not passes:
            found = workloads.check_pass(workload, ROOT, result, seed, oracles)
        elif result.digest != passes[0][1].digest:
            found = ["outputs differ from the first pass" + (" (traced)" if traced else "")]
        else:
            found = [f"exit code {c}" for c in result.returncodes if c != 0]
        problems.append(found)
        passes.append((traced, result))
        elapsed = time.perf_counter() - started
        enough = not trace or len(passes) >= 2
        if enough and elapsed + result.wall_s > seconds:
            break

    failed = sum(1 for found in problems if found)
    plain = [r for traced, r in passes if not traced]
    if trace:
        traced_runs = [r for traced, r in passes if traced]
        per_pass = [
            layers.summarize(r.dumps, {"cli.csv_bytes": r.csv_bytes}) for r in traced_runs
        ]
        metrics = layers.median_of(per_pass)
        metrics["trace.overhead_ratio"] = statistics.median(
            r.wall_s for r in traced_runs
        ) / statistics.median(r.wall_s for r in plain)
        missing = sorted(
            set().union(*(set(d["missing"]) for r in traced_runs for d in r.dumps))
        )
    else:
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        }
        missing = []
    details = {
        "passes": [
            {"traced": traced, "wall_s": r.wall_s, "rss_mb": r.rss_mb,
             "returncodes": r.returncodes, "problems": found}
            for (traced, r), found in zip(passes, problems)
        ],
        "setup_s": setup,
        "missing_wrap_points": missing,
    }
    return len(passes), failed, metrics, details


def _blas_version():
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        return None


def manifest(args):
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    measured_env = workloads.child_env(ROOT)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_lines": sum(p.read_bytes().count(b"\n") for p in (ROOT / "src").rglob("*.py")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_variables": {name: measured_env.get(name) for name in workloads.THREAD_VARIABLES},
    }


def _metric_units():
    units = {name: unit for name, (unit, *_rest) in spec.END_TO_END.items()}
    units.update({name: layer["unit"] for name, layer in spec.PER_LAYER.items()})
    return units


def main(argv=None):
    args = _args(argv)
    # On SIGTERM, unwind normally: the running pass's process is killed
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    missing = _source_missing()
    if missing:
        print(f"perfbench: not a mosco-graphs checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    # Build: compile the package once so no pass pays for bytecode.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True, stdout=subprocess.DEVNULL,
    )
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        attempted, failed, values, details = measure(
            args.workload, args.seed, args.seconds, args.trace, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = _metric_units()
    names = list(spec.PER_LAYER) if args.trace else list(spec.END_TO_END)
    metrics = {name: {"value": values.get(name), "unit": units[name]} for name in names}
    for found in (p["problems"] for p in details["passes"]):
        for problem in found:
            print(f"check failed: {problem}")
    for name, metric in metrics.items():
        value = "missing" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{args.workload} {name} {value} {metric['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.result.json").write_text(json.dumps(result, indent=1) + "\n")
    info = manifest(args) | details
    (results / f"{stem}.manifest.json").write_text(json.dumps(info, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
