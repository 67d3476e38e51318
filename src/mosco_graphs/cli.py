"""Experiment runner.

Three subcommands share one config surface:

``run``
    Execute the sweep, write ``convergence.csv``, export the configured
    graphs, run the audit battery, and write ``audits.json``.
``verify``
    Run the audit battery alone and print one line per audit.
``export-graph``
    Write the configured (or explicitly requested) stage graphs, in both
    the structured and the plain-text edge-list format.

Outputs are deterministic for a fixed config and seed: records are
sorted before writing, floats are printed with 17 significant digits,
and no wall-clock time is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .audits import AUDIT_MODES, audit_suite
from .config import ExperimentConfig, _stage_index, default_config, load_config
from .convergence import MOSCO_PROXY_NOTE, _check_battery, default_test_battery, iterated_limit_sweep
from .errors import ConfigError, SolverError
from .graphs import final_stage_graph, write_edge_list, write_graph_json
from .measure import OrthonormalBasis
from .models import (
    MarkovKernelModel,
    SpectralModel,
    builtin_models,
    get_model,
)
from .pipeline import StageIndex

EXIT_OK = 0
EXIT_AUDIT_FAILURE = 1
EXIT_CONFIG_ERROR = 2

# ``wall_ms`` is always 0; the column stays so the CSV layout does not change.
# A disabled index leaves its column blank.
CSV_HEADER = "n,m,l,k,lambda,test_vector,resolvent_error,form_value,exact_form,wall_ms"
CSV_ROW = "%s,%s,%s,%s,%.17g,%s,%.17g,%.17g,%.17g,0\n"


def _load(args, audited: bool = True) -> ExperimentConfig:
    """The config of a command; one that runs the audit battery needs its modes."""
    config = load_config(args.config) if args.config else default_config()
    overrides = {"out_dir": args.out, "seed": args.seed}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    if audited and config.modes < AUDIT_MODES:
        raise ConfigError(f"modes: {config.modes} is below the audit battery's minimum {AUDIT_MODES}")
    return config


def _out_dir(config: ExperimentConfig, names) -> Path:
    """The output directory, made if missing; refused if the path cannot be
    one, or if one of the artifact ``names`` in it exists and is not a file."""
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir: cannot create directory {out}: {exc.strerror}") from None
    for name in names:
        if (out / name).exists() and not (out / name).is_file():
            raise ConfigError(f"out_dir: {out / name} exists and is not a regular file")
    return out


def _write(write, *paths: Path) -> None:
    """Call ``write`` with a temporary path beside each of ``paths``, then
    move each into place, so no artifact is ever left half written.

    An OSError is a ConfigError naming the artifacts; the temporaries go.
    """
    temps = [path.with_name(f".{path.name}.tmp") for path in paths]
    try:
        write(*temps)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except OSError as exc:
        names = ", ".join(map(str, paths))
        raise ConfigError(f"out_dir: cannot write {names}: {exc.strerror}") from None
    finally:
        for temp in temps:
            if temp.is_file():
                temp.unlink()


def _too_large(config: ExperimentConfig) -> ConfigError:
    return ConfigError(f"resolution: {config.resolution} sites do not fit in memory")


def _build_model(config: ExperimentConfig) -> SpectralModel:
    try:
        return get_model(config.model, config.resolution, config.modes)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"model: {exc}") from None
    except MemoryError:
        raise _too_large(config) from None


def _check_indices(field: str, indices, model: SpectralModel, basis: OrthonormalBasis) -> None:
    for ix in indices:
        try:
            ix.validate_for(model, basis)
        except ValueError as exc:
            raise ConfigError(f"{field}: {ix.label()}: {exc}") from None


def _build_basis(config: ExperimentConfig, model: SpectralModel) -> OrthonormalBasis:
    if config.basis == "haar":
        return OrthonormalBasis.haar(model.space, model.n_modes)
    return model.basis


def _battery(config: ExperimentConfig, model: SpectralModel, basis: OrthonormalBasis):
    rng = np.random.default_rng(config.seed)
    try:
        battery = default_test_battery(model, basis, rng, **asdict(config.test_vectors))
        _check_battery(battery)
    except ValueError as exc:
        raise ConfigError(f"test_vectors: {exc}") from None
    return battery


def _write_csv(records, path: Path) -> None:
    """The header, then one row per record, sorted by stage, lambda and vector."""
    rows = sorted(
        (
            r.index.n,
            *("" if i is None else i for i in (r.index.m, r.index.l, r.index.k)),
            r.lam, r.vector_name, r.resolvent_error, r.form_value, r.exact_form,
        )
        for r in records
    )
    text = CSV_HEADER + "\n" + "".join(CSV_ROW % row for row in rows)
    _write(lambda temp: temp.write_text(text), path)


def _graph_names(ix: StageIndex, edge_lists: bool) -> list[str]:
    """The files of one graph export: the JSON, then the edge-list pair."""
    suffixes = (".json", ".edges.txt", ".vertices.txt") if edge_lists else (".json",)
    return [f"graph_{ix.label()}{suffix}" for suffix in suffixes]


def _export_graphs(config: ExperimentConfig, model, basis, out: Path, edge_lists: bool):
    written = []
    for ix in config.graph_exports:
        try:
            graph = final_stage_graph(model, basis, ix)
        except ValueError as exc:
            # Deep time indices can push the truncated kernel past the
            # positivity clamp; surface that as a usage error, not a crash.
            raise ConfigError(f"graph_exports: {ix.label()}: {exc}") from None
        json_path, *pair = [out / name for name in _graph_names(ix, edge_lists)]
        # The writers are called positionally with the temporary paths,
        # which hold the files when they return.
        _write(lambda temp: write_graph_json(graph, temp), json_path)
        if pair:
            _write(lambda edges, vertices: write_edge_list(graph, edges, vertices), *pair)
        written += [json_path, *pair]
    return written


def _run_audits(config: ExperimentConfig, inject_asymmetry: bool = False):
    try:
        zoo = builtin_models(config.resolution, config.modes, seed=config.seed)
    except MemoryError:
        raise _too_large(config) from None
    spectral = [m for m in zoo if isinstance(m, SpectralModel)]
    kernels = [m for m in zoo if isinstance(m, MarkovKernelModel)]
    rng = np.random.default_rng(config.seed)
    return audit_suite(
        spectral,
        kernels,
        lambda model: _build_basis(config, model),
        rng,
        inject_asymmetry=inject_asymmetry,
    )


def _audits_json(results) -> str:
    payload = {
        "schema": 1,
        "all_passed": all(r.passed for r in results),
        "proxy_note": MOSCO_PROXY_NOTE,
        "audits": [asdict(r) for r in results],
    }
    return json.dumps(payload, indent=1) + "\n"


def _report(results, shown) -> int:
    """Print the ``shown`` audit lines and the verdict; return the exit code."""
    for r in shown:
        print(r.line())
    failed = sum(not r.passed for r in results)
    if failed:
        print(f"{failed} audit(s) failed")
        return EXIT_AUDIT_FAILURE
    print(f"all {len(results)} audits passed")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _load(args)
    model = _build_model(config)
    basis = _build_basis(config, model)
    grid = config.sweep_grid()
    _check_indices("grid", grid.indices(), model, basis)
    _check_indices("graph_exports", config.graph_exports, model, basis)
    battery = _battery(config, model, basis)
    graphs = [name for ix in config.graph_exports for name in _graph_names(ix, False)]
    out = _out_dir(config, ["convergence.csv", *graphs, "audits.json"])

    try:
        records = iterated_limit_sweep(model, basis, grid, battery, lambdas=config.lambdas)
    except (ValueError, SolverError) as exc:
        # A stage that fails its NSD or residual guard: the sweep names
        # the stage, and this is a usage error.
        raise ConfigError(f"grid: {exc}") from None
    csv_path = out / "convergence.csv"
    _write_csv(records, csv_path)
    print(f"wrote {csv_path} ({len(records)} records)")

    for path in _export_graphs(config, model, basis, out, edge_lists=False):
        print(f"wrote {path}")

    results = _run_audits(config)
    audits_path = out / "audits.json"
    _write(lambda temp: temp.write_text(_audits_json(results)), audits_path)
    print(f"wrote {audits_path}")
    return _report(results, [r for r in results if not r.passed])


def cmd_verify(args) -> int:
    config = _load(args)
    results = _run_audits(config, inject_asymmetry=args.inject_asymmetry)
    return _report(results, results)


def cmd_export_graph(args) -> int:
    config = _load(args, audited=False)
    if args.index:
        try:
            parts = [int(p) for p in args.index.split(",")]
        except ValueError:
            raise ConfigError(f"--index: expected n,m,l,k integers, got {args.index!r}")
        config = replace(config, graph_exports=(_stage_index(parts, "--index"),))
    model = _build_model(config)
    basis = _build_basis(config, model)
    _check_indices("graph_exports", config.graph_exports, model, basis)
    out = _out_dir(config, [name for ix in config.graph_exports for name in _graph_names(ix, True)])
    for path in _export_graphs(config, model, basis, out, edge_lists=True):
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mosco-graphs",
        description="Finite-graph approximation experiments for symmetric Markov semigroups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="JSON config file (defaults built in)")
        p.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, metavar="N", help="random seed (overrides config)")

    p_run = sub.add_parser("run", help="sweep, export graphs, audit, write artifacts")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run the audit battery and report per audit")
    common(p_verify)
    p_verify.add_argument(
        "--inject-asymmetry",
        action="store_true",
        help="corrupt one audit kernel to demonstrate a failing audit",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser("export-graph", help="write stage graphs without a sweep")
    common(p_export)
    p_export.add_argument(
        "--index",
        metavar="N,M,L,K",
        help="export a single stage index instead of the configured list",
    )
    p_export.set_defaults(func=cmd_export_graph)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
