"""Output checks, each against a computation that does not use the package.

Every check returns a list of problems; an empty list is a pass.  The
reference values come from ``tests/oracles.py`` (a plain-numpy
reimplementation of the interval model and the deepest stage) or are
computed here from its eigensystem.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
from pathlib import Path

import numpy as np

import spec

CSV_HEADER = "n,m,l,k,lambda,test_vector,resolvent_error,form_value,exact_form,wall_ms"
BATTERY = (
    [f"basis_{j}" for j in range(1, 9)]
    + [f"span_{s}" for s in range(1, 5)]
    + ["step_1", "step_2", "const"]
)
ORACLE_SAMPLE = 6
RESOLVENT_RTOL = 1e-9
RESOLVENT_ATOL = 1e-12
ENERGY_RTOL = 1e-10
ENERGY_VECTORS = 20


def load_oracles(root):
    path = Path(root) / "tests" / "oracles.py"
    loader = importlib.util.spec_from_file_location("mosco_graphs_oracles", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def _label(index):
    n, m, l, k = index
    return f"n{n}_m{m}_l{l}_k{k}"


def run_grid():
    grid = spec.RUN_CONFIG["grid"]
    return [
        (n, m, l, k)
        for n in grid["n"]
        for m in grid["m"]
        for l in grid["l"]
        for k in grid["k"]
    ]


def oracle_cells(oracles, resolution, modes, index):
    """Cells of the restricted level-set partition, in the package's vertex order.

    Cells are the joint dyadic windows of the first m eigenfunctions,
    ordered lexicographically by label, intersected with the first l of
    four equal slabs, empty ones dropped.
    """
    _, m, l, k = index
    points, _ = oracles._interval_grid(resolution)
    _, phi = oracles._eigensystem(points, modes)
    values = phi[:m]
    window = 2.0**k
    labels = np.ceil(values * window).astype(np.int64) - 1
    labels = np.where(values <= -window, -(4**k) - 1, labels)
    labels = np.where(values > window, 4**k, labels)
    _, inverse = np.unique(labels.T, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    inside = np.arange(resolution) < math.ceil(resolution * l / 4)
    cells = [np.flatnonzero((inverse == c) & inside) for c in range(inverse.max() + 1)]
    return [c for c in cells if c.size]


def check_run(root, out_dir, seed, returncode, oracles=None):
    problems = []
    out_dir = Path(out_dir)
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    try:
        audits = json.loads((out_dir / "audits.json").read_text())
        if audits.get("all_passed") is not True:
            problems.append("audits.json: all_passed is not true")
        if len(audits.get("audits", [])) != spec.VERIFY_AUDITS:
            problems.append(f"audits.json: {len(audits.get('audits', []))} audits")
        lines = (out_dir / "convergence.csv").read_text().split("\n")
    except (OSError, ValueError) as exc:
        return problems + [f"unreadable output: {exc}"]

    if lines[-1] != "":
        problems.append("convergence.csv: missing final newline")
    header, rows = lines[0], [line.split(",") for line in lines[1:-1]]
    if header != CSV_HEADER:
        problems.append(f"convergence.csv: header {header!r}")
    lambdas = spec.RUN_CONFIG["lambdas"]
    expected = [
        [str(n), str(m), str(l), str(k), f"{lam:.17g}", name]
        for (n, m, l, k) in run_grid()
        for lam in lambdas
        for name in sorted(BATTERY)
    ]
    keys = [row[:6] for row in rows]
    if keys != expected or any(len(row) != 10 for row in rows):
        problems.append(
            f"convergence.csv: {len(rows)} rows, expected {len(expected)} in sorted order"
        )
        return problems
    values = {tuple(row[:6]): row for row in rows}

    oracles = oracles or load_oracles(root)
    resolution, modes = spec.RUN_CONFIG["resolution"], spec.RUN_CONFIG["modes"]
    sample = random.Random(seed).sample(run_grid(), ORACLE_SAMPLE)
    for index in sample:
        for lam in lambdas:
            tau = oracles.deep_stage_tau(
                resolution=resolution, modes=modes, seed=seed, lam_res=lam, index=index
            )
            for name in BATTERY:
                key = (*map(str, index), f"{lam:.17g}", name)
                got, want = float(values[key][6]), tau[name]
                if abs(got - want) > max(RESOLVENT_RTOL * abs(want), RESOLVENT_ATOL):
                    problems.append(
                        f"resolvent_error at {_label(index)} lambda={lam} {name}: "
                        f"{got!r} against oracle {want!r}"
                    )
    for index in spec.RUN_CONFIG["graph_exports"]:
        path = out_dir / f"graph_{_label(index)}.json"
        try:
            vertices = len(json.loads(path.read_text())["vertices"])
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        cells = len(oracle_cells(oracles, resolution, modes, index))
        if vertices != cells:
            problems.append(f"{path.name}: {vertices} vertices, oracle partition has {cells} cells")
    return problems


def _same_graph(a, b):
    return (
        a.scale == b.scale
        and all(
            np.asarray(getattr(a, field)).tobytes() == np.asarray(getattr(b, field)).tobytes()
            for field in ("vertex_weights", "killing", "conductances")
        )
    )


def check_export(root, out_dir, seed, returncode, oracles=None):
    from mosco_graphs.graphs import graph_energy, read_edge_list, read_graph_json

    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    out_dir = Path(out_dir)
    label = _label(spec.EXPORT_INDEX)
    try:
        from_json = read_graph_json(out_dir / f"graph_{label}.json")
        from_edges = read_edge_list(
            out_dir / f"graph_{label}.edges.txt", out_dir / f"graph_{label}.vertices.txt"
        )
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return problems + [f"unreadable export: {exc}"]
    if not _same_graph(from_json, from_edges):
        problems.append("the JSON and edge-list readers disagree")

    oracles = oracles or load_oracles(root)
    resolution, modes = spec.EXPORT_RESOLUTION, spec.EXPORT_MODES
    cells = oracle_cells(oracles, resolution, modes, spec.EXPORT_INDEX)
    if from_json.n_vertices != len(cells):
        return problems + [
            f"{from_json.n_vertices} vertices, oracle partition has {len(cells)} cells"
        ]

    # graph_energy(alpha) = 2^n (||f||^2 - sum_j exp(-lambda_j 2^-n) c_j^2)
    # for the step function f with values alpha on the cells.
    n = spec.EXPORT_INDEX[0]
    points, weights = oracles._interval_grid(resolution)
    lam, phi = oracles._eigensystem(points, modes)
    owner = np.full(resolution, -1)
    for c, idx in enumerate(cells):
        owner[idx] = c
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(ENERGY_VECTORS):
        alpha = rng.standard_normal(len(cells))
        f = np.where(owner >= 0, alpha[owner], 0.0)
        coeff = phi @ (weights * f)
        want = 2.0**n * (np.sum(weights * f * f) - np.sum(np.exp(-lam * 2.0**-n) * coeff**2))
        got = graph_energy(from_json, alpha)
        worst = max(worst, abs(got - want) / abs(want))
    if worst > ENERGY_RTOL:
        problems.append(f"graph energy deviates from the spectral formula by {worst:.2e} relative")
    return problems


def check_verify(stdout, returncode):
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    lines = stdout.splitlines()
    passed = sum(1 for line in lines if line.startswith("[pass] "))
    failed = sum(1 for line in lines if line.startswith("[FAIL] "))
    if passed != spec.VERIFY_AUDITS or failed:
        problems.append(f"{passed} [pass] and {failed} [FAIL] lines, expected {spec.VERIFY_AUDITS} passes")
    return problems
