"""Stage generators, resolvents and forms against a dense reference.

The reference spells each stage out on the sites of a small model,
with no code from the library: the interval grid, its exhaustion and
the eigen basis are rebuilt here, the stage projection
Pi = cond o mask o pi_m is an explicit sites x sites matrix, and
I - P_t is assembled from the per-mode factors -expm1(-mu t) plus the
projection onto the span complement, never as I minus a dense P_t,
which cancels at deep n.  Only the haar rows are taken from the library,
as input data.  The stage matrix is then

    A_ij = -2^n <(I - P_t) Pi s_i, Pi s_j>

and the resolvent a dense solve of lambda - A on the subspace plus
f_perp / lambda off it.  The sweep's resolvent errors are checked
against two dense solves on the sites, of lambda - R^T A R W (R the
subspace rows, W the weights) and of lambda - L; the final-stage graph
against 2^n <P_t 1_{A_i}, 1_{A_j}> on cells the reference cuts itself,
with P_t a dense sites x sites matrix.  Bounds are scaled by the
operands, as in the deviation gate.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mosco_graphs import (
    OrthonormalBasis,
    Stage,
    StageIndex,
    final_stage_graph,
    graph_energy,
    neumann_model,
    stage_resolvent,
)
from mosco_graphs.convergence import SweepGrid, TestVector, iterated_limit_sweep
from mosco_graphs.graphs import CLAMP_TOL, KILLING_TOL

MODELS = {(64, 8): neumann_model(64, 8), (128, 16): neumann_model(128, 16)}
HAAR = {key: OrthonormalBasis.haar(model.space, key[1]) for key, model in MODELS.items()}

# Per unit of operand scale: 2^n for the matrix (every image is a
# contraction of a unit vector) and for the form, times ||f||^2 there;
# (1 + 2^n / lambda) ||f|| / lambda for the resolvent, the first-order
# move of (lambda - A)^-1 c under a rounding error of size 2^n in A.
# The largest moves seen on both models and bases over n = 0, 3, ..., 39,
# m, l, k and lambda (7,168 cases) were 3.0e-15, 1.5e-16 and 1.4e-16.
MATRIX_TOL = 1e-13
FORM_TOL = 1e-14
RESOLVENT_TOL = 1e-14
# Per unit of 2^n sqrt(mu_i mu_j), the largest a conductance can be, and
# of 2^n mu_j for a killing weight.  Over 775 extracted graphs of both
# models and bases (n = 0..12 by 3, four m, l 1, 2, 4, k 0..6 by 2) the
# largest moves were 5.6e-16 for both, and 5.1e-17 of 2^n ||f||^2 for
# the graph energy; the sweep's resolvent errors moved by at most
# 3.0e-15 of the resolvent scale over n = 0..18.
GRAPH_TOL = 1e-14


def _interval(size: int):
    return (np.arange(size) + 0.5) / size, np.full(size, 1.0 / size)


def _eigen(points: np.ndarray, modes: int):
    k = np.arange(modes)
    phi = np.cos(np.outer(k * math.pi, points))
    phi[1:] *= math.sqrt(2.0)
    return (k * math.pi) ** 2, phi


def _cells(rows: np.ndarray, k: int, keep: np.ndarray) -> list[list[int]]:
    """The joint level-set cells of ``rows`` inside ``keep``, as site lists.

    A value v lies in window j when j 2^-k < v <= (j + 1) 2^-k; every
    value at or below -2^k shares one overflow window, as does every
    value above 2^k.  Cells come in lexicographic order of their windows.
    """
    top = 4**k
    windows = np.clip(np.ceil(rows * 2.0**k) - 1, -top - 1, top)
    cells: dict[tuple, list[int]] = {}
    for site in np.flatnonzero(keep):
        cells.setdefault(tuple(windows[:, site]), []).append(site)
    return [cells[key] for key in sorted(cells)]


def _conditioning(rows: np.ndarray, weights: np.ndarray, k: int, keep: np.ndarray):
    """Weighted averaging over the cells of ``rows`` inside ``keep``; sites
    outside ``keep`` are sent to zero."""
    average = np.zeros((weights.size, weights.size))
    for sites in _cells(rows, k, keep):
        average[np.ix_(sites, sites)] = weights[sites] / weights[sites].sum()
    return average


def _dense_stage(size: int, modes: int, rows: np.ndarray, index: StageIndex):
    """The stage matrix A, the projection Pi, 2^n (I - P_t) and the
    subspace rows, all dense, for any of the four index families."""
    n, m, l, k = index.n, index.m, index.l, index.k
    points, weights = _interval(size)
    mu, phi = _eigen(points, modes)
    if m is None:
        # The bare semigroup stage lives on the spectral span, unprojected.
        rows, project = phi, np.eye(size)
    else:
        rows = rows[:m]
        keep = np.arange(size) < math.ceil(size * (4 if l is None else l) / 4)
        project = keep[:, None] * (rows.T @ rows * weights)
        if k is not None:
            project = _conditioning(rows, weights, k, keep) @ project
    on_span = (phi.T * -np.expm1(-mu * 2.0**-n)) @ phi * weights
    off_span = np.eye(size) - phi.T @ phi * weights
    energy = 2.0**n * (on_span + off_span)
    images = project @ rows.T
    return -(images.T * weights) @ energy @ images, project, energy, rows


@st.composite
def stage_cases(draw):
    size, modes = draw(st.sampled_from(sorted(MODELS)))
    basis = draw(st.sampled_from(["eigen", "haar"]))
    index = StageIndex(
        draw(st.integers(0, 40)),
        draw(st.integers(1, modes)),
        draw(st.integers(1, 4)),
        draw(st.integers(0, 8)),
    )
    lam = draw(st.sampled_from([0.25, 1.0, 4.0]))
    return (size, modes), basis, index, lam, draw(st.integers(0, 2**32 - 1))


class TestDenseReference:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=stage_cases())
    @example(case=((128, 16), "haar", StageIndex(40, 16, 4, 8), 0.25, 0))
    @example(case=((64, 8), "eigen", StageIndex(40, 8, 4, 3), 1.0, 1))
    @example(case=((128, 16), "eigen", StageIndex(0, 16, 1, 0), 4.0, 2))
    # Deep stages that guards absolute in 1e-9 refused for their rounding alone.
    @example(case=((128, 16), "eigen", StageIndex(32, 16, 2, 8), 1.0, 3))
    @example(case=((128, 16), "eigen", StageIndex(30, 8, 2, 4), 1.0, 4))
    def test_stage_matches_the_dense_reference(self, case):
        key, basis_name, index, lam, seed = case
        size, modes = key
        model = MODELS[key]
        basis = model.basis if basis_name == "eigen" else HAAR[key]
        points, weights = _interval(size)
        rows = _eigen(points, modes)[1] if basis_name == "eigen" else HAAR[key].vectors
        matrix, project, energy, rows = _dense_stage(size, modes, rows, index)
        f = np.random.default_rng(seed).standard_normal((3, size))
        f_norm = np.sqrt((f * f * weights).sum(axis=1))

        stage = Stage(model, basis, index)
        scale = 2.0**index.n
        assert np.max(np.abs(stage.form_data.matrix - matrix)) <= MATRIX_TOL * scale

        g = f @ project.T
        form = ((g @ energy.T) * g * weights).sum(axis=1)
        assert np.all(np.abs(stage.form(f) - form) <= FORM_TOL * scale * f_norm**2)

        got = stage_resolvent(stage.form_data, lam, f)
        c = (f * weights) @ rows.T
        u = np.linalg.solve(lam * np.eye(index.m) - matrix, c.T).T
        want = u @ rows + (f - c @ rows) / lam
        moved = np.sqrt(((got - want) ** 2 * weights).sum(axis=1))
        assert np.all(moved <= RESOLVENT_TOL * (1 + scale / lam) * f_norm / lam)


@pytest.mark.parametrize("key", sorted(MODELS))
def test_reference_eigen_basis_is_the_models(key):
    # The level-set cells are cut on the basis values, so the reference
    # must see the very same bits as the library, or a site sitting on a
    # window edge could change cell.
    points, _ = _interval(key[0])
    mu, phi = _eigen(points, key[1])
    assert np.array_equal(phi, MODELS[key].basis.vectors)
    assert np.array_equal(mu, MODELS[key].eigenvalues)


def _rows(key, basis_name: str) -> np.ndarray:
    points, _ = _interval(key[0])
    return _eigen(points, key[1])[1] if basis_name == "eigen" else HAAR[key].vectors


def _norm(f: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return np.sqrt((f * f * weights).sum(axis=-1))


# One grid per index family, each with the shallow and the deep end of the
# levels the guards leave alone, for both models and both bases.
SWEEPS = [
    SweepGrid(n=(0, 5, 13)),
    SweepGrid(n=(1, 9), m=(3, 8)),
    SweepGrid(n=(2, 12), m=(1, 8), l=(1, 3)),
    SweepGrid(n=(0, 6, 12), m=(2, 8), l=(2, 4), k=(0, 3)),
]


@pytest.mark.parametrize("basis_name", ["eigen", "haar"])
@pytest.mark.parametrize("key", sorted(MODELS))
def test_sweep_resolvent_errors_match_dense_solves(key, basis_name):
    size, modes = key
    model = MODELS[key]
    basis = model.basis if basis_name == "eigen" else HAAR[key]
    points, weights = _interval(size)
    mu, phi = _eigen(points, modes)
    battery = [
        TestVector(f"f{i}", f)
        for i, f in enumerate(np.random.default_rng(size).standard_normal((3, size)))
    ]
    f = np.stack([vec.values for vec in battery])
    f_norm = dict(zip((vec.name for vec in battery), _norm(f, weights)))
    lambdas = (0.25, 4.0)
    # (lambda - L) f = lambda f + Phi^T diag(mu) Phi W f, with L zero off the span.
    exact = {
        lam: np.linalg.solve(lam * np.eye(size) + (phi.T * mu) @ phi * weights, f.T).T
        for lam in lambdas
    }
    for grid in SWEEPS:
        records = iterated_limit_sweep(model, basis, grid, battery, lambdas=lambdas)
        assert len(records) == len(grid.indices()) * len(lambdas) * len(battery)
        for index in grid.indices():
            matrix, _, _, rows = _dense_stage(size, modes, _rows(key, basis_name), index)
            generator = rows.T @ matrix @ rows * weights
            scale = 2.0**index.n
            for lam in lambdas:
                stage = np.linalg.solve(lam * np.eye(size) - generator, f.T).T
                want = dict(zip(f_norm, _norm(stage - exact[lam], weights)))
                for r in records:
                    if r.index == index and r.lam == lam:
                        bound = RESOLVENT_TOL * (1 + scale / lam) * f_norm[r.vector_name] / lam
                        assert abs(r.resolvent_error - want[r.vector_name]) <= bound, (index, lam)


@st.composite
def graph_cases(draw):
    size, modes = draw(st.sampled_from(sorted(MODELS)))
    basis = draw(st.sampled_from(["eigen", "haar"]))
    index = StageIndex(
        draw(st.integers(0, 12)),
        draw(st.integers(1, modes)),
        draw(st.integers(1, 4)),
        draw(st.integers(0, 6)),
    )
    return (size, modes), basis, index, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=graph_cases())
@example(case=((128, 16), "haar", StageIndex(10, 16, 4, 6), 0))
@example(case=((64, 8), "eigen", StageIndex(0, 8, 4, 3), 1))
def test_final_stage_graph_matches_the_dense_reference(case):
    key, basis_name, index, seed = case
    size, modes = key
    model = MODELS[key]
    basis = model.basis if basis_name == "eigen" else HAAR[key]
    points, weights = _interval(size)
    mu, phi = _eigen(points, modes)
    rows = _rows(key, basis_name)
    keep = np.arange(size) < math.ceil(size * index.l / 4)
    cells = _cells(rows[: index.m], index.k, keep)
    indicators = np.zeros((len(cells), size))
    for i, sites in enumerate(cells):
        indicators[i, sites] = 1.0
    masses = indicators @ weights
    semigroup = (phi.T * np.exp(-mu * index.time)) @ phi * weights
    raw = (indicators @ semigroup.T * weights) @ indicators.T
    scale = 2.0**index.n
    conductances = scale * np.maximum(raw, 0.0)
    killing = scale * masses - conductances.sum(axis=0)
    slack = KILLING_TOL * max(1.0, conductances.sum(axis=0).max())

    try:
        graph = final_stage_graph(model, basis, index)
    except ValueError as exc:
        # A truncated kernel can ring negative or carry more than unit
        # mass; the reference must see the same defect, clearly.
        assert raw.min() < -CLAMP_TOL / 2 or killing.min() < -slack / 2, exc
        return
    assert raw.min() >= -2 * CLAMP_TOL and killing.min() >= -2 * slack
    assert graph.scale == scale
    assert np.array_equal(graph.vertex_weights, masses)
    envelope = scale * np.sqrt(np.outer(masses, masses))
    assert np.all(np.abs(graph.conductances - conductances) <= GRAPH_TOL * envelope)
    assert np.all(np.abs(graph.killing - killing) <= GRAPH_TOL * scale * masses)

    # The energy of the step values of the stage projection is the stage form.
    matrix, project, energy, _ = _dense_stage(size, modes, rows, index)
    f = np.random.default_rng(seed).standard_normal((3, size))
    g = f @ project.T
    alpha = np.stack([g[:, sites[0]] for sites in cells], axis=-1)
    form = ((g @ energy.T) * g * weights).sum(axis=1)
    got = graph_energy(graph, alpha)
    assert np.all(np.abs(got - form) <= FORM_TOL * scale * _norm(f, weights) ** 2)
