"""Graph extraction, the energy identity, and the export formats."""
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mosco_graphs import (
    AmbientSpace,
    CellPartition,
    DimensionMismatch,
    MarkovKernelModel,
    PartitionError,
    Stage,
    StageIndex,
    StepFunction,
    SymmetryError,
    WeightedGraph,
    birth_death_kernel,
    birth_death_model,
    extract_graph,
    final_stage_graph,
    graph_energy,
    level_partition,
    neumann_model,
    random_kernel_model,
    read_edge_list,
    read_graph_json,
    verify_identification,
    write_edge_list,
    write_graph_json,
)
from mosco_graphs.graphs import EDGE_EPS, KILLING_TOL, graph_from_json_dict
from mosco_graphs.pipeline import stage_partition


def two_site_kernel(p_matrix):
    space = AmbientSpace(
        np.array([0.0, 1.0]),
        np.array([1.0, 1.0]),
        (np.array([0]), np.array([0, 1])),
    )
    return MarkovKernelModel(name="pair", space=space, kernel=np.asarray(p_matrix))


class TestHandComputedGraphs:
    def test_symmetric_mixing_pair(self):
        kernel = two_site_kernel([[0.5, 0.5], [0.5, 0.5]])
        graph = extract_graph(
            kernel, CellPartition.singletons(kernel.space), kernel.space
        )
        assert np.allclose(graph.conductances, 0.5 * np.ones((2, 2)), atol=1e-14)
        assert np.allclose(graph.vertex_weights, [1.0, 1.0])
        assert np.max(np.abs(graph.killing)) <= 1e-14
        # f = (1, 0): <f - Pf, f> = 0.5 by hand, and the edge term alone
        # carries it.
        assert graph_energy(graph, np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_identity_kernel_has_loops_only(self):
        kernel = two_site_kernel(np.eye(2))
        graph = extract_graph(
            kernel, CellPartition.singletons(kernel.space), kernel.space
        )
        assert np.allclose(graph.conductances, np.eye(2), atol=1e-14)
        assert np.max(np.abs(graph.killing)) <= 1e-14
        for alpha in ([1.0, 0.0], [2.0, -3.0], [1.0, 1.0]):
            assert graph_energy(graph, np.array(alpha)) == pytest.approx(0.0, abs=1e-13)

    def test_uniform_killing_shows_up_in_kappa(self):
        delta = 0.25
        kernel = two_site_kernel((1.0 - delta) * np.eye(2))
        graph = extract_graph(
            kernel, CellPartition.singletons(kernel.space), kernel.space
        )
        assert np.allclose(graph.killing, delta * graph.vertex_weights)
        assert np.all(graph.killing > 0)
        alpha = np.array([2.0, 1.0])
        assert graph_energy(graph, alpha) == pytest.approx(
            delta * float(np.sum(alpha**2)), rel=1e-12
        )

    def test_callable_and_kernel_agree(self):
        kernel = two_site_kernel([[0.25, 0.5], [0.5, 0.25]])
        part = CellPartition.singletons(kernel.space)
        via_model = extract_graph(kernel, part, kernel.space)
        via_callable = extract_graph(kernel.apply, part, kernel.space)
        assert np.array_equal(via_model.conductances, via_callable.conductances)
        assert np.array_equal(via_model.killing, via_callable.killing)


@st.composite
def energy_cases(draw):
    """A graph scaled by 2^n, with killing, and one value per vertex."""
    v = draw(st.integers(1, 7))
    scale = 2.0 ** draw(st.integers(0, 30))
    pairs = v * (v + 1) // 2
    upper = draw(st.lists(st.floats(0.0, 1.0), min_size=pairs, max_size=pairs))
    mu = draw(st.lists(st.floats(1e-3, 1.0), min_size=v, max_size=v))
    kappa = draw(st.lists(st.floats(0.0, 1.0), min_size=v, max_size=v))
    alpha = draw(st.lists(st.floats(-1e3, 1e3), min_size=v, max_size=v))
    graph = WeightedGraph(
        mu, scale * symmetric(upper, v), scale * np.array(kappa), scale=scale
    )
    return graph, np.array(alpha)


def near_constant_case():
    """Values 1000 + 1e-3 N(0, 1) on a complete graph with unit conductances,
    where the energy equals the centred operand bound: that bound is then
    relative."""
    alpha = 1000.0 + 1e-3 * np.random.default_rng(53).standard_normal(7)
    return WeightedGraph(np.ones(7), 2.0**30 * np.ones((7, 7)), np.zeros(7), scale=2.0**30), alpha


def subnormal_case():
    """Values [0, 4.9e-160, 0] on the path 0 - 1 - 2 with conductances 0.3:
    the energy, about 1.4e-319, is subnormal, and the two forms differ by
    one step of 5e-324, while the relative bound underflows below it."""
    c = np.zeros((3, 3))
    c[[0, 1, 1, 2], [1, 0, 2, 1]] = 0.3
    return WeightedGraph(np.ones(3), c, np.zeros(3)), np.array([0.0, 4.9e-160, 0.0])


class TestGraphValidation:
    def test_empty_graph_is_refused_by_name(self):
        # It used to fail inside numpy: "zero-size array to reduction
        # operation maximum which has no identity".
        with pytest.raises(ValueError, match="^vertex_weights: a graph needs at least one vertex$"):
            WeightedGraph([], np.zeros((0, 0)), [])

    def test_rejects_malformed_data(self):
        mu = np.array([1.0, 2.0])
        c = np.array([[0.0, 0.3], [0.3, 0.0]])
        kappa = np.zeros(2)
        WeightedGraph(vertex_weights=mu, conductances=c, killing=kappa)
        with pytest.raises(ValueError, match="positive"):
            WeightedGraph(vertex_weights=np.array([1.0, 0.0]), conductances=c, killing=kappa)
        with pytest.raises(SymmetryError):
            WeightedGraph(
                vertex_weights=mu,
                conductances=np.array([[0.0, 0.3], [0.2, 0.0]]),
                killing=kappa,
            )
        with pytest.raises(ValueError, match="negative conductance"):
            WeightedGraph(
                vertex_weights=mu,
                conductances=np.array([[0.0, -0.3], [-0.3, 0.0]]),
                killing=kappa,
            )
        with pytest.raises(ValueError, match="killing"):
            WeightedGraph(vertex_weights=mu, conductances=c, killing=np.array([-1.0, 0.0]))
        # The killing slack follows the column sums of c, not the scale: at
        # scale 2^40 the energy of the constant would be -2 on this graph.
        with pytest.raises(ValueError, match="killing"):
            WeightedGraph([1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], [-1.0, -1.0], scale=2.0**40)
        # while a rounding-sized negative beside large conductances passes.
        WeightedGraph([1.0, 1.0], [[0.0, 1e6], [1e6, 0.0]], [-1e-5, 0.0])
        with pytest.raises(ValueError, match="scale"):
            WeightedGraph(vertex_weights=mu, conductances=c, killing=kappa, scale=0.0)
        with pytest.raises(DimensionMismatch):
            WeightedGraph(vertex_weights=mu, conductances=np.zeros((3, 3)), killing=kappa)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["vertex_weights", "conductances", "killing", "scale"])
    def test_non_finite_values_are_refused(self, field, bad):
        data = {
            "vertex_weights": np.array([1.0, 2.0]),
            "conductances": np.array([[0.0, 0.3], [0.3, 0.0]]),
            "killing": np.zeros(2),
            "scale": 1.0,
        }
        if field == "scale":
            data["scale"] = bad
        elif field == "conductances":
            data["conductances"] = np.array([[0.0, bad], [bad, 0.0]])
        else:
            data[field][1] = bad
        with pytest.raises(ValueError, match=field):
            WeightedGraph(**data)

    @settings(max_examples=200, deadline=None)
    @given(case=energy_cases())
    @example(case=near_constant_case())
    @example(case=subnormal_case())
    def test_energy_input_forms(self, case):
        graph, alpha = case
        v = graph.n_vertices
        c, kappa = graph.conductances, graph.killing
        ij = [(i, j) for i in range(v) for j in range(v)]

        def operands(a):
            # The Laplacian form can cancel, so its error is bounded by the
            # size of its operands; it is taken on the centred values, so
            # that size follows their spread, not their mean.
            b = a - a.mean()
            out = 0.5 * math.fsum(c[i, j] * (b[i] ** 2 + b[j] ** 2) for i, j in ij)
            return out + math.fsum(kappa * a**2)

        def bound(a):
            # Below the normal range rounding is absolute: half a subnormal step
            # per product and per square, the squares' steps scaled by c and kappa.
            floor = (v * v + c.sum() + kappa.sum()) * np.finfo(float).smallest_subnormal
            return 1e-12 * operands(a) + floor

        explicit = 0.5 * math.fsum(c[i, j] * (alpha[i] - alpha[j]) ** 2 for i, j in ij)
        explicit += math.fsum(kappa * alpha**2)
        assert abs(graph_energy(graph, alpha) - explicit) <= bound(alpha)
        assert graph_energy(graph, alpha.tolist()) == graph_energy(graph, alpha)
        stack = np.stack([alpha, alpha[::-1], -2.0 * alpha])
        batch = graph_energy(graph, stack)
        assert batch.shape == (3,)
        for row, value in zip(stack, batch):
            assert abs(value - graph_energy(graph, row)) <= bound(row)
        part = CellPartition(cell_of=np.arange(v), masses=graph.vertex_weights)
        with pytest.raises(DimensionMismatch):
            graph_energy(graph, StepFunction(part, alpha))
        with pytest.raises(DimensionMismatch):
            graph_energy(graph, np.ones(v + 1))
        with pytest.raises(DimensionMismatch):
            graph_energy(graph, np.ones((3, v + 1)))

    def test_energy_is_nonnegative(self):
        rng = np.random.default_rng(41)
        kernel = random_kernel_model(10, rng, conservative=False)
        graph = extract_graph(
            kernel, CellPartition.singletons(kernel.space), kernel.space
        )
        for _ in range(50):
            assert graph_energy(graph, rng.standard_normal(10)) >= -1e-10


class TestExtractionGuards:
    def test_asymmetric_operator_is_refused(self):
        space = AmbientSpace(
            np.arange(4.0), np.ones(4), (np.arange(4),)
        )
        part = CellPartition.singletons(space)
        shift = lambda F: np.roll(F, 1, axis=-1)
        with pytest.raises(SymmetryError, match="not symmetric"):
            extract_graph(shift, part, space)

    def test_negativity_inside_the_band_is_clipped(self):
        space = AmbientSpace(np.arange(3.0), np.ones(3), (np.arange(3),))
        part = CellPartition.singletons(space)
        graph = extract_graph(lambda F: -1e-13 * F, part, space)
        assert np.min(graph.conductances) == 0.0

    def test_negativity_beyond_the_band_raises(self):
        space = AmbientSpace(np.arange(3.0), np.ones(3), (np.arange(3),))
        part = CellPartition.singletons(space)
        with pytest.raises(ValueError, match="positivity"):
            extract_graph(lambda F: -1e-6 * F, part, space)


def einsum_extract_graph(operator, partition, space, scale=1.0):
    """``extract_graph`` as it was before its cell sums: one dense einsum."""
    apply = operator.apply if hasattr(operator, "apply") else operator
    indicators = np.zeros((partition.n_cells, partition.size))
    indicators[partition.cell_of[partition.support], partition.support] = 1.0
    images = np.asarray(apply(indicators), dtype=float)
    c = np.einsum("ix,x,jx->ij", images, space.weights, indicators)
    asym = float(np.max(np.abs(c - c.T)))
    if asym > 1e-8 * max(1.0, float(np.max(np.abs(c)))):
        raise SymmetryError(
            f"operator is not symmetric for the weighted inner product "
            f"on this partition (residual {asym:.3e})"
        )
    c = (c + c.T) / 2.0
    low = float(np.min(c))
    if low < -1e-12:
        raise ValueError(
            f"conductance {low:.3e} below -{1e-12:.1e}; "
            "operator is not positivity preserving at this resolution"
        )
    c = np.maximum(c, 0.0) * scale
    mu = np.asarray(partition.masses, dtype=float)
    return WeightedGraph(mu, c, scale * mu - c.sum(axis=0), scale=scale)


def low_rank_operator(rng, space, kind):
    """F -> (F w) U^T V with nonnegative U, V: weighted-symmetric when V = U.

    ``kind`` is "symmetric", "asymmetric" (V independent of U) or
    "negative" (the symmetric operator with its sign flipped).
    """
    u = rng.uniform(0.0, 1.0, size=(6, space.size)) / space.size
    v = u if kind != "asymmetric" else rng.uniform(0.0, 1.0, size=u.shape) / space.size
    sign = -1.0 if kind == "negative" else 1.0
    return lambda F: sign * (((F * space.weights) @ u.T) @ v)


@st.composite
def extraction_cases(draw):
    """An operator, a partition of its space, and a scale.

    Kernel operators live on random weighted spaces of up to 512 sites.
    Callable operators get up to 2,048 sites, some of zero weight, and
    optionally sites off the partition's support.  Cells are either
    singletons plus one cell holding the rest, or random labels (about
    size / cells sites each), and the partition may be restricted to a
    random index set.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["kernel", "symmetric", "asymmetric", "negative"]))
    if kind == "kernel":
        operator = random_kernel_model(draw(st.integers(2, 512)), rng, draw(st.booleans()))
        space = operator.space
    else:
        size = draw(st.integers(1, 2048))
        weights = rng.uniform(0.1, 2.0, size=size)
        weights[rng.random(size) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
        space = AmbientSpace(np.arange(size, dtype=float), weights, (np.arange(size),))
        operator = low_rank_operator(rng, space, kind)
    size = space.size
    n_cells = draw(st.integers(1, min(size, 256)))
    if draw(st.booleans()):
        cell_of = np.minimum(rng.permutation(size), n_cells - 1)
    else:
        cell_of = rng.integers(-1 if kind != "kernel" else 0, n_cells, size=size)
    try:
        partition = CellPartition.from_labels(space, cell_of, n_cells)
        if draw(st.booleans()):
            kept = rng.choice(size, size=draw(st.integers(1, size)), replace=False)
            partition = partition.restrict(space, kept)
    except PartitionError:
        assume(False)
    scale = draw(st.sampled_from([1.0, 2.0**6, 2.0**-3]))
    return operator, partition, space, scale


def extraction_outcome(extract, operator, partition, space, scale):
    try:
        graph = extract(operator, partition, space, scale=scale)
    except ValueError as exc:
        return type(exc), str(exc)
    return graph.vertex_weights.tobytes(), graph.conductances.tobytes(), graph.killing.tobytes()


class TestExtractionMatchesEinsum:
    """Cell sums in site order give the einsum's conductances bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(case=extraction_cases())
    def test_same_graph_or_same_error(self, case):
        assert extraction_outcome(extract_graph, *case) == extraction_outcome(
            einsum_extract_graph, *case
        )

    @pytest.mark.parametrize(
        "kind, error, needle",
        [("asymmetric", SymmetryError, "not symmetric"), ("negative", ValueError, "positivity")],
    )
    def test_guards_raise_alike(self, kind, error, needle):
        rng = np.random.default_rng(5)
        space = AmbientSpace(np.arange(300.0), rng.uniform(0.5, 1.5, 300), (np.arange(300),))
        partition = CellPartition.from_labels(space, rng.integers(0, 40, 300), 40)
        operator = low_rank_operator(rng, space, kind)
        outcome = extraction_outcome(extract_graph, operator, partition, space, 1.0)
        assert outcome == extraction_outcome(einsum_extract_graph, operator, partition, space, 1.0)
        assert outcome[0] is error and needle in outcome[1]

    def test_default_export_graphs_match(self):
        model = neumann_model(1024, 64)
        for index in (StageIndex(4, 8, 4, 4), StageIndex(10, 16, 2, 8)):
            case = (
                lambda F, t=index.time: model.apply_semigroup(t, F),
                stage_partition(model.basis, index),
                model.space,
                index.bound,
            )
            assert extraction_outcome(extract_graph, *case) == extraction_outcome(
                einsum_extract_graph, *case
            )


class TestIdentification:
    def test_random_kernels_on_singletons(self):
        rng = np.random.default_rng(43)
        for conservative in (True, False):
            for sites in (2, 5, 17):
                kernel = random_kernel_model(sites, rng, conservative=conservative)
                assert verify_identification(kernel, seed=3) <= 1e-12

    def test_conservative_kernels_balance_columns(self):
        rng = np.random.default_rng(47)
        kernel = random_kernel_model(9, rng, conservative=True)
        graph = extract_graph(
            kernel, CellPartition.singletons(kernel.space), kernel.space
        )
        assert np.max(np.abs(graph.killing)) <= KILLING_TOL
        colsums = graph.conductances.sum(axis=0)
        assert np.max(np.abs(colsums - graph.vertex_weights)) <= 1e-10


class TestChainGraphs:
    def test_one_step_chain_is_exactly_tridiagonal(self):
        kernel = birth_death_kernel(32)
        graph = extract_graph(
            kernel, CellPartition.singletons(kernel.space), kernel.space
        )
        offsets = np.abs(np.arange(32)[:, None] - np.arange(32)[None, :])
        assert np.max(graph.conductances[offsets > 1]) <= 1e-15
        near = graph.conductances[offsets == 1]
        assert np.min(near) > 0.0

    def test_semigroup_chain_keeps_neighbors_dominant(self):
        model = birth_death_model(sites=32)
        t = 2.0**-6
        graph = extract_graph(
            lambda F: model.apply_semigroup(t, F),
            CellPartition.singletons(model.space),
            model.space,
        )
        offsets = np.abs(np.arange(32)[:, None] - np.arange(32)[None, :])
        near = np.min(graph.conductances[offsets == 1])
        far = np.max(graph.conductances[offsets > 1])
        assert far < 0.1 * near


class TestFinalStageGraphs:
    def test_partial_index_is_refused(self):
        model = neumann_model(128, 8)
        for index in (StageIndex(4), StageIndex(4, 6), StageIndex(4, 6, 2)):
            with pytest.raises(ValueError, match="all of n, m, l, k"):
                final_stage_graph(model, model.basis, index)

    def test_energy_form_is_the_stage_form(self):
        model = neumann_model(256, 16)
        rng = np.random.default_rng(49)
        for index in (StageIndex(4, 8, 4, 3), StageIndex(6, 10, 2, 4)):
            stage = Stage(model, model.basis, index)
            graph = final_stage_graph(model, model.basis, index)
            assert graph.scale == index.bound
            for _ in range(25):
                f = rng.standard_normal(256)
                alpha = stage.project(f)[stage.partition.first_sites]
                assert graph_energy(graph, alpha) == pytest.approx(
                    stage.form(f), rel=1e-9, abs=1e-9
                )

    def test_constants_cost_nothing_at_full_mask(self):
        model = birth_death_model(sites=32)
        index = StageIndex(4, 8, model.space.l_max, 2)
        stage = Stage(model, model.basis, index)
        graph = final_stage_graph(model, model.basis, index)
        alpha = stage.project(model.space.constant())[stage.partition.first_sites]
        assert graph_energy(graph, alpha) <= 1e-10

    def test_readme_quick_look_runs(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        exec(re.search(r"```python\n(.*?)```", readme, flags=re.S).group(1), {})
        energy = float(capsys.readouterr().out.splitlines()[-1])
        assert abs(energy) <= 1e-12  # constants cost nothing

    def test_coarse_energies_live_inside_fine_graphs(self):
        # Evaluating a coarse step function on the finer graph must give
        # the same number: both sides equal the operator's energy of the
        # same ambient function.
        model = neumann_model(256, 12)
        t = 2.0**-4
        apply = lambda F: model.apply_semigroup(t, F)
        coarse = level_partition(model.basis, 6, 2)
        fine = level_partition(model.basis, 6, 3)
        assert fine.refines(coarse)
        g_coarse = extract_graph(apply, coarse, model.space)
        g_fine = extract_graph(apply, fine, model.space)
        owner = coarse.cell_of[fine.first_sites]
        rng = np.random.default_rng(51)
        for _ in range(20):
            alpha = rng.standard_normal(coarse.n_cells)
            lifted = alpha[owner]
            assert graph_energy(g_fine, lifted) == pytest.approx(
                graph_energy(g_coarse, alpha), rel=1e-9, abs=1e-12
            )


class TestExports:
    def make_graph(self):
        model = neumann_model(256, 16)
        return final_stage_graph(model, model.basis, StageIndex(4, 8, 4, 3))

    def test_json_round_trip_is_exact(self, tmp_path):
        graph = self.make_graph()
        path = tmp_path / "graph.json"
        write_graph_json(graph, path)
        back = read_graph_json(path)
        assert back.scale == graph.scale
        assert np.array_equal(back.vertex_weights, graph.vertex_weights)
        assert np.array_equal(back.killing, graph.killing)
        kept = np.where(graph.conductances > 1e-14, graph.conductances, 0.0)
        assert np.array_equal(back.conductances, kept)

    def test_edge_list_round_trip_is_exact(self, tmp_path):
        graph = self.make_graph()
        edges = tmp_path / "edges.txt"
        vertices = tmp_path / "vertices.txt"
        write_edge_list(graph, edges, vertices)
        for path in (edges, vertices):
            first = path.read_text().splitlines()[0]
            assert first == f"# scale {graph.scale:.17g}"
        back = read_edge_list(edges, vertices)
        assert back.scale == graph.scale
        assert np.array_equal(back.vertex_weights, graph.vertex_weights)
        assert np.array_equal(back.killing, graph.killing)
        kept = np.where(graph.conductances > 1e-14, graph.conductances, 0.0)
        assert np.array_equal(back.conductances, kept)

    def test_dropped_edges_are_numerical_dust(self, tmp_path):
        graph = self.make_graph()
        path = tmp_path / "graph.json"
        write_graph_json(graph, path)
        back = read_graph_json(path)
        rng = np.random.default_rng(53)
        for _ in range(20):
            alpha = rng.standard_normal(graph.n_vertices)
            assert graph_energy(back, alpha) == pytest.approx(
                graph_energy(graph, alpha), rel=1e-9, abs=1e-9
            )


def reference_json_text(graph):
    """Reference JSON export: a dict per entry through json.dumps(indent=1)."""
    vertices = [
        {"id": i, "mu": float(graph.vertex_weights[i]), "kappa": float(graph.killing[i])}
        for i in range(graph.n_vertices)
    ]
    edges = []
    for i in range(graph.n_vertices):
        for j in range(i, graph.n_vertices):
            value = float(graph.conductances[i, j])
            if value > EDGE_EPS:
                edges.append({"i": i, "j": j, "c": value})
    data = {"scale": float(graph.scale), "vertices": vertices, "edges": edges}
    return json.dumps(data, indent=1) + "\n"


def reference_edge_list_texts(graph):
    """Reference edge and vertex files, written one vertex pair at a time."""
    header = f"# scale {graph.scale:.17g}\n"
    edges = [header]
    for i in range(graph.n_vertices):
        for j in range(i, graph.n_vertices):
            value = graph.conductances[i, j]
            if value > EDGE_EPS:
                edges.append(f"{i} {j} {value:.17g}\n")
    vertices = [header] + [
        f"{i} {graph.vertex_weights[i]:.17g} {graph.killing[i]:.17g}\n"
        for i in range(graph.n_vertices)
    ]
    return "".join(edges), "".join(vertices)


TINY = 5e-324
HUGE = 1.7976931348623157e308
# Values next to the export threshold, signed zeros, subnormals and extremes.
EDGE_VALUES = [
    0.0, -0.0, TINY, 2.2250738585072014e-308, EDGE_EPS,
    float(np.nextafter(EDGE_EPS, 0.0)), float(np.nextafter(EDGE_EPS, 1.0)), 1e300, HUGE,
]
KILLING_VALUES = [0.0, -0.0, -TINY, -1e-300, -1e-12, -KILLING_TOL, TINY, HUGE]


def symmetric(upper, v):
    c = np.zeros((v, v))
    rows, cols = np.triu_indices(v)
    c[rows, cols] = upper
    c[cols, rows] = upper
    return c


@st.composite
def export_graphs(draw):
    v = draw(st.integers(1, 6))
    conductance = st.one_of(
        st.sampled_from(EDGE_VALUES), st.floats(0.0, 1e-13), st.floats(0.0, HUGE)
    )
    upper = draw(st.lists(conductance, min_size=v * (v + 1) // 2, max_size=v * (v + 1) // 2))
    mu = draw(st.lists(st.floats(TINY, HUGE), min_size=v, max_size=v))
    killing = st.one_of(st.sampled_from(KILLING_VALUES), st.floats(-KILLING_TOL, HUGE))
    kappa = draw(st.lists(killing, min_size=v, max_size=v))
    scale = draw(st.one_of(st.integers(1, 2**30), st.floats(TINY, 1e300)))
    return WeightedGraph(mu, symmetric(upper, v), kappa, scale=scale)


class TestExportBytes:
    """The column-wise writers keep the bytes of the original writers and
    read back bit for bit, conductances at or below EDGE_EPS zeroed."""

    @staticmethod
    def write_all(graph, directory):
        paths = [directory / name for name in ("g.json", "g.edges.txt", "g.vertices.txt")]
        write_graph_json(graph, paths[0])
        write_edge_list(graph, paths[1], paths[2])
        return paths

    @settings(max_examples=200, deadline=None)
    @given(graph=export_graphs())
    @example(graph=WeightedGraph([1.0], [[0.0]], [0.0]))
    @example(graph=WeightedGraph([1.0, 0.5], symmetric([EDGE_EPS] * 3, 2), [-0.0, -1e-12], 2))
    @example(graph=WeightedGraph([TINY, 1e300], symmetric([TINY, 1e300, HUGE], 2), [0.0, 0.0]))
    def test_writers_keep_reference_bytes(self, tmp_path_factory, graph):
        paths = self.write_all(graph, tmp_path_factory.mktemp("export"))
        expected = [reference_json_text(graph), *reference_edge_list_texts(graph)]
        assert [path.read_text() for path in paths] == expected

    @settings(max_examples=200, deadline=None)
    @given(graph=export_graphs())
    @example(graph=WeightedGraph([1.0, 0.5], symmetric([EDGE_EPS] * 3, 2), [-0.0, -1e-12], 2))
    def test_round_trip_is_bit_exact(self, tmp_path_factory, graph):
        json_path, edges, vertices = self.write_all(graph, tmp_path_factory.mktemp("export"))
        kept = np.where(graph.conductances > EDGE_EPS, graph.conductances, 0.0)
        for back in (read_graph_json(json_path), read_edge_list(edges, vertices)):
            assert back.scale == graph.scale
            assert back.vertex_weights.tobytes() == graph.vertex_weights.tobytes()
            assert back.killing.tobytes() == graph.killing.tobytes()
            assert back.conductances.tobytes() == kept.tobytes()


class TestReaderValidation:
    """Both readers refuse malformed input and name the offending field."""

    @staticmethod
    def good_dict():
        return {
            "scale": 2.0,
            "vertices": [
                {"id": 0, "mu": 1.0, "kappa": 0.5},
                {"id": 1, "mu": 1.0, "kappa": 0.25},
                {"id": 2, "mu": 0.5, "kappa": 0.0},
            ],
            "edges": [
                {"i": 0, "j": 1, "c": 0.75},
                {"i": 1, "j": 2, "c": 0.5},
                {"i": 2, "j": 2, "c": 0.25},
            ],
        }

    @staticmethod
    def write_tables(tmp_path, data):
        edges = tmp_path / "g.edges.txt"
        vertices = tmp_path / "g.vertices.txt"
        header = f"# scale {data['scale']!r}\n"
        vertices.write_text(
            header
            + "".join(f"{v['id']} {v['mu']!r} {v['kappa']!r}\n" for v in data["vertices"])
        )
        edges.write_text(
            header + "".join(f"{e['i']} {e['j']} {e['c']!r}\n" for e in data["edges"])
        )
        return edges, vertices

    @staticmethod
    def broken(case):
        data = TestReaderValidation.good_dict()
        if case == "negative-i":
            data["edges"][0]["i"] = -1
        elif case == "large-j":
            data["edges"][1]["j"] = 3
        elif case == "gapped-id":
            data["vertices"][2]["id"] = 3
        elif case == "duplicated-id":
            data["vertices"][2]["id"] = 1
        elif case == "nan-c":
            data["edges"][0]["c"] = float("nan")
        elif case == "inf-c":
            data["edges"][2]["c"] = float("inf")
        elif case == "huge-c":
            data["edges"][2]["c"] = 10**400
        elif case == "nan-scale":
            data["scale"] = float("nan")
        elif case == "huge-scale":
            data["scale"] = 10**400
        elif case == "word-scale":
            data["scale"] = "abc"
        elif case == "numeric-string-scale":
            data["scale"] = "2.5"
        elif case == "boolean-scale":
            data["scale"] = True
        elif case == "repeated-pair":
            data["edges"].append({"i": 0, "j": 1, "c": 0.5})
        elif case == "reversed-pair":
            data["edges"].append({"i": 1, "j": 0, "c": 0.5})
        elif case == "no-vertices":
            data["vertices"], data["edges"] = [], []
        return data

    CASES = [
        ("negative-i", "edge i"),
        ("large-j", "edge j"),
        ("gapped-id", "vertex id"),
        ("duplicated-id", "vertex id"),
        ("nan-c", "edge c"),
        ("inf-c", "edge c"),
        ("huge-c", "edge c: values must be finite"),
        ("nan-scale", "scale"),
        ("huge-scale", "scale: must be finite"),
        ("word-scale", "scale: .*abc.* is not a number"),
        ("numeric-string-scale", r"scale: .*2\.5.* is not a number"),
        ("boolean-scale", "scale: .*True.* is not a number"),
        ("repeated-pair", r"edge i/j: pair \(0, 1\) listed twice"),
        ("reversed-pair", r"edge i/j: pair \(0, 1\) listed twice"),
        # In the text reader, both files hold only their headers.
        ("no-vertices", "vertex_weights: a graph needs at least one vertex"),
    ]

    def test_good_tables_read_the_same_both_ways(self, tmp_path):
        data = self.good_dict()
        from_json = graph_from_json_dict(data)
        from_text = read_edge_list(*self.write_tables(tmp_path, data))
        assert from_json.scale == from_text.scale == 2.0
        assert np.array_equal(from_json.conductances, from_text.conductances)
        assert np.array_equal(from_json.vertex_weights, from_text.vertex_weights)
        assert np.array_equal(from_json.killing, from_text.killing)
        assert from_json.conductances[1, 0] == 0.75

    def test_vertex_rows_may_come_in_any_order(self, tmp_path):
        data = self.good_dict()
        data["vertices"].reverse()
        assert np.array_equal(graph_from_json_dict(data).vertex_weights, [1.0, 1.0, 0.5])
        back = read_edge_list(*self.write_tables(tmp_path, data))
        assert np.array_equal(back.killing, [0.5, 0.25, 0.0])

    @pytest.mark.parametrize("case, field", CASES)
    def test_json_reader_rejects(self, case, field):
        with pytest.raises(ValueError, match=field):
            graph_from_json_dict(self.broken(case))

    @pytest.mark.parametrize("case, field", CASES)
    def test_json_file_reader_rejects(self, case, field, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(self.broken(case)))
        with pytest.raises(ValueError, match=field):
            read_graph_json(path)

    @pytest.mark.parametrize("case, field", CASES)
    def test_edge_list_reader_rejects(self, case, field, tmp_path):
        with pytest.raises(ValueError, match=field):
            read_edge_list(*self.write_tables(tmp_path, self.broken(case)))

    def test_json_ids_must_be_integers(self):
        data = self.good_dict()
        data["vertices"][1]["id"] = 1.5
        with pytest.raises(ValueError, match="vertex id"):
            graph_from_json_dict(data)
        data = self.good_dict()
        data["edges"][0]["j"] = 1.0
        with pytest.raises(ValueError, match="edge j"):
            graph_from_json_dict(data)

    @pytest.mark.parametrize(
        "table, entry, field", [("vertices", 1, "id"), ("edges", 0, "i"), ("edges", 1, "j")]
    )
    def test_json_ids_and_endpoints_refuse_booleans(self, table, entry, field, tmp_path):
        # numpy reads true among integers as 1, so each of these used to
        # read as vertex 1, and the edges as a (1, 1) loop.
        data = self.good_dict()
        data[table][entry][field] = True
        name = "vertex" if table == "vertices" else "edge"
        needle = f"{name} {field}: values must be integers, found bool"
        with pytest.raises(ValueError, match=needle):
            graph_from_json_dict(data)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=needle):
            read_graph_json(path)

    def test_non_finite_vertex_values_rejected(self):
        data = self.good_dict()
        data["vertices"][0]["kappa"] = float("nan")
        with pytest.raises(ValueError, match="vertex kappa"):
            graph_from_json_dict(data)

    NOT_NUMBERS = [("vertices", "vertex", "mu"), ("vertices", "vertex", "kappa"), ("edges", "edge", "c")]

    @pytest.mark.parametrize("bad, kind", [("0.5", "str"), (None, "NoneType"), (True, "bool")])
    @pytest.mark.parametrize("table, name, field", NOT_NUMBERS)
    def test_json_values_must_be_numbers(self, table, name, field, bad, kind, tmp_path):
        # A string or null used to fail inside isfinite or float(), naming
        # no field, and true was read as 1.0.
        data = self.good_dict()
        data[table][1][field] = bad
        needle = f"{name} {field}: values must be numbers, found {kind}"
        with pytest.raises(ValueError, match=needle):
            graph_from_json_dict(data)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=needle):
            read_graph_json(path)

    def test_integer_values_are_numbers(self):
        data = self.good_dict()
        data["vertices"][0]["mu"] = 1
        data["vertices"][2]["kappa"] = 0
        data["edges"][0]["c"] = 1
        graph = graph_from_json_dict(data)
        assert graph.vertex_weights[0] == 1.0 and graph.killing[2] == 0.0
        assert graph.conductances[0, 1] == graph.conductances[1, 0] == 1.0

    @pytest.mark.parametrize(
        "edge_header, vertex_header",
        [("# scale 4\n", "# scale 1\n"), ("", "# scale 2.0\n"), ("# scale 2.0\n", "")],
        ids=["4-against-1", "no-edge-header", "no-vertex-header"],
    )
    def test_edge_and_vertex_scales_must_agree(self, edge_header, vertex_header, tmp_path):
        # The edge file's header used to be discarded, so the vertex file's
        # scale (1.0 when absent) won silently.
        edges, vertices = self.write_tables(tmp_path, self.good_dict())
        for path, header in ((edges, edge_header), (vertices, vertex_header)):
            path.write_text(header + path.read_text().split("\n", 1)[1])
        with pytest.raises(ValueError, match="scale: the edge file has"):
            read_edge_list(edges, vertices)

    def test_equal_scales_may_be_spelled_differently(self, tmp_path):
        edges, vertices = self.write_tables(tmp_path, self.good_dict())
        edges.write_text("# scale 2\n" + edges.read_text().split("\n", 1)[1])
        assert read_edge_list(edges, vertices).scale == 2.0

    @pytest.mark.parametrize("table", ["vertices", "edges"])
    @pytest.mark.parametrize("row", ["1 2", "1 2 0.5 7"])
    def test_text_rows_need_three_fields(self, table, row, tmp_path):
        edges, vertices = self.write_tables(tmp_path, self.good_dict())
        path, kind = (vertices, "vertex") if table == "vertices" else (edges, "edge")
        path.write_text(path.read_text() + row + "\n")
        found = len(row.split())
        with pytest.raises(ValueError, match=f"{kind} row 5: expected 3 fields, found {found}"):
            read_edge_list(edges, vertices)

    @pytest.mark.parametrize("table, row", [("vertices", "1.5 1 0"), ("edges", "0 x 0.5")])
    def test_text_tokens_must_convert(self, table, row, tmp_path):
        edges, vertices = self.write_tables(tmp_path, self.good_dict())
        path, kind = (vertices, "vertex") if table == "vertices" else (edges, "edge")
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(ValueError, match=f"{kind} row: invalid literal"):
            read_edge_list(edges, vertices)

    @pytest.mark.parametrize(
        "table, row", [("vertices", "1 null 0"), ("vertices", "1 1 true"), ("edges", "0 1 true")]
    )
    def test_text_values_must_be_numbers(self, table, row, tmp_path):
        # JSON's null and true are no numbers in the float columns either.
        edges, vertices = self.write_tables(tmp_path, self.good_dict())
        path, kind = (vertices, "vertex") if table == "vertices" else (edges, "edge")
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(ValueError, match=f"{kind} row: could not convert"):
            read_edge_list(edges, vertices)

    @pytest.mark.parametrize(
        "table, kind, field",
        [
            ("vertices", "vertex", "id"),
            ("vertices", "vertex", "mu"),
            ("vertices", "vertex", "kappa"),
            ("edges", "edge", "i"),
            ("edges", "edge", "j"),
            ("edges", "edge", "c"),
        ],
    )
    def test_json_entry_missing_a_field(self, table, kind, field):
        data = self.good_dict()
        del data[table][1][field]
        with pytest.raises(ValueError, match=f"{kind} {field}: missing in entry 1"):
            graph_from_json_dict(data)

    @pytest.mark.parametrize("top, kind", [([], "list"), (1, "int"), ("g", "str"), (None, "NoneType")])
    def test_json_top_level_must_be_an_object(self, top, kind, tmp_path):
        # A list used to fail with AttributeError: no attribute 'get'.
        path = tmp_path / "g.json"
        path.write_text(json.dumps(top))
        needle = f"top level: expected a JSON object, found {kind}"
        with pytest.raises(ValueError, match=needle):
            read_graph_json(path)
        with pytest.raises(ValueError, match=needle):
            graph_from_json_dict(top)

    @pytest.mark.parametrize(
        "table, header, needle",
        [
            pytest.param(table, header, needle, id=f"{table}{suffix}")
            for suffix, header, needle in [
                ("", "# scale 4", "repeats its # scale header"),
                ("-extra-token", "# scale 2 extra", "has a malformed header '# scale 2 extra'"),
                ("-bare", "# scale", "has a malformed header '# scale'"),
            ]
            for table in ("vertices", "edges")
        ],
    )
    def test_repeated_scale_header_is_refused(self, table, header, needle, tmp_path):
        # A second header used to replace the first: 2 then 4 read as 4.
        # A malformed one was skipped as a comment, so a file whose only
        # header it was read at scale 1.0.
        edges, vertices = self.write_tables(tmp_path, self.good_dict())
        path, kind = (vertices, "vertex") if table == "vertices" else (edges, "edge")
        path.write_text(path.read_text() + header + "\n")
        with pytest.raises(ValueError, match=f"scale: the {kind} file {needle}"):
            read_edge_list(edges, vertices)

    @pytest.mark.parametrize("table", ["vertices", "edges"])
    def test_json_tables_must_be_lists(self, table):
        data = self.good_dict()
        del data[table]
        with pytest.raises(ValueError, match=f"{table}: expected a list"):
            graph_from_json_dict(data)
