"""Audit families pass on sound input and fail on corrupted input."""
import itertools

import numpy as np
import pytest

from mosco_graphs import (
    CellPartition,
    MarkovKernelModel,
    SpectralModel,
    Stage,
    StageForm,
    StageIndex,
    WeightedGraph,
    audits,
    birth_death_kernel,
    birth_death_model,
    builtin_models,
    graphs,
    level_partition,
    random_kernel_model,
)
from mosco_graphs.measure import StepFunction

MS = (1, 2, 4)
KS = (1, 2, 3)


def by_name(results, name):
    (match,) = [r for r in results if r.name == name]
    return match


class TestKernelValidityAudit:
    def test_passes(self):
        assert audits.audit_kernel_validity(birth_death_kernel(4)).passed

    @staticmethod
    def nan_kernel(kernel):
        P = kernel.kernel.copy()
        P[1, 2] = np.nan
        return P

    def test_nan_entry_is_refused(self):
        kernel = birth_death_kernel(4)
        with pytest.raises(ValueError, match="kernel"):
            MarkovKernelModel("nan", kernel.space, self.nan_kernel(kernel))

    def test_nan_entry_fails(self):
        # The constructor refuses this kernel, so it is put into a built
        # model; the audit must not drop the NaN residual.
        kernel = birth_death_kernel(4)
        object.__setattr__(kernel, "kernel", self.nan_kernel(kernel))
        result = audits.audit_kernel_validity(kernel)
        assert not result.passed
        assert np.isnan(result.residual)


class TestConditioningAudit:
    def test_passes(self, neumann_small):
        rng = np.random.default_rng(3)
        results = audits.audit_conditioning(neumann_small, neumann_small.basis, rng)
        assert all(r.passed for r in results)

    def test_non_orthogonal_residual_fails(self, neumann_small, monkeypatch):
        exact = audits.condition_on_partition

        def biased(f, partition, space, restrict_to=None):
            sf = exact(f, partition, space, restrict_to=restrict_to)
            return StepFunction(sf.partition, sf.coefficients + 0.01)

        monkeypatch.setattr(audits, "condition_on_partition", biased)
        rng = np.random.default_rng(3)
        results = audits.audit_conditioning(neumann_small, neumann_small.basis, rng)
        assert not by_name(results, "conditioning-orthogonality").passed


    def test_ignored_restriction_fails(self, neumann_small, monkeypatch):
        # Averages over whole cells, not over their part inside X_l: the
        # image keeps mass off X_l, which the masked probe lacks.
        exact = audits.condition_on_partition
        monkeypatch.setattr(
            audits,
            "condition_on_partition",
            lambda f, partition, space, restrict_to=None: exact(f, partition, space),
        )
        rng = np.random.default_rng(3)
        results = audits.audit_conditioning(neumann_small, neumann_small.basis, rng)
        assert not by_name(results, "conditioning-contraction").passed


def level_partitions(basis):
    return {(m, k): level_partition(basis, m, k) for m in MS for k in KS}


class TestTailMassAudit:
    def test_passes(self, neumann_small):
        assert audits.audit_tail_mass(level_partitions(neumann_small.basis)).passed

    def test_all_tail_labels_fail(self, neumann_small):
        # Every cell labelled with the overflow label 4^k: the whole mass
        # sits in tail cells, far above m * 2^(-2k).
        parts = {
            (m, k): CellPartition(
                cell_of=part.cell_of,
                masses=part.masses,
                labels=np.full_like(part.labels, 4**k),
                level=k,
            )
            for (m, k), part in level_partitions(neumann_small.basis).items()
        }
        result = audits.audit_tail_mass(parts)
        assert not result.passed
        assert result.residual >= 0.5


class TestCellOscillationAudit:
    def test_passes(self, neumann_small):
        basis = neumann_small.basis
        assert audits.audit_cell_oscillation(basis, level_partitions(basis)).passed

    def test_wide_interleaved_cells_fail(self, neumann_small):
        # Two cells, even and odd sites, each spanning the whole range of
        # every mode: the extremes must be taken over a cell's sites, not
        # over runs of neighbouring sites.
        basis = neumann_small.basis
        size = basis.space.size
        parts = {
            (m, k): CellPartition(
                cell_of=np.arange(size) % 2,
                masses=np.full(2, basis.space.total_mass / 2),
                labels=np.zeros((2, m), dtype=np.int64),
                level=k,
            )
            for m in MS
            for k in KS
        }
        assert not audits.audit_cell_oscillation(basis, parts).passed


class TestPartitionRefinementAudit:
    def test_passes(self, neumann_small):
        assert audits.audit_partition_refinement(level_partitions(neumann_small.basis)).passed

    def test_shifted_fine_partition_fails(self, neumann_small):
        parts = level_partitions(neumann_small.basis)
        finest = parts[MS[-1], KS[-1]]
        parts[MS[-1], KS[-1]] = CellPartition(
            cell_of=np.roll(finest.cell_of, 1), masses=finest.masses, level=finest.level
        )
        result = audits.audit_partition_refinement(parts)
        assert not result.passed
        assert result.residual >= 1


class TestExtractionTowerAudit:
    def test_passes(self, neumann_small):
        rng = np.random.default_rng(5)
        assert audits.audit_extraction_tower(neumann_small, neumann_small.basis, rng).passed

    def test_misnumbered_fine_cells_fail(self, neumann_small, monkeypatch):
        # Reverse the cell numbering of the fine graph's partition while
        # keeping its conductances: lifted coefficients land on the wrong
        # vertices and the energies disagree.
        exact = audits.final_stage_graph

        def misnumbered(model, basis, index, **kwargs):
            graph = exact(model, basis, index, **kwargs)
            if index.k != 4:
                return graph
            part = graph.partition
            on = part.cell_of >= 0
            cell_of = np.where(on, part.n_cells - 1 - part.cell_of, -1)
            return WeightedGraph(
                vertex_weights=graph.vertex_weights,
                conductances=graph.conductances,
                killing=graph.killing,
                scale=graph.scale,
                partition=CellPartition(cell_of=cell_of, masses=part.masses[::-1]),
            )

        monkeypatch.setattr(audits, "final_stage_graph", misnumbered)
        rng = np.random.default_rng(5)
        assert not audits.audit_extraction_tower(
            neumann_small, neumann_small.basis, rng
        ).passed


def killing_free_energy(graph, alpha):
    """The graph energy with the killing term forgotten; batched."""
    alpha = np.asarray(alpha, dtype=float)
    diffs = alpha[..., :, None] - alpha[..., None, :]
    return np.sum(graph.conductances * diffs**2, axis=(-2, -1)) / 2


class TestIdentificationAudit:
    @staticmethod
    def kernels():
        return [random_kernel_model(8, np.random.default_rng(13), name="leaky")]

    def test_passes(self):
        results = audits.audit_identification(self.kernels(), np.random.default_rng(7))
        assert all(r.passed for r in results)

    def test_energy_without_killing_fails(self, monkeypatch):
        monkeypatch.setattr(graphs, "graph_energy", killing_free_energy)
        results = audits.audit_identification(self.kernels(), np.random.default_rng(7))
        assert not by_name(results, "identification[leaky]").passed


def pair_graph(killing):
    """Two vertices joined by conductance 1 at scale 2^40, with ``killing`` at
    both.  The constructor refuses a negative killing weight, so it is set
    on the built graph."""
    graph = WeightedGraph([1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0], scale=2.0**40)
    object.__setattr__(graph, "killing", np.array([killing, killing]))
    return graph


class TestUnitContractionAudit:
    def test_passes(self):
        rng = np.random.default_rng(17)
        assert audits.audit_unit_contraction([("pair", pair_graph(0.0))], rng).passed

    def test_negative_killing_fails(self):
        # A negative killing weight makes the energy of a function grow
        # when the function is clipped toward 0.
        rng = np.random.default_rng(17)
        graph = pair_graph(-1.0)
        assert not audits.audit_unit_contraction([("pair", graph)], rng).passed


class TestNormalContractionAudit:
    def test_passes(self):
        rng = np.random.default_rng(19)
        assert audits.audit_normal_contraction([("pair", pair_graph(0.0))], rng).passed

    def test_expanding_map_fails(self, monkeypatch):
        # A 2-Lipschitz map in place of the 1-Lipschitz clips.
        monkeypatch.setattr(audits, "_random_lipschitz", lambda rng, shape: lambda x: 2.0 * x)
        rng = np.random.default_rng(19)
        assert not audits.audit_normal_contraction([("pair", pair_graph(0.0))], rng).passed

    def test_negative_energy_fails(self):
        # The energy of the constant is -2 on this graph, so some root
        # energies are NaN; a NaN residual must fail, not be skipped.
        rng = np.random.default_rng(19)
        with np.errstate(invalid="ignore"):
            result = audits.audit_normal_contraction([("pair", pair_graph(-1.0))], rng)
        assert not result.passed
        assert np.isnan(result.residual)


class TestSemigroupLawAudit:
    def test_passes(self, neumann_small):
        assert audits.audit_semigroup_law(neumann_small, np.random.default_rng(31)).passed

    def test_time_dependent_gain_fails(self, neumann_small, monkeypatch):
        # With P_t scaled by 1 + 1e-6 t^2, P_s P_t and P_{s+t} differ by
        # about the cross term 2e-6 st; t holds one time per row.
        exact = SpectralModel.apply_semigroup
        monkeypatch.setattr(
            SpectralModel,
            "apply_semigroup",
            lambda self, t, f: (1 + 1e-6 * np.asarray(t)[..., None] ** 2) * exact(self, t, f),
        )
        assert not audits.audit_semigroup_law(neumann_small, np.random.default_rng(31)).passed


class TestProjectionCompositionAudit:
    def test_passes(self, neumann_small):
        rng = np.random.default_rng(37)
        assert audits.audit_projection_composition(neumann_small, neumann_small.basis, rng).passed

    def test_perturbed_projection_fails(self, neumann_small, monkeypatch):
        # Only the direct side goes through audits.galerkin_projection; the
        # Galerkin stage projects on its own.
        exact = audits.galerkin_projection
        monkeypatch.setattr(
            audits, "galerkin_projection", lambda basis, m, f: (1 + 1e-6) * exact(basis, m, f)
        )
        rng = np.random.default_rng(37)
        assert not audits.audit_projection_composition(
            neumann_small, neumann_small.basis, rng
        ).passed


class TestRejectsAsymmetryAudit:
    def test_passes(self):
        assert audits.audit_rejects_asymmetry(np.random.default_rng(41)).passed

    def test_unwarped_kernel_fails(self, monkeypatch):
        # A symmetric kernel extracts cleanly, so the refusal never comes.
        monkeypatch.setattr(audits, "_warped", lambda kernel: kernel.kernel.copy())
        result = audits.audit_rejects_asymmetry(np.random.default_rng(41))
        assert not result.passed
        assert result.detail == "asymmetry went unnoticed"


# ---------------------------------------------------------------------------
# The families that draw their probes as one batch.

STAGE_FAMILIES = (
    "stage_bounds",
    "resolvent_contraction",
    "resolvent_identity",
    "form_generator_consistency",
)
STAGE_INDICES = (StageIndex(2), StageIndex(4, 4), StageIndex(6, 8, 2, 4))

# Not the first row, so a reduction that reads only row 0 misses it.
ROW = 3


@pytest.fixture(scope="module")
def models(neumann_small):
    # The chain is complete, so P_t comes close to an isometry at small t;
    # on the truncated neumann model P_t f loses f's off-span part.
    return {"neumann": neumann_small, "chain": birth_death_model(sites=16)}


def run_family(family, model, rng, graph=None):
    """The audit lines of one batched family on ``model``, or on ``graph``."""
    audit = getattr(audits, f"audit_{family}")
    if family in STAGE_FAMILIES:
        stages = [Stage(model, model.basis, index) for index in STAGE_INDICES]
        out = audit(model, stages, rng)
    elif family in ("conditioning", "projection_composition"):
        out = audit(model, model.basis, rng)
    elif family in ("unit_contraction", "normal_contraction"):
        out = audit([("leaky", graph)], rng)
    else:
        out = audit(model, rng)
    return out if isinstance(out, list) else [out]


def corrupt_row(monkeypatch, owner, name, factor, cell):
    """Scale probe ROW in each result of ``owner.name`` by ``factor``.

    ``cell`` indexes the result, or maps the call's arguments to that
    index: ``ROW`` for a result with one row per probe.
    """
    exact = getattr(owner, name)

    def corrupted(*args):
        out = np.array(exact(*args))
        out[cell(*args) if callable(cell) else cell] *= factor
        return out

    monkeypatch.setattr(owner, name, corrupted)


# Probe ROW at every time of a (times, probes, sites) grid of images.
ACROSS_TIMES = np.s_[:, ROW]


def at_level(n):
    """Probe ROW at level n of a (levels, probes) grid of stage forms."""
    return lambda model, levels, f: (np.ravel(levels) == n, ROW)


# family, audit line, model, corrupted internal, factor on one probe, cell.
# Each factor is small enough that the mean residual stays under the
# tolerance, so a mean in place of the maximum is caught too; only time
# monotonicity cannot do that, as its healthy residuals are all 0.
CONTROLS = [
    ("semigroup_contraction", "semigroup-contraction", "chain",
     SpectralModel, "apply_semigroup", 1 + 1e-3, ACROSS_TIMES),
    ("markov_range", "markov-range", "neumann",
     SpectralModel, "apply_semigroup", 2.0, ACROSS_TIMES),
    ("time_monotonicity", "time-monotonicity", "neumann",
     audits, "semigroup_form", 0.99, at_level(15)),
    ("energy_exhaustion", "energy-exhaustion-order", "neumann",
     audits, "semigroup_form", 1 + 1e-6, at_level(30)),
    ("energy_exhaustion", "energy-exhaustion-limit", "neumann",
     SpectralModel, "exact_form", 1 + 1e-5, ROW),
    ("stage_bounds", "stage-bounds", "neumann", Stage, "form", -1e-6, ROW),
    ("resolvent_contraction", "resolvent-contraction", "neumann",
     audits, "stage_resolvent", 1 + 1e-3, ROW),
    ("resolvent_identity", "resolvent-identity", "neumann",
     audits, "stage_resolvent", 1 + 1e-8, ROW),
    ("form_generator_consistency", "form-generator", "neumann",
     StageForm, "quad_form", 1 + 1e-11, ROW),
]


class TestBatchedFamilies:
    @pytest.mark.parametrize(
        "family, line, model, owner, name, factor, cell", CONTROLS, ids=[c[1] for c in CONTROLS]
    )
    def test_one_wrong_row_fails(
        self, models, monkeypatch, family, line, model, owner, name, factor, cell
    ):
        model = models[model]
        line = f"{line}[{model.name}]"
        assert by_name(run_family(family, model, np.random.default_rng(23)), line).passed
        corrupt_row(monkeypatch, owner, name, factor, cell)
        assert not by_name(run_family(family, model, np.random.default_rng(23)), line).passed

    @pytest.mark.parametrize(
        "family, line, model, owner, name, factor, cell", CONTROLS, ids=[c[1] for c in CONTROLS]
    )
    def test_one_nan_row_fails(
        self, models, monkeypatch, family, line, model, owner, name, factor, cell
    ):
        model = models[model]
        corrupt_row(monkeypatch, owner, name, np.nan, cell)
        results = run_family(family, model, np.random.default_rng(23))
        result = by_name(results, f"{line}[{model.name}]")
        assert not result.passed
        assert np.isnan(result.residual)


def sequential_draws(family, model, rng):
    """The draws each family made one probe at a time before it was batched."""
    size = model.space.size
    low = min(8, model.n_modes)
    if family == "semigroup_contraction":
        for _ in range(25):
            rng.standard_normal(size)
    elif family == "markov_range":
        for _ in range(25):
            rng.uniform(0.0, 1.0, size=size)
    elif family in ("time_monotonicity", "energy_exhaustion"):
        for _ in range(10 if family == "time_monotonicity" else 5):
            rng.standard_normal(low)
    else:
        for index in STAGE_INDICES:
            dim = Stage(model, model.basis, index).form_data.dim
            for _ in range(15 if family == "stage_bounds" else 10):
                rng.standard_normal(dim if family == "form_generator_consistency" else size)


class TestProbeCounts:
    """Each batch draws exactly the numbers the sequential probes drew."""

    @pytest.mark.parametrize("family", sorted({c[0] for c in CONTROLS}))
    def test_family_ends_in_the_sequential_state(self, models, family):
        rng, reference = np.random.default_rng(29), np.random.default_rng(29)
        run_family(family, models["neumann"], rng)
        sequential_draws(family, models["neumann"], reference)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_extraction_tower(self, neumann_small):
        rng, reference = np.random.default_rng(29), np.random.default_rng(29)
        audits.audit_extraction_tower(neumann_small, neumann_small.basis, rng)
        coarse = graphs.final_stage_graph(
            neumann_small, neumann_small.basis, StageIndex(4, 4, neumann_small.space.l_max, 2)
        )
        for _ in range(25):
            reference.standard_normal(coarse.n_vertices)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_identification(self, monkeypatch):
        made = []
        default_rng = np.random.default_rng

        def recorded(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recorded)
        kernel = random_kernel_model(8, default_rng(13))
        graphs.verify_identification(kernel, seed=5)
        reference = default_rng(5)
        for _ in range(100):
            reference.standard_normal(kernel.size)
        (rng,) = made
        assert rng.bit_generator.state == reference.bit_generator.state


# ---------------------------------------------------------------------------
# The families that drew one probe at a time until they took one batch each.


@pytest.fixture(scope="module")
def leaky_graph():
    kernel = random_kernel_model(8, np.random.default_rng(13), name="leaky")
    return graphs.extract_graph(kernel, CellPartition.singletons(kernel.space), kernel.space)


def corrupt_results(monkeypatch, owner, name, change):
    """Replace each result of ``owner.name`` by ``change(result, call)``, calls counted from 0."""
    exact = getattr(owner, name)
    calls = itertools.count()
    monkeypatch.setattr(owner, name, lambda *a, **kw: change(exact(*a, **kw), next(calls)))


def scale(factor, where=ROW, on=lambda call: True):
    """A change that scales entry ``where`` of the results of the calls ``on`` picks."""

    def change(out, call):
        out = np.array(out)
        if on(call):
            out[where] *= factor
        return out

    return change


def scale_step(factor):
    """A change that scales row ROW of a step function's coefficients.

    Each depth makes its own call, and some depth has more than ROW of the
    20 probes, as there are at most four depths.
    """

    def change(step, call):
        coefficients = np.array(step.coefficients)
        if len(coefficients) > ROW:
            coefficients[ROW] *= factor
        return StepFunction(step.partition, coefficients)

    return change


# family, audit line, corrupted internal, change, the factor on one row that
# fails the line: small for the identities, large for the inequalities,
# whose healthy rows keep a margin.
BATCH_CONTROLS = [
    ("semigroup_law", "semigroup-law[neumann]", SpectralModel, "apply_semigroup",
     scale, 1 + 1e-8),
    ("conditioning", "conditioning-orthogonality", audits, "condition_on_partition",
     scale_step, 1 + 1e-3),
    ("projection_composition", "projection-composition[neumann]", audits,
     "galerkin_projection", scale, 1 + 1e-6),
    # Only the energies of the clipped and capped values grow, not of the
    # values themselves, which each graph's first call takes.
    ("unit_contraction", "unit-contraction", audits, "graph_energy",
     lambda factor: scale(factor, on=lambda call: call % 3), 1e3),
    # Column 3 holds the energy of the combination.
    ("normal_contraction", "normal-contraction", audits, "graph_energy",
     lambda factor: scale(factor, where=(ROW, 3)), 1e4),
]


class TestNewlyBatchedFamilies:
    @pytest.mark.parametrize(
        "family, line, owner, name, change, factor",
        BATCH_CONTROLS,
        ids=[c[0] for c in BATCH_CONTROLS],
    )
    def test_one_wrong_row_fails(
        self, neumann_small, leaky_graph, monkeypatch, family, line, owner, name, change, factor
    ):
        def run():
            results = run_family(family, neumann_small, np.random.default_rng(23), leaky_graph)
            return by_name(results, line)

        assert run().passed
        corrupt_results(monkeypatch, owner, name, change(factor))
        assert not run().passed

    @pytest.mark.parametrize(
        "family, line, owner, name, change, factor",
        BATCH_CONTROLS,
        ids=[c[0] for c in BATCH_CONTROLS],
    )
    def test_one_nan_row_fails(
        self, neumann_small, leaky_graph, monkeypatch, family, line, owner, name, change, factor
    ):
        corrupt_results(monkeypatch, owner, name, change(np.nan))
        results = run_family(family, neumann_small, np.random.default_rng(23), leaky_graph)
        result = by_name(results, line)
        assert not result.passed
        assert np.isnan(result.residual)

    def test_nan_probe_fails_conditioning(self, neumann_small, monkeypatch):
        # A NaN site value of one probe: every line that reads the probe fails.
        exact = audits.condition_on_partition

        def poisoned(f, partition, space, restrict_to=None):
            f = np.array(f)
            f[-1, 0] = np.nan
            return exact(f, partition, space, restrict_to=restrict_to)

        monkeypatch.setattr(audits, "condition_on_partition", poisoned)
        results = audits.audit_conditioning(
            neumann_small, neumann_small.basis, np.random.default_rng(23)
        )
        for name in ("contraction", "orthogonality", "idempotence"):
            assert np.isnan(by_name(results, f"conditioning-{name}").residual)


def batch_draws(family, model, graph, rng):
    """The draws of each newly batched family: one call per array."""
    size, v = model.space.size, graph.n_vertices
    if family == "semigroup_law":
        rng.standard_normal((20, size))
        rng.uniform(0.0, 1.0, size=(2, 20))
    elif family == "conditioning":
        rng.standard_normal((20, size))
        rng.integers(1, model.space.l_max + 1, size=20)
    elif family == "projection_composition":
        rng.standard_normal((20, size))
    elif family == "unit_contraction":
        rng.standard_normal((100, v))
        rng.uniform(0.2, 2.0, size=(100, 1))
    else:
        rng.integers(1, 4, size=(40, 1))
        rng.standard_normal((40, 3))
        rng.uniform(-2.0, -0.1, size=(40, 3))
        rng.uniform(0.1, 2.0, size=(40, 3))
        rng.standard_normal((40, 3, v))


@pytest.mark.parametrize("family", [c[0] for c in BATCH_CONTROLS])
def test_newly_batched_family_draws_one_batch_per_array(neumann_small, leaky_graph, family):
    rng, reference = np.random.default_rng(29), np.random.default_rng(29)
    run_family(family, neumann_small, rng, leaky_graph)
    batch_draws(family, neumann_small, leaky_graph, reference)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_suite_makes_few_kernel_calls(monkeypatch):
    # One battery on the suite's models: every family makes one call per
    # model, graph, stage or depth, not one per probe.
    counts = {"energy": 0, "stage": 0, "restrict": 0}

    def counted(key, function):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return wrapper

    energy = counted("energy", graphs.graph_energy)
    monkeypatch.setattr(audits, "graph_energy", energy)
    monkeypatch.setattr(graphs, "graph_energy", energy)
    monkeypatch.setattr(Stage, "__init__", counted("stage", Stage.__init__))
    monkeypatch.setattr(CellPartition, "restrict", counted("restrict", CellPartition.restrict))
    zoo = builtin_models(128, 16, seed=7)
    spectral = [m for m in zoo if isinstance(m, SpectralModel)]
    kernels = [m for m in zoo if isinstance(m, MarkovKernelModel)]
    results = audits.audit_suite(spectral, kernels, lambda m: m.basis, np.random.default_rng(7))
    assert all(r.passed for r in results)
    assert counts["energy"] <= 12
    assert counts["stage"] <= 27
    assert counts["restrict"] <= 40
