"""Audit families pass on sound input and fail on corrupted input."""
import numpy as np

from mosco_graphs import (
    CellPartition,
    WeightedGraph,
    audits,
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
        exact = graphs.final_stage_graph

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

        monkeypatch.setattr(graphs, "final_stage_graph", misnumbered)
        rng = np.random.default_rng(5)
        assert not audits.audit_extraction_tower(
            neumann_small, neumann_small.basis, rng
        ).passed


def killing_free_energy(graph, alpha):
    """The graph energy with the killing term forgotten."""
    alpha = np.asarray(alpha, dtype=float)
    return float(np.sum(graph.conductances * (alpha[:, None] - alpha[None, :]) ** 2) / 2)


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
    """Two vertices at scale 2^40, where the constructor's killing slack is
    KILLING_TOL * 2^40, about 110."""
    return WeightedGraph(
        [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], [killing, killing], scale=2.0**40
    )


class TestUnitContractionAudit:
    def test_passes(self):
        rng = np.random.default_rng(17)
        assert audits.audit_unit_contraction([("pair", pair_graph(0.0))], rng).passed

    def test_negative_killing_inside_the_slack_fails(self):
        # Accepted as rounding slack, a negative killing weight makes the
        # energy of a function grow when the function is clipped toward 0.
        rng = np.random.default_rng(17)
        graph = pair_graph(-1.0)
        assert not audits.audit_unit_contraction([("pair", graph)], rng).passed


class TestNormalContractionAudit:
    def test_passes(self):
        rng = np.random.default_rng(19)
        assert audits.audit_normal_contraction([("pair", pair_graph(0.0))], rng).passed

    def test_expanding_map_fails(self, monkeypatch):
        # A 2-Lipschitz map in place of the 1-Lipschitz clips.
        monkeypatch.setattr(audits, "_random_lipschitz", lambda rng: lambda x: 2.0 * x)
        rng = np.random.default_rng(19)
        assert not audits.audit_normal_contraction([("pair", pair_graph(0.0))], rng).passed
