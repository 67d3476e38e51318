"""The partition audits pass on sound input and fail on corrupted input."""
import numpy as np

from mosco_graphs import CellPartition, WeightedGraph, audits, graphs, level_partition
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


class TestCellOscillationAudit:
    def test_passes(self, neumann_small):
        assert audits.audit_cell_oscillation(neumann_small.basis, MS, KS).passed

    def test_wide_interleaved_cells_fail(self, neumann_small, monkeypatch):
        # Two cells, even and odd sites, each spanning the whole range of
        # every mode: the extremes must be taken over a cell's sites, not
        # over runs of neighbouring sites.
        def interleaved(basis, m, k):
            size = basis.space.size
            return CellPartition(
                cell_of=np.arange(size) % 2,
                masses=np.full(2, basis.space.total_mass / 2),
                labels=np.zeros((2, m), dtype=np.int64),
                level=k,
            )

        monkeypatch.setattr(audits, "level_partition", interleaved)
        assert not audits.audit_cell_oscillation(neumann_small.basis, MS, KS).passed


class TestPartitionRefinementAudit:
    def test_passes(self, neumann_small):
        assert audits.audit_partition_refinement(neumann_small.basis, MS, KS).passed

    def test_shifted_fine_partition_fails(self, neumann_small, monkeypatch):
        def shifted(basis, m, k):
            part = level_partition(basis, m, k)
            if (m, k) != (MS[-1], KS[-1]):
                return part
            return CellPartition(
                cell_of=np.roll(part.cell_of, 1), masses=part.masses, level=part.level
            )

        monkeypatch.setattr(audits, "level_partition", shifted)
        result = audits.audit_partition_refinement(neumann_small.basis, MS, KS)
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
