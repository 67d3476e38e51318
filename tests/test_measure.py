"""Weighted spaces, partitions, step functions, conditioning, bases."""
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mosco_graphs import (
    AmbientSpace,
    CellPartition,
    DimensionMismatch,
    MarkovKernelModel,
    OrthonormalBasis,
    PartitionError,
    SpectralModel,
    StageForm,
    StageIndex,
    StepFunction,
    TestVector,
    WeightedGraph,
    condition_on_partition,
    uniform_interval_space,
)
from mosco_graphs.graphs import _finite_numbers


def two_point_space(w0=0.5, w1=0.25):
    return AmbientSpace(
        points=np.array([0.0, 1.0]),
        weights=np.array([w0, w1]),
        exhaustion=(np.array([0, 1]),),
    )


class TestInnerProduct:
    def test_constant_against_itself_gives_total_mass(self):
        space = two_point_space(1.0, 1.0)
        assert space.inner(space.constant(), space.constant()) == pytest.approx(2.0)

    def test_hand_computed_value(self):
        space = two_point_space()
        f = np.array([1.0, 2.0])
        g = np.array([3.0, -1.0])
        # 1*3*0.5 + 2*(-1)*0.25
        assert space.inner(f, g) == pytest.approx(1.0, abs=1e-15)
        assert space.inner(g, f) == pytest.approx(1.0, abs=1e-15)

    def test_bilinearity(self):
        space = uniform_interval_space(32)
        rng = np.random.default_rng(3)
        f, g, h = rng.standard_normal((3, 32))
        lhs = space.inner(2.0 * f + g, h)
        assert lhs == pytest.approx(2.0 * space.inner(f, h) + space.inner(g, h))

    def test_length_mismatch_rejected(self):
        space = uniform_interval_space(8)
        with pytest.raises(DimensionMismatch):
            space.inner(np.ones(8), np.ones(9))

    def test_site_axis_rule_names_every_shape(self):
        # A scalar has no site axis; it used to fail with an IndexError.
        space = uniform_interval_space(8)
        needle = r"^expected last axis 8, got shapes \[\(\), \(8,\)\]$"
        with pytest.raises(DimensionMismatch, match=needle):
            space.inner(1.0, np.ones(8))
        space.check_site_axis(np.ones(8), np.ones((3, 8)))

    def test_normalized_vector_has_unit_norm(self):
        space = uniform_interval_space(64)
        basis = OrthonormalBasis.haar(space, 4)
        for row in basis.vectors:
            assert space.inner(row, row) == pytest.approx(1.0, abs=1e-12)


class TestCoefficients:
    @staticmethod
    def case():
        rng = np.random.default_rng(13)
        weights = rng.uniform(0.0, 2.0, 64)
        weights[5] = 0.0
        space = AmbientSpace(np.arange(64.0), weights, (np.arange(64),))
        return space, rng.standard_normal((5, 64)), rng.standard_normal((2, 3, 64))

    def test_leading_axes_of_f_are_kept(self):
        space, rows, f = self.case()
        assert space.coefficients(rows, f[0, 0]).shape == (5,)
        assert space.coefficients(rows, f[0]).shape == (3, 5)
        assert space.coefficients(rows, f).shape == (2, 3, 5)

    def test_stacked_batch_equals_the_flattened_call(self):
        space, rows, f = self.case()
        flat = space.coefficients(rows, f.reshape(6, 64))
        assert np.array_equal(space.coefficients(rows, f), flat.reshape(2, 3, 5))

    def test_each_product_matches_an_exact_sum(self):
        space, rows, f = self.case()
        got = space.coefficients(rows, f)
        w = space.weights
        for b in np.ndindex(2, 3):
            for k, row in enumerate(rows):
                exact = math.fsum(f[b] * w * row)
                scale = space.norm(row) * space.norm(f[b])
                assert abs(got[b][k] - exact) <= 1e-13 * scale

    @pytest.mark.parametrize("side", ["f", "rows"])
    def test_wrong_last_axis_rejected(self, side):
        space, rows, f = self.case()
        if side == "f":
            f = f[..., :63]
        else:
            rows = rows[:, :63]
        with pytest.raises(DimensionMismatch):
            space.coefficients(rows, f)


class TestAmbientSpace:
    def test_exhaustion_must_nest_and_cover(self):
        points = np.arange(4.0)
        weights = np.ones(4)
        with pytest.raises(ValueError, match="nested"):
            AmbientSpace(points, weights, (np.array([1, 2]), np.array([0, 3])))
        with pytest.raises(ValueError, match="cover"):
            AmbientSpace(points, weights, (np.array([0, 1]),))

    def test_a_final_set_given_as_a_mask_is_refused_by_name(self):
        # It used to fail as "exhaustion sets must be nested".
        points, weights, mask = np.arange(8.0), np.ones(8), np.ones(8, dtype=bool)
        with pytest.raises(ValueError, match="^exhaustion indices must be integers, got bool$"):
            AmbientSpace(points, weights, (np.arange(4), mask))
        assert AmbientSpace(points, weights, (np.arange(4), np.flatnonzero(mask))).l_max == 2

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            AmbientSpace(np.arange(2.0), np.array([1.0, -0.5]), (np.array([0, 1]),))

    def test_interval_space_masses(self):
        space = uniform_interval_space(100)
        assert space.total_mass == pytest.approx(1.0)
        assert space.l_max == 4
        sizes = [space.exhaustion_set(l).size for l in range(1, 5)]
        assert sizes == [25, 50, 75, 100]


class TestStepFunctions:
    def test_single_cell_expands_to_constant(self):
        space = uniform_interval_space(5)
        part = CellPartition.from_cells(space, [np.arange(5)])
        sf = StepFunction(part, np.array([3.5]))
        assert np.array_equal(sf.expand(), np.full(5, 3.5))

    def test_two_singleton_cells(self):
        space = two_point_space(1.0, 1.0)
        part = CellPartition.from_cells(space, [np.array([0]), np.array([1])])
        sf = StepFunction(part, np.array([1.0, 0.0]))
        assert np.array_equal(sf.expand(), np.array([1.0, 0.0]))

    def test_interleaved_cells(self):
        space = AmbientSpace(
            np.arange(3.0), np.ones(3), (np.arange(3),)
        )
        part = CellPartition.from_cells(space, [np.array([0, 2]), np.array([1])])
        sf = StepFunction(part, np.array([2.0, -1.0]))
        assert np.array_equal(sf.expand(), np.array([2.0, -1.0, 2.0]))

    def test_coefficient_count_enforced(self):
        space = uniform_interval_space(4)
        part = CellPartition.from_cells(space, [np.array([0, 1]), np.array([2, 3])])
        with pytest.raises(DimensionMismatch):
            StepFunction(part, np.array([1.0]))


class TestPartitions:
    def test_overlap_rejected(self):
        space = AmbientSpace(np.arange(3.0), np.ones(3), (np.arange(3),))
        with pytest.raises(PartitionError, match="overlap"):
            CellPartition.from_cells(
                space, (np.array([0, 1]), np.array([1, 2]))
            )

    def test_zero_mass_cells_dropped(self):
        space = AmbientSpace(
            np.arange(3.0),
            np.array([1.0, 0.0, 1.0]),
            (np.arange(3),),
        )
        part = CellPartition.from_cells(
            space, [np.array([0]), np.array([1]), np.array([2])]
        )
        assert part.n_cells == 2

    def test_nothing_left_raises(self):
        space = AmbientSpace(
            np.arange(2.0), np.array([0.0, 1.0]), (np.arange(2),)
        )
        with pytest.raises(PartitionError):
            CellPartition.from_cells(space, [np.array([0])])

    def test_mass_bookkeeping(self):
        space = uniform_interval_space(128)
        rng = np.random.default_rng(5)
        cells = np.array_split(rng.permutation(128), 11)
        part = CellPartition.from_cells(space, [np.sort(c) for c in cells])
        assert part.masses.sum() == pytest.approx(space.total_mass, abs=1e-12)

    def test_singletons_cover_positive_mass_sites(self):
        space = AmbientSpace(
            np.arange(4.0), np.array([1.0, 0.0, 2.0, 1.0]), (np.arange(4),)
        )
        part = CellPartition.singletons(space)
        assert part.n_cells == 3
        assert np.array_equal(part.support, np.array([0, 2, 3]))

    def test_refinement_detection(self):
        space = uniform_interval_space(8)
        coarse = CellPartition.from_cells(
            space, [np.arange(4), np.arange(4, 8)]
        )
        fine = CellPartition.from_cells(
            space, [np.arange(2), np.arange(2, 4), np.arange(4, 8)]
        )
        crossing = CellPartition.from_cells(
            space, [np.arange(3), np.arange(3, 8)]
        )
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        assert not crossing.refines(coarse)
        assert coarse.refines(coarse)

    def test_restrict_drops_emptied_cells(self):
        space = uniform_interval_space(8)
        part = CellPartition.from_cells(space, [np.arange(4), np.arange(4, 8)])
        cut = part.restrict(space, np.arange(4))
        assert cut.n_cells == 1
        assert np.array_equal(np.flatnonzero(cut.cell_of == 0), np.arange(4))

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_restrict_rejects_out_of_range_indices(self, bad):
        space = uniform_interval_space(8)
        part = CellPartition.from_cells(space, [np.arange(4), np.arange(4, 8)])
        with pytest.raises(PartitionError, match="0..7"):
            part.restrict(space, np.array([0, bad]))

    # The four constructors that read a site-index array: the error type
    # and the name each refuses a bad one under.
    SITE_INDEX_READERS = {
        "exhaustion": (ValueError, "exhaustion"),
        "from_cells": (PartitionError, "cell"),
        "restrict": (PartitionError, "restriction"),
        "restrict_to": (PartitionError, "restriction"),
    }

    @staticmethod
    def sites_read(reader, idx):
        """The sites that ``reader`` keeps of ``idx`` on an 8-site grid."""
        space = uniform_interval_space(8)
        part = CellPartition.from_cells(space, [np.arange(4), np.arange(4, 8)])
        if reader == "exhaustion":
            return AmbientSpace(space.points, space.weights, (idx, np.arange(8))).exhaustion_set(1)
        if reader == "from_cells":
            return CellPartition.from_cells(space, [idx]).support
        if reader == "restrict":
            return part.restrict(space, idx).support
        return condition_on_partition(np.ones(8), part, space, restrict_to=idx).partition.support

    @pytest.mark.parametrize("reader", SITE_INDEX_READERS)
    @pytest.mark.parametrize(
        "bad, message",
        [
            # A mask used to be read as sites 0 and 1, floats were truncated.
            (np.arange(8) < 4, "indices must be integers, got bool"),
            (np.array([0.5, 1.5, 2.9]), "indices must be integers, got float64"),
            (np.array([0, 8]), "indices must lie in 0..7"),
            (np.array([-1, 3]), "indices must lie in 0..7"),
        ],
        ids=["mask", "float", "above", "negative"],
    )
    def test_site_index_arrays_are_refused_by_name(self, reader, bad, message):
        error, name = self.SITE_INDEX_READERS[reader]
        with pytest.raises(error, match=f"^{name} {re.escape(message)}$"):
            self.sites_read(reader, bad)

    @pytest.mark.parametrize("reader", SITE_INDEX_READERS)
    def test_site_index_arrays_are_sorted_and_deduplicated(self, reader):
        sites = self.sites_read(reader, np.array([5, 1, 5, 0], dtype=np.uint8))
        assert sites.dtype == np.intp and sites.tolist() == [0, 1, 5]

    def test_an_empty_index_array_of_any_dtype_is_the_empty_set(self):
        space = uniform_interval_space(8)
        part = CellPartition.from_cells(space, [np.array([]), [], np.arange(8, dtype=np.int8)])
        assert part.n_cells == 1 and part.support.tolist() == list(range(8))
        sets = (np.zeros(0, dtype=bool), np.arange(8))
        assert AmbientSpace(space.points, space.weights, sets).exhaustion_set(1).size == 0
        with pytest.raises(PartitionError, match="no cell"):
            part.restrict(space, np.array([]))


class TestPartitionConstructor:
    """Direct construction from a site -> cell vector validates its input."""

    def test_valid_fields_are_accepted(self):
        part = CellPartition(
            cell_of=np.array([0, -1, 1, 0]), masses=np.array([2.0, 1.0])
        )
        assert part.size == 4
        assert part.n_cells == 2
        assert np.array_equal(part.support, [0, 2, 3])
        assert [np.flatnonzero(part.cell_of == c).tolist() for c in range(2)] == [[0, 3], [2]]

    @pytest.mark.parametrize("entry", [-2, 2])
    def test_cell_index_out_of_range_rejected(self, entry):
        with pytest.raises(PartitionError, match="-1..1"):
            CellPartition(
                cell_of=np.array([0, 1, entry]), masses=np.array([1.0, 1.0])
            )

    def test_cell_without_sites_rejected(self):
        with pytest.raises(PartitionError, match="carried by a site"):
            CellPartition(
                cell_of=np.array([0, 0, 2]), masses=np.array([1.0, 1.0, 1.0])
            )

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_mass_rejected(self, bad):
        with pytest.raises(PartitionError, match="finite positive mass"):
            CellPartition(cell_of=np.array([0, 1]), masses=np.array([1.0, bad]))

    def test_label_rows_must_match_cells(self):
        with pytest.raises(PartitionError, match="label row"):
            CellPartition(
                cell_of=np.array([0, 1]),
                masses=np.array([1.0, 1.0]),
                labels=np.zeros((3, 2)),
                level=1,
            )

    def test_from_labels_drops_massless_cells_in_order(self):
        space = AmbientSpace(
            np.arange(5.0), np.array([1.0, 0.0, 2.0, 0.0, 3.0]), (np.arange(5),)
        )
        labels = np.array([[10], [11], [12], [13]])
        part = CellPartition.from_labels(
            space, np.array([2, 1, 0, 1, -1]), 4, labels=labels, level=0
        )
        # cell 1 has only a zero-weight site and cell 3 no site at all.
        assert np.array_equal(part.cell_of, [1, -1, 0, -1, -1])
        assert np.array_equal(part.masses, [2.0, 1.0])
        assert np.array_equal(part.labels, [[10], [12]])


def _reference_cells(weights, cells):
    """Positive-mass cells as Python sets, in candidate order."""
    return [set(c) for c in cells if c and sum(weights[i] for i in c) > 0]


@st.composite
def partitions_with_restrictions(draw):
    size = draw(st.integers(1, 24))
    weights = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), min_size=size, max_size=size))
    )
    assume(weights.sum() > 0)
    n_candidates = draw(st.integers(1, 8))
    owner = draw(st.lists(st.integers(-1, n_candidates - 1), min_size=size, max_size=size))
    cells = [[i for i in range(size) if owner[i] == c] for c in range(n_candidates)]
    assume(_reference_cells(weights, cells))
    keep = draw(st.lists(st.integers(0, size - 1), max_size=size))
    return weights, cells, np.array(keep, dtype=np.intp)


class TestPartitionProperties:
    """Label-vector partitions against a brute-force model built from sets."""

    @staticmethod
    def check_against(part, weights, ref):
        size = weights.size
        assert part.n_cells == len(ref)
        cells = [np.flatnonzero(part.cell_of == c) for c in range(part.n_cells)]
        assert [set(c.tolist()) for c in cells] == ref
        assert part.support.tolist() == sorted(set().union(*ref))
        assert np.array_equal(
            part.masses, [sum(weights[i] for i in sorted(c)) for c in ref]
        )
        dense = np.zeros((len(ref), size))
        for c, cell in enumerate(ref):
            dense[c, sorted(cell)] = 1.0
        # Spreading the identity gives the indicator rows.
        assert np.array_equal(part.spread(np.eye(len(ref))), dense)
        assert part.first_sites.tolist() == [min(c) for c in ref]
        TestPartitionProperties.check_kernels(part, weights, ref)

    @staticmethod
    def check_kernels(part, weights, ref):
        """average, spread and cell_sums against per-cell Python sums on a batch."""
        size = weights.size
        space = AmbientSpace(np.arange(float(size)), weights, (np.arange(size),))
        values = np.random.default_rng(size).uniform(-1.0, 1.0, size=(2, 3, size))
        sums = part.cell_sums(values)
        averages = part.average(space, values)
        assert sums.shape == averages.shape == (2, 3, len(ref))
        for c, cell in enumerate(ref):
            sites = sorted(cell)
            # Site order, exactly as a sequential sum over the cell.
            assert np.array_equal(sums[..., c], sum(values[..., x] for x in sites))
            mass = sum(weights[x] for x in sites)
            expected = sum(values[..., x] * weights[x] for x in sites) / mass
            assert np.allclose(averages[..., c], expected, rtol=1e-12, atol=1e-15)
        cell_values = values[..., : len(ref)]
        spread = part.spread(cell_values)
        assert spread.shape == (2, 3, size) and spread.flags.c_contiguous
        owner = {x: c for c, cell in enumerate(ref) for x in cell}
        for x in range(size):
            expected = cell_values[..., owner[x]] if x in owner else np.zeros((2, 3))
            assert np.array_equal(spread[..., x], expected)
        # A single row gives the batch's numbers bit for bit.
        for row in np.ndindex(2, 3):
            assert np.array_equal(part.cell_sums(values[row]), sums[row])
            assert np.array_equal(part.average(space, values[row]), averages[row])
            assert np.array_equal(part.spread(cell_values[row]), spread[row])

    @settings(max_examples=150, deadline=None)
    @given(partitions_with_restrictions())
    # One cell of 13 equal weights: a dense product over the cell
    # indicators averaged row (1, 1) alone in other bits than in the batch.
    @example((np.ones(13), [list(range(13))], np.array([], dtype=np.intp)))
    def test_from_cells_restrict_refines(self, case):
        weights, cells, keep = case
        size = weights.size
        space = AmbientSpace(np.arange(float(size)), weights, (np.arange(size),))
        part = CellPartition.from_cells(space, [np.array(c, dtype=np.intp) for c in cells])
        ref = _reference_cells(weights, cells)
        self.check_against(part, weights, ref)

        kept = set(keep.tolist())
        cut_ref = _reference_cells(weights, [sorted(c & kept) for c in ref])
        if not cut_ref:
            with pytest.raises(PartitionError):
                part.restrict(space, keep)
            return
        cut = part.restrict(space, keep)
        self.check_against(cut, weights, cut_ref)

        def refines_ref(fine, coarse):
            if set().union(*fine) != set().union(*coarse):
                return False
            return all(any(f <= c for c in coarse) for f in fine)

        assert part.refines(part)
        assert cut.refines(part) == refines_ref(cut_ref, ref)
        assert part.refines(cut) == refines_ref(ref, cut_ref)
        # Splitting every cell in two refines it unless a massless half
        # drops out of the support.
        halves = [sorted(c)[start::2] for c in ref for start in (0, 1)]
        halves_ref = _reference_cells(weights, halves)
        finer = CellPartition.from_cells(space, [np.array(h, dtype=np.intp) for h in halves])
        assert finer.refines(part) == refines_ref(halves_ref, ref)
        assert part.refines(finer) == refines_ref(ref, halves_ref)


class TestConditioning:
    def test_average_of_two_equal_weight_points(self):
        space = two_point_space(1.0, 1.0)
        part = CellPartition.from_cells(space, [np.array([0, 1])])
        sf = condition_on_partition(np.array([1.0, 3.0]), part, space)
        assert sf.coefficients == pytest.approx([2.0])

    def test_step_functions_are_fixed_points(self):
        space = uniform_interval_space(64)
        rng = np.random.default_rng(17)
        cells = np.array_split(np.arange(64), 9)
        part = CellPartition.from_cells(space, list(cells))
        sf = StepFunction(part, rng.standard_normal(9))
        again = condition_on_partition(sf.expand(), part, space)
        assert np.max(np.abs(again.coefficients - sf.coefficients)) <= 1e-12

    def test_singleton_partition_recovers_restriction(self):
        space = uniform_interval_space(32)
        rng = np.random.default_rng(23)
        f = rng.standard_normal(32)
        keep = space.exhaustion_set(2)
        sf = condition_on_partition(
            f, CellPartition.singletons(space), space, restrict_to=keep
        )
        masked = np.zeros(32)
        masked[keep] = f[keep]
        assert np.max(np.abs(sf.expand() - masked)) <= 1e-14

    def test_projection_contracts_and_residual_orthogonal(self):
        space = uniform_interval_space(96)
        rng = np.random.default_rng(29)
        cells = np.array_split(np.arange(96), 13)
        part = CellPartition.from_cells(space, list(cells))
        keep = space.exhaustion_set(3)
        for _ in range(10):
            f = rng.standard_normal(96)
            sf = condition_on_partition(f, part, space, restrict_to=keep)
            masked = np.zeros(96)
            masked[keep] = f[keep]
            assert space.norm(sf.expand()) <= space.norm(masked) + 1e-12
            residual = masked - sf.expand()
            for c in range(sf.partition.n_cells):
                indicator = (sf.partition.cell_of == c).astype(float)
                assert abs(space.inner(residual, indicator)) <= 1e-10

    @pytest.mark.parametrize("restrict", [False, True], ids=["whole", "restricted"])
    def test_stack_matches_each_row_alone(self, restrict):
        space = uniform_interval_space(96)
        part = CellPartition.from_cells(space, list(np.array_split(np.arange(96), 13)))
        keep = space.exhaustion_set(3) if restrict else None
        f = np.random.default_rng(31).standard_normal((2, 5, 96))
        stack = condition_on_partition(f, part, space, restrict_to=keep)
        assert stack.coefficients.shape == (2, 5, stack.partition.n_cells)
        for i in np.ndindex(2, 5):
            row = condition_on_partition(f[i], part, space, restrict_to=keep)
            assert np.array_equal(stack.coefficients[i], row.coefficients)
            assert np.array_equal(stack.expand()[i], row.expand())

    def test_last_axis_is_checked(self):
        space = uniform_interval_space(8)
        part = CellPartition.from_cells(space, [np.arange(4)])
        with pytest.raises(DimensionMismatch):
            condition_on_partition(np.ones((3, 7)), part, space)
        with pytest.raises(DimensionMismatch):
            StepFunction(part, np.ones((3, 2)))

    def test_everything_restricted_away_raises(self):
        space = uniform_interval_space(8)
        part = CellPartition.from_cells(space, [np.arange(4)])
        with pytest.raises(PartitionError):
            condition_on_partition(
                np.ones(8), part, space, restrict_to=np.arange(4, 8)
            )


class TestOrthonormalBasis:
    def test_gram_matrix_is_identity(self):
        space = uniform_interval_space(128)
        basis = OrthonormalBasis.haar(space, 8)
        assert basis.orthonormality_residual <= 1e-10

    def test_sloppy_input_rejected_then_repaired(self):
        space = uniform_interval_space(32)
        rng = np.random.default_rng(31)
        raw = rng.standard_normal((3, 32))
        with pytest.raises(ValueError, match="orthonormality"):
            OrthonormalBasis(space, raw)
        fixed = OrthonormalBasis.orthonormalized(space, raw)
        assert fixed.orthonormality_residual <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vectors_rejected(self, bad):
        # A NaN residual used to pass the orthonormality check.
        space = uniform_interval_space(4)
        vectors = np.ones((1, 4))
        vectors[0, 3] = bad
        with pytest.raises(ValueError, match="basis vectors must be finite"):
            OrthonormalBasis(space, vectors)

    def test_dependent_rows_raise(self):
        space = uniform_interval_space(16)
        row = np.ones(16)
        with pytest.raises(ValueError, match="dependent"):
            OrthonormalBasis.orthonormalized(space, np.stack([row, 2.0 * row]))

    def test_more_rows_than_sites_name_the_first_surplus_row(self):
        space = uniform_interval_space(6)
        rows = np.random.default_rng(43).standard_normal((8, 6))
        with pytest.raises(ValueError, match="^input row 6 is numerically dependent$"):
            OrthonormalBasis.orthonormalized(space, rows)

    def test_ill_conditioned_vandermonde_rows_come_out_orthonormal(self):
        space = uniform_interval_space(64)
        rows = np.vander(space.points, 12, increasing=True).T
        basis = OrthonormalBasis.orthonormalized(space, rows)
        assert basis.orthonormality_residual <= 1e-12

    def test_coefficient_synthesis_round_trip(self):
        space = uniform_interval_space(64)
        basis = OrthonormalBasis.haar(space, 6)
        rng = np.random.default_rng(37)
        coeffs = rng.standard_normal(6)
        f = basis.synthesize(coeffs)
        assert basis.coefficients(f) == pytest.approx(coeffs, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=24))
    @example([0.0, 0.5, 0.0, 0.25, 0.25, 0.0, 0.0])
    def test_haar_spends_every_alive_site_around_dead_ones(self, weights):
        # Blocks hold positive-weight sites only, so both halves of a split
        # carry mass and count can reach the number of alive sites.
        weights = np.array(weights)
        alive = weights > 0
        assume(alive.any())
        sites = np.arange(weights.size)
        space = AmbientSpace(sites.astype(float), weights, (sites,))
        basis = OrthonormalBasis.haar(space, int(alive.sum()))
        assert basis.n_vectors == alive.sum()
        assert not basis.vectors[:, ~alive].any()
        assert basis.orthonormality_residual <= 1e-12

    def test_haar_leads_with_the_constant(self):
        space = uniform_interval_space(64)
        basis = OrthonormalBasis.haar(space, 5)
        assert np.ptp(basis.vectors[0]) == pytest.approx(0.0, abs=1e-14)
        for row in basis.vectors[1:]:
            assert space.inner(row, space.constant()) == pytest.approx(0.0, abs=1e-12)


def _builders(plant=None):
    """name -> build: build returns the object and, per stored array, the
    array the caller passed in.  Each array is fresh and writable; with
    ``plant = (input, value)`` the float input so named carries value in
    its first entry."""
    space = uniform_interval_space(4)
    eye = np.eye(4) * 2.0  # orthonormal rows for weights 1/4

    def planted(name, values):
        if plant is not None and plant[0] == name:
            values.flat[0] = plant[1]
        return values

    def ambient():
        points, weights = np.arange(4.0), planted("weights", np.full(4, 0.25))
        sets = (np.arange(2), np.arange(4))
        obj = AmbientSpace(points, weights, sets)
        return [(obj.points, points), (obj.weights, weights)] + list(zip(obj.exhaustion, sets))

    def partition():
        cell_of, masses, labels = np.array([0, 0, 1, -1]), np.array([0.5, 0.25]), np.eye(2, dtype=int)
        obj = CellPartition(cell_of, masses, labels)
        return [(obj.cell_of, cell_of), (obj.masses, masses), (obj.labels, labels)]

    def step():
        coefficients = np.array([1.0, 2.0])
        obj = StepFunction(CellPartition(np.array([0, 0, 1, 1]), np.array([0.5, 0.5])), coefficients)
        return [(obj.coefficients, coefficients)]

    def basis():
        vectors = planted("basis vectors", eye[:2].copy())
        return [(OrthonormalBasis(space, vectors).vectors, vectors)]

    def spectral():
        eigenvalues = np.array([0.0, 1.0])
        obj = SpectralModel("two", space, eigenvalues, OrthonormalBasis(space, eye[:2]))
        return [(obj.eigenvalues, eigenvalues)]

    def kernel():
        P = planted("kernel", np.full((4, 4), 0.25))
        return [(MarkovKernelModel("flat", space, P).kernel, P)]

    def stage_form():
        matrix, subspace = planted("matrix", -np.eye(2)), planted("subspace", eye[:2].copy())
        obj = StageForm(StageIndex(1), matrix, subspace, space)
        return [(obj.matrix, matrix), (obj.subspace, subspace)]

    def test_vector():
        values = planted("test vector 'v'", np.array([1.0, 0.0, 2.0]))
        return [(TestVector("v", values).values, values)]

    def graph():
        mu = planted("vertex_weights", np.ones(2))
        c = planted("conductances", np.array([[0.0, 0.5], [0.5, 0.0]]))
        kappa = planted("killing", np.full(2, 0.5))
        obj = WeightedGraph(mu, c, kappa)
        return [(obj.vertex_weights, mu), (obj.conductances, c), (obj.killing, kappa)]

    builders = [ambient, partition, step, basis, spectral, kernel, stage_form, test_vector, graph]
    return {build.__name__: build for build in builders}


def _frozen_cases():
    return [pytest.param(build, id=name) for name, build in _builders().items()]


# Every float array under the finiteness rule: (builder, input it names).
FINITE_INPUTS = [
    ("ambient", "weights"),
    ("basis", "basis vectors"),
    ("kernel", "kernel"),
    ("stage_form", "matrix"),
    ("stage_form", "subspace"),
    ("test_vector", "test vector 'v'"),
    ("graph", "vertex_weights"),
    ("graph", "conductances"),
    ("graph", "killing"),
]


class TestFrozenArrays:
    @pytest.mark.parametrize("build", _frozen_cases())
    def test_every_type_stores_a_read_only_copy(self, build):
        for stored, given in build():
            assert not stored.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stored[...] = 0
            before = stored.copy()
            given += 1
            assert np.array_equal(stored, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("builder, name", FINITE_INPUTS)
    def test_every_float_array_is_refused_unless_finite(self, builder, name, bad):
        # A test vector used to accept NaN, and the sweep then blamed its first stage.
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite$"):
            _builders(plant=(name, bad))[builder]()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_reader_columns_are_refused_unless_finite(self, bad):
        # The readers' columns go through the same rule, named by field.
        with pytest.raises(ValueError, match="^edge c: values must be finite$"):
            _finite_numbers([1.0, bad], "edge c")
