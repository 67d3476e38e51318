"""The four approximation stages: forms, projections, partitions, generators."""
import math

import numpy as np
import pytest

from mosco_graphs import (
    AmbientSpace,
    DimensionMismatch,
    OrthonormalBasis,
    SpectralModel,
    Stage,
    StageForm,
    StageIndex,
    birth_death_model,
    final_stage_graph,
    galerkin_projection,
    level_partition,
    neumann_model,
    ring_model,
    semigroup_form,
    stage_generator,
    uniform_interval_space,
)


class TestStageIndex:
    def test_dependency_chain_enforced(self):
        StageIndex(3)
        StageIndex(3, 2)
        StageIndex(3, 2, 1)
        StageIndex(3, 2, 1, 0)
        with pytest.raises(ValueError, match="l requires m"):
            StageIndex(3, None, 1)
        with pytest.raises(ValueError, match="k requires l"):
            StageIndex(3, 2, None, 1)
        with pytest.raises(ValueError):
            StageIndex(-1)
        # 2^n must stay a finite float: 2.0**1024 overflows.
        assert StageIndex(1023).bound == 2.0**1023
        with pytest.raises(ValueError, match="n must be in 0..1023"):
            StageIndex(1024)
        with pytest.raises(ValueError):
            StageIndex(2, 0)
        # True used to pass as 1 and be labelled nTrue_mTrue.
        with pytest.raises(ValueError, match="n must be an integer, got True"):
            StageIndex(True, True)
        with pytest.raises(ValueError, match="k must be an integer, got False"):
            StageIndex(3, 2, 1, False)

    def test_k_beyond_31_is_refused(self):
        # The overflow cell label -4**k - 1 must fit an int64.
        assert StageIndex(4, 8, 4, 31).k == 31
        with pytest.raises(ValueError, match="k must be in 0..31, got 32"):
            StageIndex(4, 8, 4, 32)

    def test_labels_and_bounds(self):
        ix = StageIndex(4, 8, 2, 3)
        assert ix.label() == "n4_m8_l2_k3"
        assert ix.time == 2.0**-4
        assert ix.bound == 16.0
        assert StageIndex(5).label() == "n5"

    def test_validation_against_model(self):
        model = neumann_model(128, 8)
        with pytest.raises(DimensionMismatch, match=r"m must be in 1\.\.8, got 9"):
            StageIndex(2, 9).validate_for(model, model.basis)
        with pytest.raises(ValueError, match=r"l must be in 1\.\.4, got 7"):
            StageIndex(2, 4, 7).validate_for(model, model.basis)
        # Stage and final_stage_graph both go through validate_for.
        foreign = neumann_model(128, 8).basis
        with pytest.raises(ValueError, match="share one ambient space"):
            Stage(model, foreign, StageIndex(2, 4))
        with pytest.raises(ValueError, match="share one ambient space"):
            final_stage_graph(model, foreign, StageIndex(2, 4, 2, 2))


class TestOneMRange:
    """Every path that takes the first m basis vectors states one rule."""

    @pytest.mark.parametrize("m", [0, 9])
    def test_a_bad_m_fails_alike_on_every_path(self, m):
        model = neumann_model(128, 8)
        basis, f = model.basis, np.ones(128)
        paths = [
            lambda: basis.coefficients(f, m),
            lambda: galerkin_projection(basis, m, f),
            lambda: level_partition(basis, m, 2),
        ]
        if m > 0:  # StageIndex refuses m = 0 itself
            paths.append(lambda: StageIndex(2, m).validate_for(model, basis))
        for path in paths:
            with pytest.raises(DimensionMismatch) as caught:
                path()
            assert type(caught.value) is DimensionMismatch
            assert str(caught.value) == f"m must be in 1..8, got {m}"


class TestSemigroupForm:
    def test_eigenvector_closed_form(self):
        model = neumann_model(256, 16)
        for k in (1, 5):
            lam = model.eigenvalues[k]
            for n in (0, 4, 12):
                expected = 2.0**n * -math.expm1(-lam * 2.0**-n)
                value = semigroup_form(model, n, model.basis.vectors[k])
                assert value == pytest.approx(expected, rel=1e-12)

    def test_constants_are_free_on_conservative_models(self):
        model = neumann_model(256, 16)
        assert semigroup_form(model, 6, model.space.constant()) <= 1e-13

    def test_values_climb_toward_the_exact_energy(self):
        model = neumann_model(512, 32)
        rng = np.random.default_rng(21)
        f = model.basis.synthesize(rng.standard_normal(32) * 0.5 ** np.arange(32))
        exact = model.exact_form(f)
        previous = -1.0
        for n in range(0, 31):
            value = semigroup_form(model, n, f)
            assert value >= previous - 1e-12
            assert value <= exact + 1e-10
            previous = value
        assert exact - previous <= 1e-5 * max(exact, 1.0)

    def test_off_span_mass_pays_full_rate(self):
        model = neumann_model(128, 4)
        rng = np.random.default_rng(23)
        f = rng.standard_normal(128)
        f_perp = f - model.basis.synthesize(model.basis.coefficients(f))
        n = 7
        expected = 2.0**n * model.space.inner(f_perp, f_perp)
        assert semigroup_form(model, n, f_perp) == pytest.approx(expected, rel=1e-12)


class TestLevelGrid:
    @pytest.mark.parametrize(
        "build", [lambda: neumann_model(128, 16), lambda: ring_model(128, 16),
                  lambda: birth_death_model(sites=16)],
        ids=["neumann", "ring", "birth_death"],
    )
    def test_level_grid_equals_the_per_level_calls_bit_for_bit(self, build):
        model = build()
        f = np.random.default_rng(25).standard_normal((6, model.space.size))
        levels = np.arange(31)
        grid = semigroup_form(model, levels[:, None], f)
        assert grid.shape == (31, 6)
        for n in levels:
            assert np.array_equal(grid[n], semigroup_form(model, int(n), f))

    def test_negative_level_in_an_array_is_refused(self):
        model = neumann_model(64, 4)
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            semigroup_form(model, np.array([[0], [-1], [2]]), np.ones((2, 64)))

    def test_levels_that_do_not_broadcast_are_a_dimension_mismatch(self):
        model = neumann_model(64, 4)
        with pytest.raises(DimensionMismatch, match=r"levels \(3,\) for functions \(2, 64\)"):
            semigroup_form(model, np.array([1, 2, 3]), np.ones((2, 64)))


class TestGalerkinProjection:
    def test_keeps_early_modes_drops_late_ones(self):
        model = neumann_model(128, 8)
        basis = model.basis
        kept = galerkin_projection(basis, 4, basis.vectors[2])
        assert np.max(np.abs(kept - basis.vectors[2])) <= 1e-13
        dropped = galerkin_projection(basis, 4, basis.vectors[6])
        assert np.max(np.abs(dropped)) <= 1e-13
        mixed = galerkin_projection(basis, 4, basis.vectors[1] + basis.vectors[5])
        assert np.max(np.abs(mixed - basis.vectors[1])) <= 1e-13

    def test_idempotent_contraction(self):
        model = neumann_model(128, 8)
        rng = np.random.default_rng(25)
        f = rng.standard_normal(128)
        once = galerkin_projection(model.basis, 5, f)
        twice = galerkin_projection(model.basis, 5, once)
        assert np.max(np.abs(twice - once)) <= 1e-13
        assert model.space.norm(once) <= model.space.norm(f) + 1e-12

    def test_range_guard(self):
        model = neumann_model(128, 8)
        with pytest.raises(DimensionMismatch):
            galerkin_projection(model.basis, 9, np.ones(128))


class TestSigmaTruncation:
    """The exhaustion mask the l-stage multiplies its images by."""

    def test_top_level_is_identity(self):
        space = uniform_interval_space(64)
        rng = np.random.default_rng(27)
        f = rng.standard_normal(64)
        assert np.array_equal(f * space.exhaustion_mask(space.l_max), f)

    def test_outside_support_vanishes(self):
        space = uniform_interval_space(64)
        f = np.zeros(64)
        f[40:] = 3.0  # X_2 is the first half of the grid
        assert np.max(np.abs(f * space.exhaustion_mask(2))) == 0.0

    def test_masked_norm_grows_with_the_level(self):
        space = uniform_interval_space(128)
        rng = np.random.default_rng(29)
        for _ in range(5):
            f = rng.standard_normal(128)
            norms = [
                float(space.norm(f * space.exhaustion_mask(l)))
                for l in range(1, space.l_max + 1)
            ]
            assert all(b >= a - 1e-14 for a, b in zip(norms, norms[1:]))

    def test_level_out_of_range(self):
        space = uniform_interval_space(16)
        with pytest.raises(ValueError):
            space.exhaustion_mask(5)


class TestLevelPartition:
    def test_constant_function_lands_in_one_cell(self):
        model = neumann_model(64, 4)
        part = level_partition(model.basis, 1, 1)
        assert part.n_cells == 1
        assert part.masses[0] == pytest.approx(1.0)

    def test_k_beyond_31_is_refused(self):
        model = neumann_model(64, 4)
        assert level_partition(model.basis, 4, 31).level == 31
        with pytest.raises(ValueError, match="k must be in 0..31, got 32"):
            level_partition(model.basis, 4, 32)

    def test_half_open_windows_and_tails(self):
        # Weights chosen so the raw row is already unit norm, keeping the
        # sampled values exactly on the window edges they are meant to probe.
        values = np.array([-2.0, -0.5, 0.0, 0.5, 2.0, 2.2, 3.1, -2.6])
        weights = np.full(8, 1.0 / float(np.sum(values**2)))
        space = AmbientSpace(np.arange(8.0), weights, (np.arange(8),))
        basis = OrthonormalBasis(space, values[None, :])
        part = level_partition(basis, 1, 1)
        label_of = {}
        for c in range(part.n_cells):
            for site in np.flatnonzero(part.cell_of == c):
                label_of[site] = int(part.labels[c][0])
        # Windows at depth 1 have width 1/2; -2 sits in the lower tail,
        # +2 tops the last regular window, and 0 closes (-1/2, 0].
        assert label_of[0] == -5
        assert label_of[1] == -2
        assert label_of[2] == -1
        assert label_of[3] == 0
        assert label_of[4] == 3
        # Every value above 2^k shares the one upper overflow cell, and
        # every value at or below -2^k the lower one.
        assert label_of[5] == label_of[6] == 4
        assert part.cell_of[5] == part.cell_of[6]
        assert label_of[7] == -5 and part.cell_of[7] == part.cell_of[0]
        tails = part.tail_mask
        assert tails[part.cell_of[0]]
        assert not tails[part.cell_of[4]]

    def test_boundary_values_share_the_inclusive_upper_edge(self):
        values = np.array([0.0, 0.5, -2.0, 0.25])
        weights = np.full(4, 1.0 / float(np.sum(values**2)))
        space = AmbientSpace(np.arange(4.0), weights, (np.arange(4),))
        basis = OrthonormalBasis(space, values[None, :])
        part = level_partition(basis, 1, 1)
        cell_of = part.cell_of
        # 1/2 is the top edge of (0, 1/2] and 1/4 is interior to it.
        assert cell_of[1] == cell_of[3]
        assert cell_of[0] != cell_of[1]
        assert int(part.labels[cell_of[2]][0]) == -5

    def test_tail_mass_is_small_for_unit_vectors(self):
        model = neumann_model(512, 32)
        for m, k in ((4, 2), (16, 4), (32, 6)):
            part = level_partition(model.basis, m, k)
            tail = float(part.masses[part.tail_mask].sum())
            assert tail <= m * 2.0 ** (-2 * k) + 1e-15

    def test_oscillation_inside_regular_cells(self):
        model = neumann_model(512, 16)
        for k in (2, 4):
            part = level_partition(model.basis, 8, k)
            tail = part.tail_mask
            for c in range(part.n_cells):
                if tail[c]:
                    continue
                cell = np.flatnonzero(part.cell_of == c)
                chunk = model.basis.vectors[:8, cell]
                spread = np.max(chunk, axis=1) - np.min(chunk, axis=1)
                assert np.max(spread) <= 2.0**-k + 1e-12

    def test_refinement_along_both_axes(self):
        model = neumann_model(256, 16)
        base = level_partition(model.basis, 4, 2)
        finer_k = level_partition(model.basis, 4, 3)
        finer_m = level_partition(model.basis, 6, 2)
        assert finer_k.refines(base)
        assert finer_m.refines(base)
        assert not base.refines(finer_k)


class TestStageForms:
    def test_matches_projected_semigroup_form(self):
        model = neumann_model(256, 16)
        rng = np.random.default_rng(31)
        f = rng.standard_normal(256)
        for m in (2, 7):
            via_stage = Stage(model, model.basis, StageIndex(5, m)).form(f)
            direct = semigroup_form(
                model, 5, galerkin_projection(model.basis, m, f)
            )
            assert via_stage == pytest.approx(direct, rel=1e-14, abs=1e-14)

    def test_vanishes_off_the_galerkin_block(self):
        model = neumann_model(256, 16)
        f = model.basis.vectors[9]
        assert Stage(model, model.basis, StageIndex(4, 6)).form(f) <= 1e-13

    def test_deep_index_recovers_the_bare_form(self):
        model = neumann_model(512, 16)
        f = model.basis.vectors[1]
        deep = Stage(model, model.basis, StageIndex(6, 16, model.space.l_max, 8)).form(f)
        bare = semigroup_form(model, 6, f)
        assert deep == pytest.approx(bare, rel=1e-3)

    def test_top_mask_level_recovers_the_unmasked_stage(self):
        # The masked form need not approach the unmasked one monotonically
        # (cutting a smooth projection can cost more energy than keeping
        # it), but at the top level the mask is the identity.
        model = neumann_model(256, 16)
        rng = np.random.default_rng(33)
        f = rng.standard_normal(256)
        masked = Stage(model, model.basis, StageIndex(4, 8, model.space.l_max)).form(f)
        unmasked = Stage(model, model.basis, StageIndex(4, 8)).form(f)
        assert masked == pytest.approx(unmasked, rel=1e-12)

    def test_masked_stage_projections_live_on_the_slab(self):
        model = neumann_model(256, 16)
        rng = np.random.default_rng(34)
        f = rng.standard_normal(256)
        for l in (1, 2, 3):
            stage = Stage(model, model.basis, StageIndex(4, 8, l))
            g = stage.project(f)
            outside = ~model.space.exhaustion_mask(l).astype(bool)
            assert np.max(np.abs(g[outside])) == 0.0

    def test_bounds_hold_for_random_inputs(self):
        model = neumann_model(256, 16)
        rng = np.random.default_rng(35)
        fs = rng.standard_normal((50, 256))
        caps = 2.0**4 * model.space.norm(fs) ** 2
        for ix in (StageIndex(4), StageIndex(4, 8), StageIndex(4, 8, 2), StageIndex(4, 8, 2, 3)):
            values = np.atleast_1d(Stage(model, model.basis, ix).form(fs))
            assert np.min(values) >= -1e-12
            assert np.all(values <= caps * (1.0 + 1e-12) + 1e-12)


class TestStageGenerators:
    def test_bare_stage_diagonalizes_in_the_eigenbasis(self):
        model = neumann_model(256, 16)
        n = 5
        sf = stage_generator(model, model.basis, StageIndex(n))
        expected = -(2.0**n) * -np.expm1(-model.eigenvalues * 2.0**-n)
        eigs = np.sort(np.linalg.eigvalsh(sf.matrix))
        assert np.max(np.abs(eigs - np.sort(expected))) <= 1e-10

    def test_constants_in_the_kernel_at_full_mask(self):
        # With l below the top level the constant gets clipped to a slab
        # indicator, which does carry energy; at the top level the stage
        # must leave constants alone on a conservative model.
        model = birth_death_model(sites=32)
        top = model.space.l_max
        sf = stage_generator(model, model.basis, StageIndex(4, 8, top, 2))
        image = sf.coefficients(model.space.constant()) @ sf.matrix @ sf.subspace
        assert model.space.norm(image) <= 1e-10
        clipped = stage_generator(model, model.basis, StageIndex(4, 8, 2, 2))
        assert clipped.quad_form(model.space.constant()) > 1e-6

    def test_quadratic_form_agrees_with_stage_form(self):
        model = neumann_model(256, 16)
        rng = np.random.default_rng(37)
        for ix in (StageIndex(3, 6), StageIndex(6, 10, 2), StageIndex(8, 12, 3, 3)):
            sf = stage_generator(model, model.basis, ix)
            stage = Stage(model, model.basis, ix)
            for _ in range(20):
                f = rng.standard_normal(256)
                assert sf.quad_form(f) == pytest.approx(
                    stage.form(f), rel=1e-10, abs=1e-10
                )

    def test_bare_stage_agrees_on_the_span(self):
        model = neumann_model(256, 16)
        rng = np.random.default_rng(39)
        sf = stage_generator(model, model.basis, StageIndex(4))
        f = model.basis.synthesize(rng.standard_normal(16))
        assert sf.quad_form(f) == pytest.approx(
            semigroup_form(model, 4, f), rel=1e-12
        )

    def test_deep_galerkin_stage_is_its_eigenvalue_diagonal(self):
        # With the model's own basis the images sit in the spectral span,
        # so only rounding is off it.  Scaled by 2^60 inside the image
        # products, that rounding once made this stage fail the NSD check
        # with a positive eigenvalue near 6e2.
        model = neumann_model(128, 16)
        index = StageIndex(60, 8)
        matrix = Stage(model, model.basis, index).form_data.matrix
        expected = np.diag(-index.bound * model.decay(index.time)[:8])
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(matrix - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "built, level",
        [
            (StageIndex(2), 9),
            (StageIndex(4, 8), 0),
            (StageIndex(6, 10, 2), 3),
            (StageIndex(8, 12, 3, 3), 12),
        ],
        ids=["n", "n-m", "n-m-l", "n-m-l-k"],
    )
    def test_at_n_equals_a_fresh_stage(self, built, level):
        # at(n) reuses the n-free projection; nothing it produces may
        # differ by a bit from a stage built at n from scratch.
        model = neumann_model(256, 16)
        f = np.random.default_rng(41).standard_normal((3, 256))
        moved = Stage(model, model.basis, built).at(level)
        fresh = Stage(model, model.basis, StageIndex(level, built.m, built.l, built.k))
        assert moved.index == fresh.index
        assert np.array_equal(moved.form_data.matrix, fresh.form_data.matrix)
        assert np.array_equal(moved.images, fresh.images)
        assert np.array_equal(moved.form(f), fresh.form(f))

    def test_construction_guards(self):
        space = uniform_interval_space(8)
        basis = OrthonormalBasis.haar(space, 2)
        good = np.array([[-1.0, 0.0], [0.0, -2.0]])
        StageForm(
            index=StageIndex(0, 2), matrix=good, subspace=basis.vectors,
            space=space,
        )
        with pytest.raises(ValueError, match="asymmetry"):
            StageForm(
                index=StageIndex(0, 2),
                matrix=np.array([[-1.0, 0.5], [0.0, -2.0]]),
                subspace=basis.vectors,
                space=space,
            )
        with pytest.raises(ValueError, match="semidefinite"):
            StageForm(
                index=StageIndex(0, 2),
                matrix=np.array([[1.0, 0.0], [0.0, -2.0]]),
                subspace=basis.vectors,
                space=space,
            )
        with pytest.raises(DimensionMismatch):
            StageForm(
                index=StageIndex(0, 2),
                matrix=np.zeros((3, 3)),
                subspace=basis.vectors,
                space=space,
            )

    @pytest.mark.parametrize("scale", [1.0, 2.0**40])
    def test_guards_scale_with_the_generator_norm(self, scale):
        # Rounding grows with ||A||, about 2^n, so the asymmetry and the
        # positive eigenvalue a guard lets through grow with it too.
        space = uniform_interval_space(8)
        basis = OrthonormalBasis.haar(space, 2)

        def build(matrix):
            return StageForm(StageIndex(0, 2), scale * np.array(matrix), basis.vectors, space)

        assert build([[1e-16, 0.0], [0.0, -1.0]]).norm == scale
        build([[-1.0, 1e-16], [0.0, -1.0]])
        with pytest.raises(ValueError, match="positive eigenvalue .* negative semidefinite"):
            build([[1e-8, 0.0], [0.0, -1.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            build([[-1.0, 1e-8], [0.0, -1.0]])

    @pytest.mark.parametrize(
        "name, matrix, site",
        [
            ("matrix", [[np.nan, 0.0], [0.0, -1.0]], None),
            ("matrix", [[-1.0, np.inf], [np.inf, -1.0]], None),
            ("matrix", [[-1.0, -np.inf], [-np.inf, -1.0]], None),
            ("subspace", [[-1.0, 0.0], [0.0, -1.0]], 3),
        ],
        ids=["nan-matrix", "inf-matrix", "minus-inf-matrix", "nan-subspace"],
    )
    def test_non_finite_inputs_are_refused_by_name(self, name, matrix, site):
        # They used to be accepted, and a resolvent then failed inside scipy
        # naming no field; a NaN norm would make every scaled guard pass.
        space = uniform_interval_space(8)
        subspace = np.array(OrthonormalBasis.haar(space, 2).vectors)
        if site is not None:
            subspace[1, site] = np.nan
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            StageForm(StageIndex(0, 2), np.array(matrix), subspace, space)
