"""Resolvent comparisons, sweeps, and the convergence verdict helpers."""
import numpy as np
import pytest
import scipy.linalg

from mosco_graphs import (
    OrthonormalBasis,
    SolverError,
    ResolventProbe,
    Stage,
    StageForm,
    StageIndex,
    SweepGrid,
    TestVector,
    birth_death_model,
    default_test_battery,
    eventually_nonincreasing,
    iterated_limit_sweep,
    neumann_model,
    resolvent_error,
    semigroup_form,
    stage_generator,
    stage_resolvent,
    uniform_interval_space,
)
from mosco_graphs import convergence, pipeline


class TestStageResolvent:
    def test_zero_generator_divides_by_lambda(self):
        space = uniform_interval_space(32)
        basis = OrthonormalBasis.haar(space, 4)
        sf = StageForm(
            index=StageIndex(0, 4),
            matrix=np.zeros((4, 4)),
            subspace=basis.vectors,
            space=space,
        )
        rng = np.random.default_rng(61)
        f = rng.standard_normal(32)
        for lam in (0.5, 1.0, 3.0):
            assert np.allclose(stage_resolvent(sf, lam, f), f / lam, atol=1e-13)

    def test_diagonal_generator_shifts_each_mode(self):
        space = uniform_interval_space(32)
        basis = OrthonormalBasis.haar(space, 2)
        sf = StageForm(
            index=StageIndex(0, 2),
            matrix=np.diag([-1.0, -3.0]),
            subspace=basis.vectors,
            space=space,
        )
        lam = 2.0
        for mode, d in ((0, 1.0), (1, 3.0)):
            out = stage_resolvent(sf, lam, basis.vectors[mode])
            assert np.allclose(out, basis.vectors[mode] / (lam + d), atol=1e-13)

    def test_positive_lambda_required(self):
        space = uniform_interval_space(8)
        basis = OrthonormalBasis.haar(space, 2)
        sf = StageForm(
            index=StageIndex(0, 2),
            matrix=np.zeros((2, 2)),
            subspace=basis.vectors,
            space=space,
        )
        for lam in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lambda"):
                stage_resolvent(sf, lam, np.ones(8))

    @pytest.mark.parametrize(
        "lam, needle",
        [(0.0, "positive"), (-1.0, "positive"), (np.nan, "a finite float"), (np.inf, "a finite float")],
    )
    def test_lambda_is_refused_by_the_one_rule(self, lam, needle):
        space = uniform_interval_space(8)
        sf = StageForm(StageIndex(0, 1), np.zeros((1, 1)), space.constant()[None], space)
        with pytest.raises(ValueError, match=f"^lambda: resolvent parameter must be {needle}$"):
            stage_resolvent(sf, lam, np.ones(8))

    def test_batched_rows_match_single_vectors(self, neumann_small):
        sf = stage_generator(
            neumann_small, neumann_small.basis, StageIndex(6, 10, 3, 4)
        )
        rng = np.random.default_rng(59)
        stack = rng.standard_normal((2, 3, 256))
        batched = stage_resolvent(sf, 1.5, stack)
        assert batched.shape == stack.shape
        for f, row in zip(stack.reshape(-1, 256), batched.reshape(-1, 256)):
            np.testing.assert_allclose(row, stage_resolvent(sf, 1.5, f), rtol=0, atol=1e-13)
        flat = stage_resolvent(sf, 1.5, stack.reshape(-1, 256))
        assert np.array_equal(flat, batched.reshape(-1, 256))

    def test_probe_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            TestVector("zero", np.zeros(4))
        vec = TestVector("v", np.ones(4))
        for lam, needle in (
            (0.0, "^lambda: resolvent parameter must be positive$"),
            (np.nan, "^lambda: resolvent parameter must be a finite float$"),
            (np.inf, "^lambda: resolvent parameter must be a finite float$"),
        ):
            with pytest.raises(ValueError, match=needle):
                ResolventProbe(lam, (vec,))
        with pytest.raises(ValueError, match="at least one"):
            ResolventProbe(1.0, ())


class TestResolventError:
    def test_bare_stage_at_extreme_depth_is_spectrally_sharp(self, neumann_small):
        rng = np.random.default_rng(63)
        f = neumann_small.basis.synthesize(
            rng.standard_normal(16) * 0.8 ** np.arange(16)
        )
        f /= neumann_small.space.norm(f)
        sf = stage_generator(neumann_small, neumann_small.basis, StageIndex(30))
        errs = resolvent_error(
            neumann_small, sf, ResolventProbe(1.0, (TestVector("span", f),))
        )
        assert errs["span"] <= 1e-8

    def test_off_span_mass_cancels_exactly(self, neumann_small):
        rng = np.random.default_rng(65)
        f = rng.standard_normal(256)
        f -= neumann_small.basis.synthesize(neumann_small.basis.coefficients(f))
        sf = stage_generator(neumann_small, neumann_small.basis, StageIndex(8))
        errs = resolvent_error(
            neumann_small, sf, ResolventProbe(1.0, (TestVector("perp", f),))
        )
        assert errs["perp"] <= 1e-14

    def test_deep_errors_fall_with_n(self, neumann_small):
        probe = ResolventProbe(
            1.0, (TestVector("basis_1", neumann_small.basis.vectors[1]),)
        )
        errs = []
        for n in (2, 4, 6, 8, 10, 12):
            sf = stage_generator(
                neumann_small, neumann_small.basis, StageIndex(n, 16, 4, 8)
            )
            errs.append(resolvent_error(neumann_small, sf, probe)["basis_1"])
        ok, offender = eventually_nonincreasing(errs)
        assert ok, f"errors {errs} rise at position {offender}"
        assert errs[-1] <= 1e-3

    def test_lambda_doubling_cannot_double_the_error(self, neumann_small):
        sf = stage_generator(
            neumann_small, neumann_small.basis, StageIndex(6, 10, 3, 4)
        )
        rng = np.random.default_rng(67)
        vectors = (
            TestVector("basis_1", neumann_small.basis.vectors[1]),
            TestVector("noise", rng.standard_normal(256)),
        )
        e1 = resolvent_error(neumann_small, sf, ResolventProbe(1.0, vectors))
        e2 = resolvent_error(neumann_small, sf, ResolventProbe(2.0, vectors))
        for name in e1:
            assert e2[name] <= 2.0 * e1[name] + 1e-12

    def test_resolvent_identity_and_contraction(self, neumann_small):
        sf = stage_generator(
            neumann_small, neumann_small.basis, StageIndex(6, 10, 3, 4)
        )
        rng = np.random.default_rng(69)
        space = neumann_small.space
        for _ in range(10):
            f = rng.standard_normal(256)
            g2 = stage_resolvent(sf, 2.0, f)
            lhs = stage_resolvent(sf, 1.0, f) - g2
            rhs = (2.0 - 1.0) * stage_resolvent(sf, 1.0, g2)
            assert float(space.norm(lhs - rhs)) <= 1e-9
            for lam in (0.5, 1.0, 4.0):
                out = lam * stage_resolvent(sf, lam, f)
                assert float(space.norm(out)) <= float(space.norm(f)) * (1 + 1e-10)


class TestEventuallyNonincreasing:
    def test_never_activating_passes_vacuously(self):
        assert eventually_nonincreasing([1.0, 0.9, 0.95, 0.8]) == (True, None)

    def test_violation_is_located(self):
        ok, offender = eventually_nonincreasing([1.0, 0.4, 0.5])
        assert not ok and offender == 2

    def test_plateau_within_slack_passes(self):
        assert eventually_nonincreasing([1.0, 0.4, 0.41])[0]
        assert eventually_nonincreasing([1.0, 0.0, 0.0])[0]

    def test_clean_decay_passes(self):
        assert eventually_nonincreasing([1.0, 0.5, 0.25, 0.125])[0]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            eventually_nonincreasing([])


class TestMoscoCheck:
    # Stage energies of a fixed span vector along a grid diagonal: the
    # constant recovery sequence of the limsup half of Mosco convergence.
    DIAGONAL = (
        StageIndex(2, 2, 4, 1),
        StageIndex(4, 4, 4, 2),
        StageIndex(6, 6, 4, 3),
        StageIndex(8, 8, 4, 4),
        StageIndex(10, 12, 4, 6),
        StageIndex(12, 16, 4, 8),
    )

    def diagonal_forms(self, model, f):
        return [float(Stage(model, model.basis, ix).form(f)) for ix in self.DIAGONAL]

    def test_first_eigenvector_diagonal(self, neumann_full, frozen_reference):
        f = neumann_full.basis.vectors[1]
        values = self.diagonal_forms(neumann_full, f)
        exact = float(neumann_full.exact_form(f))
        assert max(v - exact for v in values) <= 1e-9
        assert abs(exact - values[-1]) <= 1.5 * frozen_reference["terminal_form_gap"]

    def test_constant_rides_along_freely(self, neumann_full):
        f = neumann_full.space.constant()
        values = self.diagonal_forms(neumann_full, f)
        exact = float(neumann_full.exact_form(f))
        assert abs(exact) <= 1e-20
        assert max(values) <= 1e-12
        assert abs(exact - values[-1]) <= 1e-12


class TestMaskLevelDirection:
    def test_no_universal_monotonicity_in_the_mask(self):
        # One probe climbs with l (restoring the projection's tail adds
        # its oscillation energy) while the constant must fall to zero at
        # the top level after paying cut costs below it.  Both directions
        # are legitimate, which is why no audit pins an l-ordering.
        model = birth_death_model(sites=64)
        bump = np.zeros(64)
        bump[4:12] = np.hanning(8)
        climbing = [
            Stage(model, model.basis, StageIndex(6, 8, l, 6)).form(bump)
            for l in range(1, 5)
        ]
        assert climbing[-1] > climbing[0] * 1.2
        falling = [
            Stage(model, model.basis, StageIndex(6, 8, l, 6)).form(model.space.constant())
            for l in range(1, 5)
        ]
        assert min(falling[:3]) > 1e-6
        assert falling[3] <= 1e-12


class TestMonotonicityAudit:
    """2^n <f - P_{2^-n} f, f> grows with n: the dyadic forms are monotone."""

    @staticmethod
    def values(model, f, levels):
        return [float(semigroup_form(model, n, f)) for n in levels]

    def test_eigenvector_values_climb_strictly(self, neumann_small):
        values = self.values(neumann_small, neumann_small.basis.vectors[3], range(0, 12))
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_constant_stays_at_zero(self, neumann_small):
        values = self.values(neumann_small, neumann_small.space.constant(), (0, 4, 8))
        assert all(a - b <= 1e-12 for a, b in zip(values, values[1:]))
        assert max(abs(v) for v in values) <= 1e-12

    def test_random_span_vectors_pass(self, neumann_small):
        rng = np.random.default_rng(73)
        for _ in range(5):
            f = neumann_small.basis.synthesize(rng.standard_normal(16))
            values = self.values(neumann_small, f, range(0, 10))
            assert all(a - b <= 1e-12 for a, b in zip(values, values[1:])), values


class TestSweep:
    def make_inputs(self):
        model = neumann_model(64, 8)
        rng = np.random.default_rng(75)
        battery = [
            TestVector("a", model.basis.vectors[1]),
            TestVector("b", rng.standard_normal(64)),
        ]
        grid = SweepGrid(n=(2, 4), m=(2, 4), l=(1, 2), k=(1,))
        return model, battery, grid

    def test_records_follow_grid_order(self):
        model, battery, grid = self.make_inputs()
        records = iterated_limit_sweep(
            model, model.basis, grid, battery, lambdas=(1.0, 2.0)
        )
        indices = grid.indices()
        assert len(records) == len(indices) * 2 * 2
        expected = [
            (ix.label(), lam, vec.name)
            for ix in indices
            for lam in (1.0, 2.0)
            for vec in battery
        ]
        got = [(r.index.label(), r.lam, r.vector_name) for r in records]
        assert got == expected

    def test_records_equal_resolvent_error_bit_for_bit(self, neumann_small):
        # The sweep splits the battery and takes every n's forms once per
        # projection, and resolvent_error goes through the same guarded
        # solve, so not a bit may differ from a stage built at n or from a
        # projection moved there with at(n), on either basis.
        model = neumann_small
        haar = OrthonormalBasis.haar(model.space, 16)
        for basis, grid, size in (
            (model.basis, SweepGrid(n=(2, 6, 12), m=(4, 16), l=(2, 4), k=(2, 8)), 720),
            (model.basis, SweepGrid(n=(0, 3, 9)), 90),
            (haar, SweepGrid(n=(1, 5, 10), m=(4, 16), l=(2, 4), k=(3,)), 360),
        ):
            battery = default_test_battery(model, basis, np.random.default_rng(7))
            stack = np.stack([vec.values for vec in battery])
            records = iterated_limit_sweep(model, basis, grid, battery, lambdas=(1.0, 2.0))
            assert len(records) == size
            expected, first = {}, {}
            for ix in grid.indices():
                stage = Stage(model, basis, ix)
                forms = stage.form(stack)
                moved = first.setdefault((ix.m, ix.l, ix.k), stage).at(ix.n)
                assert np.array_equal(moved.form(stack), forms)
                for lam in (1.0, 2.0):
                    errs = resolvent_error(model, stage.form_data, ResolventProbe(lam, battery))
                    for v, vec in enumerate(battery):
                        expected[ix, lam, vec.name] = (errs[vec.name], forms[v])
            for r in records:
                got = (r.resolvent_error, r.form_value)
                assert got == expected[r.index, r.lam, r.vector_name], r

    def test_one_projection_build_per_m_l_k(self, neumann_small, monkeypatch):
        # The benchmark's run grid: 96 points over 16 distinct (m, l, k).
        built = []
        original = pipeline.Stage.__init__

        def counting(self, model, basis, index):
            built.append(index)
            original(self, model, basis, index)

        monkeypatch.setattr(pipeline.Stage, "__init__", counting)
        model = neumann_small
        battery = [TestVector("a", model.basis.vectors[1])]
        grid = SweepGrid(n=(2, 4, 6, 8, 10, 12), m=(2, 4, 8, 16), l=(2, 4), k=(2, 8))
        records = iterated_limit_sweep(model, model.basis, grid, battery)
        assert len(records) == 96
        assert len(built) == 16
        assert len({(ix.m, ix.l, ix.k) for ix in built}) == 16

    def test_repeated_vector_names_are_refused(self):
        # resolvent_error keys its result by name, so a repeat would merge
        # two vectors there while the sweep kept a record for each.
        model, battery, grid = self.make_inputs()
        twins = [battery[0], TestVector("a", battery[1].values)]
        with pytest.raises(ValueError, match="name 'a' is repeated"):
            iterated_limit_sweep(model, model.basis, grid, twins)
        with pytest.raises(ValueError, match="name 'a' is repeated"):
            ResolventProbe(1.0, twins)

    @pytest.mark.parametrize(
        "lambdas, needle",
        [
            ((), "^lambdas: expected at least one resolvent parameter$"),
            ((1.0, 1.0), r"^lambdas\[1\]: 1.0 repeats an earlier resolvent parameter$"),
            ((1.0, np.nan), r"^lambdas\[1\]: resolvent parameter must be a finite float$"),
            ((-1.0,), r"^lambdas\[0\]: resolvent parameter must be positive$"),
        ],
        ids=["none", "repeated", "nan", "negative"],
    )
    def test_bad_lambdas_are_refused_on_entry(self, lambdas, needle):
        # No lambda used to give a sweep of no records, and a repeated one
        # every record twice; the config states the same rule through this one.
        model, battery, grid = self.make_inputs()
        with pytest.raises(ValueError, match=needle):
            iterated_limit_sweep(model, model.basis, grid, battery, lambdas=lambdas)

    def test_empty_battery_is_refused_by_name(self):
        # It used to fail inside numpy, naming no argument.
        model, _, grid = self.make_inputs()
        with pytest.raises(ValueError, match="^battery: expected at least one test vector$"):
            iterated_limit_sweep(model, model.basis, grid, [])
        with pytest.raises(ValueError, match="^battery: expected at least one test vector$"):
            ResolventProbe(1.0, ())

    def test_nan_test_vector_is_refused_by_its_name(self):
        # The sweep used to blame the first stage: "n2_m2_l1_k1: array must
        # not contain infs or NaNs".
        model, battery, grid = self.make_inputs()
        values = np.array(battery[1].values)
        values[5] = np.nan
        with pytest.raises(ValueError, match="^test vector 'probe' must be finite$"):
            probe = TestVector("probe", values)
            iterated_limit_sweep(model, model.basis, grid, [battery[0], probe])

    @pytest.mark.parametrize("error", [1e-6, np.nan])
    def test_inaccurate_solve_is_refused(self, monkeypatch, error):
        # The residual guard checks every vector of a batched solve: one
        # bad vector is enough to stop the sweep or a single resolvent.
        model, battery, grid = self.make_inputs()
        exact_solve = scipy.linalg.solve

        def sloppy(a, b, **kwargs):
            out = np.array(exact_solve(a, b, **kwargs))
            out[..., -1] += error
            return out

        monkeypatch.setattr(convergence.scipy.linalg, "solve", sloppy)
        with pytest.raises(SolverError, match="residual"):
            iterated_limit_sweep(model, model.basis, grid, battery)
        with pytest.raises(SolverError, match="residual"):
            stage_resolvent(
                stage_generator(model, model.basis, StageIndex(2, 4)),
                1.0,
                battery[1].values,
            )

    @pytest.mark.parametrize("grid", [SweepGrid(n=(1000, 1023), m=(2, 8)), SweepGrid(n=(1023,))])
    def test_the_deepest_levels_pass_the_residual_guard(self, grid):
        # There (lambda - A)^-1 shrinks the coefficients to about 2^-1023,
        # whose squares underflow: the guard's ||u|| must not square them,
        # or it reads 0 and refuses every solve.
        model, battery, _ = self.make_inputs()
        records = iterated_limit_sweep(model, model.basis, grid, battery, lambdas=(0.25, 4.0))
        assert all(np.isfinite(r.resolvent_error) for r in records)

    def test_projections_walk_k_fastest(self):
        grid = SweepGrid(n=(2, 4), m=(2, 4), l=(1, 2), k=(1, 3))
        assert grid.projections() == [
            (m, l, k) for m in (2, 4) for l in (1, 2) for k in (1, 3)
        ]
        assert grid.indices() == [
            StageIndex(n, *p) for n in (2, 4) for p in grid.projections()
        ]
        bare = SweepGrid(n=(0, 3))
        assert bare.projections() == [()]
        assert bare.indices() == [StageIndex(0), StageIndex(3)]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(n=())
        # An empty axis used to give a grid of no points and a sweep of no records.
        with pytest.raises(ValueError, match="m needs at least one value"):
            SweepGrid(n=(2,), m=())
        with pytest.raises(ValueError, match="n must be in 0..1023, got 1100"):
            SweepGrid(n=(2, 1100))
        with pytest.raises(ValueError, match="m must be >= 1, got 0"):
            SweepGrid(n=(2,), m=(0, 4))
        with pytest.raises(ValueError, match="l requires m"):
            SweepGrid(n=(1,), l=(1,))
        with pytest.raises(ValueError, match="k requires l"):
            SweepGrid(n=(1,), m=(2,), k=(1,))
        # int() used to turn 2.7 into 2, so this grid gave two n2 records.
        with pytest.raises(ValueError, match="n values must be integers, got 2.7"):
            SweepGrid(n=(2.7, 2.7))
        with pytest.raises(ValueError, match="m values must be integers, got True"):
            SweepGrid(n=(1,), m=(True,))
        with pytest.raises(ValueError, match="l values must be strictly increasing"):
            SweepGrid(n=(1,), m=(2,), l=(1, 1))
        with pytest.raises(ValueError, match="k values must be strictly increasing"):
            SweepGrid(n=(1,), m=(2,), l=(1,), k=(3, 2))
        grid = SweepGrid(n=np.array([1, 4]), m=(np.int32(2),))
        assert grid.n == (1, 4) and grid.m == (2,)
        assert all(type(v) is int for v in grid.n + grid.m)


class TestDefaultBattery:
    def test_composition_and_names(self, neumann_full, battery_full):
        names = [vec.name for vec in battery_full]
        assert names == [
            "basis_1", "basis_2", "basis_3", "basis_4",
            "basis_5", "basis_6", "basis_7", "basis_8",
            "span_1", "span_2", "span_3", "span_4",
            "step_1", "step_2", "const",
        ]
        space = neumann_full.space
        for vec in battery_full:
            if vec.name != "const":
                assert float(space.norm(vec.values)) == pytest.approx(1.0, rel=1e-12)

    def test_more_probes_than_sites_are_refused(self):
        # Refused before any vector is drawn: a huge count used to loop
        # until memory ran out.
        model = neumann_model(32, 8)
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match=r"^span \+ step = 37 exceeds the 32 sites$"):
            default_test_battery(model, model.basis, rng, n_step=33)
        full = default_test_battery(model, model.basis, rng, n_span=30, n_step=2)
        assert len(full) == 7 + 32 + 1

    def test_battery_transfers_across_resolutions(self):
        # Same seed, half the grid: the random draws must describe the
        # same functions, so the step probes' block heights line up at
        # shared positions.
        coarse = neumann_model(512, 64)
        fine = neumann_model(1024, 64)
        b_coarse = default_test_battery(
            coarse, coarse.basis, np.random.default_rng(7)
        )
        b_fine = default_test_battery(fine, fine.basis, np.random.default_rng(7))
        for vc, vf in zip(b_coarse, b_fine):
            assert vc.name == vf.name
            # Fine sites 2i and 2i+1 straddle coarse site i.
            paired = 0.5 * (vf.values[0::2] + vf.values[1::2])
            diff = np.abs(paired - vc.values)
            scale = max(1.0, float(np.max(np.abs(vc.values))))
            if vc.name.startswith("step"):
                # Step probes disagree only where a random cut falls
                # between the two fine sites.
                assert float(np.mean(diff <= 0.05 * scale)) >= 0.98
            else:
                assert float(np.max(diff)) <= 1e-3 * scale
