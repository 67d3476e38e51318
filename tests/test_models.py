"""Spectral and kernel semigroup models against closed forms and each other."""
import math

import numpy as np
import pytest
import scipy.linalg

from mosco_graphs import (
    DimensionMismatch,
    MarkovKernelModel,
    OrthonormalBasis,
    SpectralModel,
    SymmetryError,
    birth_death_kernel,
    birth_death_model,
    builtin_models,
    get_model,
    load_spectral_table,
    neumann_model,
    random_kernel_model,
    ring_model,
    uniform_interval_space,
)


class TestIntervalSpectrum:
    def test_closed_form_matches_operator_rederivation(self, frozen_reference):
        """The model's (k pi)^2 eigenvalues sit inside the discretization
        bracket of a second-difference eigensolve stored with the suite.
        The reference values were computed by tests/oracles.py without
        touching the library; the bracket is the standard O(h^2) bound
        for the reflecting second-difference operator."""
        model = neumann_model(1024, 64)
        fd = np.asarray(frozen_reference["fd_eigenvalues"])
        h = 1.0 / frozen_reference["fd_resolution"]
        for k, fd_value in enumerate(fd):
            exact = (k * math.pi) ** 2
            assert model.eigenvalues[k] == pytest.approx(exact, abs=1e-12)
            bracket = exact**2 * h**2 / 12.0 * 1.1 + 1e-9
            assert abs(exact - fd_value) <= bracket
            assert fd_value <= exact + 1e-9

    def test_eigenfunctions_sampled_orthonormal(self):
        model = neumann_model(512, 32)
        assert model.basis.orthonormality_residual <= 1e-10

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            neumann_model(16, 16)


class TestSemigroupAction:
    def test_eigenvector_decay(self):
        model = neumann_model(256, 16)
        t = 2.0**-10
        for k in (1, 3, 7):
            expected = math.exp(-model.eigenvalues[k] * t) * model.basis.vectors[k]
            got = model.apply_semigroup(t, model.basis.vectors[k])
            assert np.max(np.abs(got - expected)) <= 1e-14

    def test_time_zero_fixes_the_span(self):
        model = neumann_model(256, 16)
        rng = np.random.default_rng(2)
        f = model.basis.synthesize(rng.standard_normal(16))
        assert model.space.norm(model.apply_semigroup(0.0, f) - f) <= 1e-13

    def test_complement_is_annihilated(self):
        model = neumann_model(256, 8)
        rng = np.random.default_rng(4)
        f = rng.standard_normal(256)
        f_perp = f - model.basis.synthesize(model.basis.coefficients(f))
        assert model.space.norm(model.apply_semigroup(0.5, f_perp)) <= 1e-12

    def test_negative_time_rejected(self):
        model = neumann_model(64, 4)
        with pytest.raises(ValueError):
            model.apply_semigroup(-1e-9, model.space.constant())

    def test_time_array_acts_row_by_row(self):
        # Not bit for bit: a batch and its rows alone go through products
        # that round differently.
        model = ring_model(512, 24)
        rng = np.random.default_rng(9)
        f = rng.standard_normal((3, 4, 512))
        t = rng.uniform(0.0, 1.0, size=(3, 4))
        t[1, 2] = 0.0
        batch = model.apply_semigroup(t, f)
        assert batch.shape == f.shape
        for i in np.ndindex(t.shape):
            row = model.apply_semigroup(t[i], f[i])
            assert np.max(np.abs(batch[i] - row)) <= 1e-14 * model.space.norm(f[i])

    def test_scalar_time_keeps_its_bits(self):
        # A scalar time damps every row by exp(-lambda t) bit for bit; the
        # graph exports rely on it.
        model = neumann_model(256, 16)
        f = np.random.default_rng(10).standard_normal((5, 256))
        t = 2.0**-6
        decay = np.where(np.isfinite(model.eigenvalues), np.exp(-model.eigenvalues * t), 0.0)
        expected = model.basis.synthesize(model.basis.coefficients(f) * decay)
        assert np.array_equal(model.apply_semigroup(t, f), expected)

    def test_negative_time_in_an_array_is_refused(self):
        model = neumann_model(64, 4)
        t = np.array([0.5, 0.0, -1e-9, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            model.apply_semigroup(t, np.ones((4, 64)))

    def test_times_must_match_the_leading_axes(self):
        model = neumann_model(64, 4)
        with pytest.raises(DimensionMismatch):
            model.apply_semigroup(np.array([0.1, 0.2]), np.ones((3, 64)))

    def test_time_grid_matches_the_per_time_calls(self):
        # A (T, 1) grid takes every row at every time.
        model = ring_model(512, 24)
        f = np.random.default_rng(11).standard_normal((5, 512))
        times = 2.0 ** -np.arange(13)
        grid = model.apply_semigroup(times[:, None], f)
        assert grid.shape == (13, 5, 512)
        for t, images in zip(times, grid):
            gap = np.abs(images - model.apply_semigroup(t, f)).max(axis=-1)
            assert np.all(gap <= 1e-14 * model.space.norm(f))

    def test_decay_gives_one_row_of_modes_per_time(self):
        model = neumann_model(64, 8)
        times = np.array([0.0, 2.0**-6, 1.0])
        rows = model.decay(times)
        assert rows.shape == (3, 8)
        for t, row in zip(times, rows):
            assert np.array_equal(row, model.decay(t))
        assert np.array_equal(rows[1], -np.expm1(-model.eigenvalues * 2.0**-6))

    def test_contraction_and_semigroup_law(self):
        model = ring_model(512, 24)
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = rng.standard_normal(512)
            pf = model.apply_semigroup(0.3, f)
            assert model.space.norm(pf) <= model.space.norm(f) + 1e-12
        f = rng.standard_normal(512)
        left = model.apply_semigroup(0.2, model.apply_semigroup(0.5, f))
        right = model.apply_semigroup(0.7, f)
        assert model.space.norm(left - right) <= 1e-10

    def test_markov_range_on_complete_chain(self):
        model = birth_death_model(sites=32)
        rng = np.random.default_rng(8)
        for t in (0.01, 0.5, 4.0):
            f = rng.uniform(0.0, 1.0, size=32)
            pf = model.apply_semigroup(t, f)
            assert np.min(pf) >= -1e-9
            assert np.max(pf) <= 1.0 + 1e-9


class TestExactFormAndResolvent:
    def test_eigenvector_energy_is_the_eigenvalue(self):
        model = neumann_model(256, 16)
        for k in (0, 1, 5):
            value = model.exact_form(model.basis.vectors[k])
            assert value == pytest.approx(model.eigenvalues[k], rel=1e-12, abs=1e-12)

    def test_constants_cost_nothing(self):
        model = neumann_model(256, 16)
        assert model.exact_form(model.space.constant()) == pytest.approx(0.0, abs=1e-12)

    def test_energies_add_across_modes(self):
        model = neumann_model(256, 16)
        f = model.basis.vectors[1] + model.basis.vectors[2]
        expected = model.eigenvalues[1] + model.eigenvalues[2]
        assert model.exact_form(f) == pytest.approx(expected, rel=1e-12)

    def test_saturating_direction_reports_infinity(self):
        space = uniform_interval_space(8)
        basis = OrthonormalBasis.haar(space, 2)
        model = SpectralModel(
            name="capped",
            space=space,
            eigenvalues=np.array([0.0, np.inf]),
            basis=basis,
        )
        assert math.isinf(model.exact_form(basis.vectors[1]))
        assert model.exact_form(basis.vectors[0]) == 0.0

    def test_resolvent_on_eigenvectors(self):
        model = neumann_model(256, 16)
        for k in (1, 4):
            expected = model.basis.vectors[k] / (1.0 + model.eigenvalues[k])
            got = model.exact_resolvent(1.0, model.basis.vectors[k])
            assert np.max(np.abs(got - expected)) <= 1e-14

    def test_first_interval_mode_closed_form(self):
        model = neumann_model(1024, 64)
        expected = model.basis.vectors[1] / (1.0 + math.pi**2)
        got = model.exact_resolvent(1.0, model.basis.vectors[1])
        assert np.max(np.abs(got - expected)) <= 1e-14

    def test_large_lambda_recovers_the_function(self):
        # The per-mode error of lam * G_lam is lam_k / (lam + lam_k), so
        # the 1e-4 relative target at lam = 1e6 needs a probe whose
        # energy stays below mode 4 (lam_3 = 9 pi^2 < 100).
        model = neumann_model(256, 32)
        rng = np.random.default_rng(10)
        f = model.basis.synthesize(rng.standard_normal(4))
        lam = 1e6
        scaled = lam * model.exact_resolvent(lam, f)
        assert model.space.norm(scaled - f) <= 1e-4 * model.space.norm(f)

    def test_nonpositive_lambda_rejected(self):
        model = neumann_model(64, 4)
        for lam in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                model.exact_resolvent(lam, model.space.constant())

    @pytest.mark.parametrize(
        "lam, needle",
        [(0.0, "positive"), (-1.0, "positive"), (np.nan, "a finite float"), (np.inf, "a finite float")],
    )
    def test_lambda_is_refused_by_the_one_rule(self, lam, needle):
        # The sweep and the config say the same with lambdas[i] in front.
        model = neumann_model(64, 4)
        with pytest.raises(ValueError, match=f"^lambda: resolvent parameter must be {needle}$"):
            model.exact_resolvent(lam, model.space.constant())


class TestKernelModels:
    def test_apply_checks_the_site_axis(self):
        kernel = birth_death_kernel(4)
        needle = r"^expected last axis 4, got shapes \[\(2, 5\)\]$"
        with pytest.raises(DimensionMismatch, match=needle):
            kernel.apply(np.ones((2, 5)))

    def test_validation_catches_bad_kernels(self):
        space = uniform_interval_space(3)
        good = np.full((3, 3), 1.0 / 3.0)
        MarkovKernelModel("ok", space, good)
        with pytest.raises(ValueError, match="negative"):
            MarkovKernelModel("neg", space, good - np.eye(3))
        with pytest.raises(ValueError, match="row sum"):
            MarkovKernelModel("heavy", space, good * 2.0)
        skew = good.copy()
        skew[0, 1] += 0.05
        skew[0, 0] -= 0.05
        with pytest.raises(SymmetryError):
            MarkovKernelModel("skew", space, skew)

    def test_random_kernels_are_symmetric_and_substochastic(self):
        rng = np.random.default_rng(12)
        for conservative in (False, True):
            kernel = random_kernel_model(9, rng, conservative=conservative)
            w = kernel.space.weights
            flux = w[:, None] * kernel.kernel
            assert np.max(np.abs(flux - flux.T)) <= 1e-12
            rows = kernel.kernel.sum(axis=1)
            assert np.max(rows) <= 1.0 + 1e-12
            assert kernel.is_conservative == conservative
            if not conservative:
                assert np.max(rows) < 1.0 - 1e-3

    def test_spectral_conversion_reproduces_the_exponential(self):
        kernel = birth_death_kernel(sites=16)
        model = kernel.to_spectral()
        generator = np.eye(16) - kernel.kernel
        t = 0.37
        expected = scipy.linalg.expm(-t * generator)
        rng = np.random.default_rng(14)
        f = rng.standard_normal(16)
        got = model.apply_semigroup(t, f)
        assert np.max(np.abs(got - expected @ f)) <= 1e-10

    def test_sign_fix_matches_the_row_loop(self):
        # The per-row loop the vectorised sign fix replaced, kept as reference.
        rng = np.random.default_rng(15)
        for kernel in (birth_death_kernel(sites=16), random_kernel_model(12, rng)):
            root = np.sqrt(kernel.space.weights)
            sym = root[:, None] * (np.eye(kernel.size) - kernel.kernel) / root[None, :]
            _, psi = np.linalg.eigh((sym + sym.T) / 2.0)
            expected = (psi / root[:, None]).T.copy()
            for row in expected:
                if row[np.argmax(np.abs(row))] < 0:
                    row *= -1.0
            assert np.array_equal(kernel.to_spectral().basis.vectors, expected)


class TestDyadicMonotonicity:
    def test_rescaled_differences_grow_as_time_halves(self):
        model = neumann_model(512, 32)
        rng = np.random.default_rng(16)
        f = model.basis.synthesize(rng.standard_normal(32) * 0.7 ** np.arange(32))
        values = []
        for n in range(0, 16):
            t = 2.0**-n
            pf = model.apply_semigroup(t, f)
            values.append(model.space.inner(f - pf, f) / t)
        diffs = np.diff(values)
        assert np.min(diffs) >= -1e-12


class TestZooAndLoader:
    def test_builtin_lineup(self):
        zoo = builtin_models(resolution=512, modes=32)
        names = [m.name for m in zoo]
        assert names == [
            "neumann",
            "ring",
            "birth_death",
            "random_conservative",
            "random_killed",
        ]
        chain = zoo[2]
        assert chain.is_complete
        assert chain.space.l_max == 4
        # The exhaustion genuinely truncates: the first level is a strict
        # subset carrying part of the mass.
        first = chain.space.exhaustion_set(1)
        assert 0 < first.size < chain.space.size

    def test_chain_lookup_by_name_is_complete(self):
        model = get_model("birth_death", resolution=1024, modes=48)
        assert model.n_modes == 48
        assert model.space.size == 48
        assert model.is_complete

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="birth_death"):
            get_model("laplace_on_a_cat")

    def test_table_loader_round_trip(self, tmp_path):
        model = neumann_model(64, 4)
        rows = []
        for lam, vec in zip(model.eigenvalues, model.basis.vectors):
            rows.append(" ".join([f"{lam:.17g}"] + [f"{v:.17g}" for v in vec]))
        rows.insert(0, "# eigenvalue then 64 samples")
        rows[2], rows[3] = rows[3], rows[2]  # loader must sort by eigenvalue
        path = tmp_path / "interval.txt"
        path.write_text("\n".join(rows) + "\n")
        loaded = load_spectral_table(path)
        assert loaded.name == "interval"
        assert np.array_equal(loaded.eigenvalues, model.eigenvalues)
        assert np.max(np.abs(loaded.basis.vectors - model.basis.vectors)) <= 1e-15

    def test_table_loader_repairs_sloppy_bases(self, tmp_path):
        space = uniform_interval_space(32)
        rng = np.random.default_rng(18)
        raw = rng.standard_normal((3, 32))
        lines = [
            " ".join([str(float(k))] + [f"{v:.17g}" for v in raw[k]])
            for k in range(3)
        ]
        path = tmp_path / "rough.txt"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_spectral_table(path)
        assert loaded.name == "rough"
        assert loaded.basis.orthonormality_residual <= 1e-10

    def test_table_loader_error_paths(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0 not-a-number\n")
        with pytest.raises(ValueError, match="bad.txt:1"):
            load_spectral_table(bad)
        ragged = tmp_path / "ragged.txt"
        ragged.write_text("0.0 1.0 1.0\n1.0 1.0\n")
        with pytest.raises(ValueError, match="inconsistent"):
            load_spectral_table(ragged)
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no data"):
            load_spectral_table(empty)
        # This row used to load as a model with a NaN eigenfunction.
        nan = tmp_path / "nan.txt"
        nan.write_text("# header\n0 1 1 1 nan\n")
        with pytest.raises(ValueError, match="nan.txt:2: eigenfunction samples must be finite"):
            load_spectral_table(nan)
