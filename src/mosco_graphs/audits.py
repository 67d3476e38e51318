"""Named invariant audits for models, stages, and extracted graphs.

Every property the library promises elsewhere in passing is restated
here as a small named check returning an :class:`AuditResult`, so the
``verify`` CLI subcommand can run the whole battery headlessly and print
one line per audit.  Audits never raise on a violated property; they
record the residual and let the caller decide what a failure means.

The only deliberately delicate policy lives in
:func:`audit_markov_range`: spectrally truncated continuum models are
not positivity preserving at very small times, where ringing from the
discarded modes has not yet decayed.  Below the time at which the top
retained mode has damped to about 1e-12 the pointwise range check is
vacuous for such models and is skipped; complete models are audited at
every time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convergence import stage_resolvent
from .errors import SymmetryError
from .graphs import extract_graph, final_stage_graph, graph_energy, verify_identification
from .measure import CellPartition, OrthonormalBasis, condition_on_partition
from .models import MarkovKernelModel, SpectralModel, random_kernel_model
from .pipeline import (
    Stage,
    StageIndex,
    galerkin_projection,
    level_partition,
    semigroup_form,
)

# e^-x below 1e-12; times shorter than DECAY_DEPTH / lambda_top leave
# visible ringing from truncated modes on incomplete models.
DECAY_DEPTH = 27.6

# The times of the semigroup contraction and Markov range audits, 2^-j.
AUDIT_TIMES = 2.0 ** -np.arange(0, 13)


@dataclass(frozen=True)
class AuditResult:
    """Outcome of one named audit."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        text = f"[{mark}] {self.name}: residual {self.residual:.3e} (tol {self.tolerance:.1e})"
        if self.detail:
            text += f" -- {self.detail}"
        return text


def _result(name, residuals, tol, detail=""):
    """One audit line from a value or an array of them: the worst, at least 0.

    ``np.max`` propagates NaN, so one NaN anywhere fails the audit; adding
    0.0 turns a worst of -0.0 into 0.0.
    """
    residual = float(np.max(residuals, initial=0.0)) + 0.0
    return AuditResult(
        name=name,
        passed=bool(residual <= tol),
        residual=residual,
        tolerance=float(tol),
        detail=detail,
    )


def _span_probe(
    model: SpectralModel, rng: np.random.Generator, count: int, decay: float = 0.5
) -> np.ndarray:
    """``count`` random vectors concentrated on low modes, roughly unit norm.

    Scaled by the decay envelope rather than the achieved norm: a draw
    that happens to be small on the leading modes must not amplify the
    stiff ones, or gap tolerances would hold only for lucky seeds.
    """
    n_low = min(8, model.n_modes)
    envelope = decay ** np.arange(n_low)
    coeffs = rng.standard_normal((count, n_low)) * envelope
    f = model.basis.synthesize(coeffs)
    return f / float(np.sqrt(np.sum(envelope**2)))


# ---------------------------------------------------------------------------
# Semigroup audits


def audit_kernel_validity(kernel: MarkovKernelModel) -> AuditResult:
    """Nonnegativity, sub-stochasticity, and detailed balance of P."""
    P = kernel.kernel
    w = kernel.space.weights
    neg = max(0.0, float(-P.min()))
    excess = max(0.0, float(P.sum(axis=1).max()) - 1.0)
    flux = w[:, None] * P
    asym = float(np.abs(flux - flux.T).max())
    return _result(
        f"kernel-validity[{kernel.name}]",
        (neg, excess, asym),
        1e-12,
        f"neg {neg:.1e} rowsum {excess:.1e} balance {asym:.1e}",
    )


def audit_semigroup_contraction(model: SpectralModel, rng: np.random.Generator) -> AuditResult:
    f = rng.standard_normal((25, model.space.size))
    images = model.apply_semigroup(AUDIT_TIMES[:, None], f)
    gaps = model.space.norm(images) - model.space.norm(f)
    return _result(f"semigroup-contraction[{model.name}]", gaps, 1e-12)


def markov_audit_time_floor(model: SpectralModel) -> float:
    """Shortest time at which the pointwise Markov audit is meaningful.

    Zero for complete models.  For truncated ones, the time after which
    the top retained mode has decayed below ~1e-12, taken as a proxy for
    the discarded modes immediately above it.
    """
    if model.is_complete:
        return 0.0
    top = float(model.eigenvalues[np.isfinite(model.eigenvalues)].max())
    if top <= 0.0:
        return 0.0
    return DECAY_DEPTH / top


def audit_markov_range(model: SpectralModel, rng: np.random.Generator) -> AuditResult:
    """0 <= P_t f <= 1 pointwise for 0 <= f <= 1, up to 1e-9."""
    times = AUDIT_TIMES[AUDIT_TIMES >= markov_audit_time_floor(model)]
    skipped = AUDIT_TIMES.size - times.size
    f = rng.uniform(0.0, 1.0, size=(25, model.space.size))
    images = model.apply_semigroup(times[:, None], f)
    excess = (images.max(axis=(1, 2)) - 1.0, -images.min(axis=(1, 2)))
    detail = f"skipped {skipped} sub-ringing times" if skipped else ""
    return _result(f"markov-range[{model.name}]", excess, 1e-9, detail)


def audit_semigroup_law(model: SpectralModel, rng: np.random.Generator) -> AuditResult:
    f = rng.standard_normal((20, model.space.size))
    s, t = rng.uniform(0.0, 1.0, size=(2, 20))
    two_step = model.apply_semigroup(s, model.apply_semigroup(t, f))
    one_step = model.apply_semigroup(s + t, f)
    return _result(f"semigroup-law[{model.name}]", model.space.norm(two_step - one_step), 1e-10)


def audit_time_monotonicity(model: SpectralModel, rng: np.random.Generator) -> AuditResult:
    """(1/t)<f - P_t f, f> never drops as t halves along 2^-n, n = 0..15.

    Step drops up to 1e-12 are rounding and are not counted.
    """
    f = _span_probe(model, rng, 10)
    drops = -np.diff(semigroup_form(model, np.arange(16)[:, None], f), axis=0)
    # Written so that a NaN drop is kept, not zeroed.
    return _result(
        f"time-monotonicity[{model.name}]", np.where(drops <= 1e-12, 0.0, drops), 1e-12
    )


def audit_energy_exhaustion(
    model: SpectralModel, rng: np.random.Generator
) -> list[AuditResult]:
    """semigroup_form rises with n, stays under exact_form, meets it by n=30.

    Probed on low-mode vectors; the n=30 gap scales with the fourth
    power of the top excited frequency, so heavy high-mode content would
    test float granularity rather than the limit.
    """
    f = _span_probe(model, rng, 5, decay=0.25)
    exact = model.exact_form(f)
    values = semigroup_form(model, np.arange(31)[:, None], f)
    order = (-np.diff(values, axis=0), values.max(axis=0, keepdims=True) - exact)
    return [
        _result(f"energy-exhaustion-order[{model.name}]", np.concatenate(order), 1e-10),
        _result(f"energy-exhaustion-limit[{model.name}]", exact - values[-1], 1e-6),
    ]


# ---------------------------------------------------------------------------
# Conditioning and partition audits
#
# The partition audits take ``parts``, which maps each (m, k) to the
# level partition of one basis at that m and k.


def audit_conditioning(
    model: SpectralModel, basis: OrthonormalBasis, rng: np.random.Generator
) -> list[AuditResult]:
    """Contraction, idempotence, cell orthogonality, mass bookkeeping; each
    probe under the measure restricted to X_l for its own random depth l."""
    space = model.space
    part = level_partition(basis, min(4, basis.n_vectors - 1), 3)
    mass_err = abs(part.masses.sum() - space.total_mass)
    f = rng.standard_normal((20, space.size))
    depth = rng.integers(1, space.l_max + 1, size=20)
    contraction, ortho, idem = [], [], []
    for l in np.unique(depth):
        rows, mask = f[depth == l], space.exhaustion_mask(l)
        step = condition_on_partition(rows, part, space, restrict_to=space.exhaustion_set(l))
        g = step.expand()
        masked = rows * mask
        contraction.append(space.norm(g) - space.norm(masked))
        # <masked - g, 1_{cell & X_l}> for every probe and cell at once.
        ortho.append(np.abs(part.cell_sums((masked - g) * space.weights * mask)))
        # Conditioning again on the restricted partition must change nothing.
        idem.append(np.abs(condition_on_partition(g, step.partition, space).expand() - g))
    return [
        _result("conditioning-mass", mass_err, 1e-12),
        _result("conditioning-contraction", np.concatenate(contraction), 1e-12),
        _result("conditioning-orthogonality", np.concatenate(ortho, axis=None), 1e-10),
        _result("conditioning-idempotence", np.concatenate(idem, axis=None), 1e-12),
    ]


def audit_tail_mass(parts: dict) -> AuditResult:
    """Joint tail cells carry at most m * 2^(-2k) of the total mass."""
    excess = [
        part.masses[part.tail_mask].sum() - m * 2.0 ** (-2 * k) for (m, k), part in parts.items()
    ]
    return _result("tail-cell-mass", excess, 1e-15)


def audit_cell_oscillation(basis: OrthonormalBasis, parts: dict) -> AuditResult:
    """Inside non-tail cells each projected mode moves at most 2^-k."""
    excess = []
    for (m, k), part in parts.items():
        sites = part.support[~part.tail_mask[part.cell_of[part.support]]]
        if sites.size == 0:
            continue
        # Group the sites of non-tail cells by cell, then take per-cell
        # extremes of every mode with one reduceat each.
        order = sites[np.argsort(part.cell_of[sites], kind="stable")]
        starts = np.flatnonzero(np.diff(part.cell_of[order], prepend=-1))
        block = basis.leading(m)[:, order]
        osc = np.maximum.reduceat(block, starts, axis=1) - np.minimum.reduceat(
            block, starts, axis=1
        )
        excess.append(osc.max() - 2.0 ** -k)
    return _result("cell-oscillation", excess, 1e-12)


def audit_partition_refinement(parts: dict) -> AuditResult:
    """Each finer cell sits inside exactly one coarser cell."""
    pairs = 0
    broken = 0
    for (m, k), coarse in parts.items():
        for (m2, k2), fine in parts.items():
            if m2 < m or k2 < k or (m2, k2) == (m, k):
                continue
            pairs += 1
            broken += not fine.refines(coarse)
    return _result("partition-refinement", float(broken), 0.0, f"{pairs} grid pairs")


def audit_projection_composition(
    model: SpectralModel, basis: OrthonormalBasis, rng: np.random.Generator
) -> AuditResult:
    """Galerkin stage equals the bare stage of the projected input.

    One batch, checked at n in {0, 4, 8} and m in {1, 2, K/2, K} for K vectors.
    """
    f = rng.standard_normal((20, model.space.size))
    levels = (0, 4, 8)
    gaps = []
    for m in sorted({1, 2, basis.n_vectors // 2, basis.n_vectors}):
        stage = Stage(model, basis, StageIndex(0, m))
        direct = semigroup_form(model, np.array(levels)[:, None], galerkin_projection(basis, m, f))
        gaps += [np.abs(stage.at(n).form(f) - d) for n, d in zip(levels, direct)]
    return _result(f"projection-composition[{model.name}]", gaps, 1e-10)


def audit_stage_bounds(
    model: SpectralModel, stages: list[Stage], rng: np.random.Generator
) -> AuditResult:
    """0 <= stage form <= 2^n ||f||^2 across the supplied stages.

    The residual is relative to the cap so one tolerance covers every
    dyadic level.
    """
    space = model.space
    excess = []
    for stage in stages:
        f = rng.standard_normal((15, space.size))
        value = stage.form(f)
        cap = stage.index.bound * space.inner(f, f)
        excess.append(np.maximum(-value, value - cap) / cap)
    return _result(f"stage-bounds[{model.name}]", excess, 1e-12)


# ---------------------------------------------------------------------------
# Graph audits


def audit_identification(kernels, rng: np.random.Generator) -> list[AuditResult]:
    """The inner-product form equals the graph energy on step functions."""
    out = []
    for kernel in kernels:
        residual = verify_identification(kernel, seed=int(rng.integers(0, 2**31)))
        out.append(
            _result(
                f"identification[{kernel.name}]",
                residual,
                1e-10,
                f"{kernel.size} cells, 100 functions",
            )
        )
        if kernel.is_conservative:
            g = extract_graph(kernel, CellPartition.singletons(kernel.space), kernel.space)
            kappa = float(np.abs(g.killing).max())
            col = float(np.abs(g.conductances.sum(axis=0) - g.vertex_weights).max())
            out.append(
                _result(
                    f"conservative-closure[{kernel.name}]",
                    max(kappa, col),
                    1e-10,
                    "kappa and column sums",
                )
            )
    return out


def audit_unit_contraction(graphs_named, rng: np.random.Generator) -> AuditResult:
    """Clipping to [0,1] and capping |f| never raise the graph energy."""
    excess = []
    for _, g in graphs_named:
        alpha = rng.standard_normal((100, g.n_vertices)) * 2.0
        cap = rng.uniform(0.2, 2.0, size=(100, 1))
        base = graph_energy(g, alpha)
        unit = graph_energy(g, np.clip(alpha, 0.0, 1.0))
        capped = graph_energy(g, np.sign(alpha) * np.minimum(np.abs(alpha), cap))
        excess += [unit - base, capped - base]
    return _result("unit-contraction", excess, 1e-10)


def _random_lipschitz(rng: np.random.Generator, shape):
    """Random 1-Lipschitz maps fixing 0, one per entry of ``shape``: recentered
    two-sided clips, applied to values with one more trailing axis."""
    lo = rng.uniform(-2.0, -0.1, size=shape)[..., None]
    hi = rng.uniform(0.1, 2.0, size=shape)[..., None]
    return lambda x: np.clip(x, lo, hi)


def audit_normal_contraction(graphs_named, rng: np.random.Generator) -> AuditResult:
    """Root-energy subadditivity under random multi-variable contractions.

    F(x_1..x_j) = sum_i w_i g_i(x_i) with sum |w_i| <= 1 and each g_i a
    1-Lipschitz map fixing zero; then sqrt E(F(f_1..f_j)) is at most
    sum_i sqrt E(f_i).  Each of the 40 probes draws j in 1..3; its unused
    variables carry zero weight and the zero function.
    """
    excess = []
    for _, g in graphs_named:
        used = np.arange(3) < rng.integers(1, 4, size=(40, 1))
        weights = rng.standard_normal((40, 3)) * used
        weights /= np.maximum(1.0, np.abs(weights).sum(axis=1, keepdims=True))
        gmap = _random_lipschitz(rng, (40, 3))
        fs = rng.standard_normal((40, 3, g.n_vertices)) * used[..., None]
        combined = (weights[..., None] * gmap(fs)).sum(axis=1)
        # One energy call: the j inputs and their combination side by side.
        roots = np.sqrt(graph_energy(g, np.concatenate([fs, combined[:, None]], axis=1)))
        excess.append(roots[:, 3] - roots[:, :3].sum(axis=1))
    return _result("normal-contraction", excess, 1e-10)


def audit_extraction_tower(
    model: SpectralModel, basis: OrthonormalBasis, rng: np.random.Generator
) -> AuditResult:
    """Energies of coarse-measurable functions agree across finer extractions."""
    space = model.space
    coarse_ix = StageIndex(4, 4, space.l_max, 2)
    fine_ix = StageIndex(4, 4, space.l_max, 4)
    coarse = final_stage_graph(model, basis, coarse_ix)
    fine = final_stage_graph(model, basis, fine_ix)
    assert coarse.partition is not None and fine.partition is not None
    lift = coarse.partition.cell_of
    first = fine.partition.first_sites
    alpha = rng.standard_normal((25, coarse.n_vertices))
    beta = alpha[:, lift[first]]
    gaps = np.abs(graph_energy(coarse, alpha) - graph_energy(fine, beta))
    return _result(f"extraction-tower[{model.name}]", gaps, 1e-9)


def audit_extraction_symmetry(kernels, warped: np.ndarray | None = None) -> AuditResult:
    """Every suite kernel extracts; flux asymmetry anywhere is a failure.

    ``warped``, when given, is a kernel matrix audited in place of the
    first kernel's, under that kernel's name with a ``-warped`` suffix.
    No MarkovKernelModel accepts an asymmetric matrix, so it is passed
    bare.
    """
    bad = []
    for i, kernel in enumerate(kernels):
        operator, name = kernel, kernel.name
        if i == 0 and warped is not None:
            operator, name = (lambda F: np.asarray(F) @ warped.T), f"{name}-warped"
        part = CellPartition.singletons(kernel.space)
        try:
            extract_graph(operator, part, kernel.space)
        except SymmetryError:
            bad.append(name)
    detail = f"asymmetric: {', '.join(bad)}" if bad else f"{len(kernels)} kernels"
    return _result("extraction-symmetry", float(bool(bad)), 0.0, detail)


def audit_rejects_asymmetry(rng: np.random.Generator) -> AuditResult:
    """Negative control: a warped kernel must be refused, not averaged over."""
    kernel = random_kernel_model(10, rng, name="warped")
    P = _warped(kernel)
    part = CellPartition.singletons(kernel.space)
    try:
        extract_graph(lambda F: np.asarray(F) @ P.T, part, kernel.space)
    except SymmetryError:
        return _result("rejects-asymmetric-kernel", 0.0, 0.0, "refusal confirmed")
    return _result("rejects-asymmetric-kernel", 1.0, 0.0, "asymmetry went unnoticed")


# ---------------------------------------------------------------------------
# Resolvent audits


def audit_resolvent_contraction(
    model: SpectralModel, stages: list[Stage], rng: np.random.Generator
) -> AuditResult:
    """lambda * G_lambda is a contraction for stages and the model alike."""
    space = model.space
    excess = []
    for stage in stages:
        f = rng.standard_normal((10, space.size))
        nf = space.norm(f)
        for lam in (1.0, 2.0):
            u = stage_resolvent(stage.form_data, lam, f)
            v = model.exact_resolvent(lam, f)
            excess += [lam * space.norm(u) - nf, lam * space.norm(v) - nf]
    return _result(f"resolvent-contraction[{model.name}]", excess, 1e-10)


def audit_resolvent_identity(
    model: SpectralModel, stages: list[Stage], rng: np.random.Generator
) -> AuditResult:
    """G_a - G_b = (b - a) G_a G_b on random vectors, a, b in {1, 2}."""
    space = model.space
    gaps = []
    for stage in stages:
        sf = stage.form_data
        f = rng.standard_normal((10, space.size))
        ga = stage_resolvent(sf, 1.0, f)
        gb = stage_resolvent(sf, 2.0, f)
        # The solve refuses a non-finite right-hand side; a NaN gap fails the line.
        gab = stage_resolvent(sf, 1.0, gb) if np.all(np.isfinite(gb)) else np.nan
        gaps.append(space.norm(ga - gb - gab))
    return _result(f"resolvent-identity[{model.name}]", gaps, 1e-9)


def audit_form_generator_consistency(
    model: SpectralModel, stages: list[Stage], rng: np.random.Generator
) -> AuditResult:
    """<-L f, f> recomputes the stage form for f in the stage subspace.

    Off the subspace the generator is zero by convention while the bare
    dyadic form is not, so probes are drawn inside the recorded span.
    """
    gaps = []
    for stage in stages:
        sf = stage.form_data
        f = rng.standard_normal((10, sf.dim)) @ sf.subspace
        gaps.append(np.abs(sf.quad_form(f) - stage.form(f)))
    return _result(f"form-generator[{model.name}]", gaps, 1e-10)


# ---------------------------------------------------------------------------
# Suite assembly

# The deepest Galerkin cut of the suite's stages and partitions, so the
# fewest modes a model of the suite may have.
AUDIT_MODES = 8


def audit_suite(
    spectral_models,
    kernels,
    basis_for,
    rng: np.random.Generator,
    inject_asymmetry: bool = False,
) -> list[AuditResult]:
    """Run the full battery.

    ``spectral_models`` and ``kernels`` are the models under audit;
    ``basis_for`` maps a spectral model to the basis its stages use.
    ``inject_asymmetry`` warps the first kernel for the symmetry audit
    (and leaves it out of identification), so that audit demonstrably
    fails.
    """
    results: list[AuditResult] = []
    for kernel in kernels:
        results.append(audit_kernel_validity(kernel))

    stage_indices = [
        StageIndex(2),
        StageIndex(4, 4),
        StageIndex(6, AUDIT_MODES, 2),
    ]

    for model in spectral_models:
        basis = basis_for(model)
        lmax = model.space.l_max
        full_indices = stage_indices + [
            StageIndex(6, AUDIT_MODES, min(2, lmax), 4),
            StageIndex(8, min(16, model.n_modes), lmax, 6),
        ]
        results.append(audit_semigroup_contraction(model, rng))
        results.append(audit_markov_range(model, rng))
        results.append(audit_semigroup_law(model, rng))
        results.append(audit_time_monotonicity(model, rng))
        results.extend(audit_energy_exhaustion(model, rng))
        results.extend(audit_conditioning(model, basis, rng))
        results.append(audit_projection_composition(model, basis, rng))
        # Building a stage draws nothing from rng, so one build serves the
        # four stage audits; the stages are dropped before the next model.
        stages = [Stage(model, basis, index) for index in full_indices]
        results.append(audit_stage_bounds(model, stages, rng))
        results.append(audit_resolvent_contraction(model, stages, rng))
        results.append(audit_resolvent_identity(model, stages, rng))
        results.append(audit_form_generator_consistency(model, stages, rng))
        del stages

    lead = spectral_models[0]
    lead_basis = basis_for(lead)
    # One build per (m, k) serves the three partition audits.
    ms = (1, 2, AUDIT_MODES // 2, AUDIT_MODES)
    parts = {(m, k): level_partition(lead_basis, m, k) for m in ms for k in range(1, 5)}
    results.append(audit_tail_mass(parts))
    results.append(audit_cell_oscillation(lead_basis, parts))
    results.append(audit_partition_refinement(parts))
    results.append(audit_extraction_tower(lead, lead_basis, rng))

    warped = _warped(kernels[0]) if inject_asymmetry else None
    results.extend(audit_identification(kernels[1:] if inject_asymmetry else kernels, rng))
    results.append(audit_extraction_symmetry(kernels, warped))
    results.append(audit_rejects_asymmetry(rng))

    pairs = []
    for kernel in kernels:
        part = CellPartition.singletons(kernel.space)
        pairs.append((kernel.name, extract_graph(kernel, part, kernel.space)))
    results.append(audit_unit_contraction(pairs, rng))
    results.append(audit_normal_contraction(pairs, rng))
    return results


def _warped(kernel: MarkovKernelModel) -> np.ndarray:
    """A copy of the kernel matrix with one entry pushed off weighted symmetry."""
    P = kernel.kernel.copy()
    P[0, 1] += 0.05
    return P
