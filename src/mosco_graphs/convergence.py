"""Resolvent-convergence experiments for the approximation stages.

The convergence notion behind the pipeline is variational (a two-sided
form convergence whose lower-bound half quantifies over all weakly
convergent sequences and is not machine-checkable).  For generators of
Markov semigroups it is equivalent to strong resolvent convergence, and
that is what this module measures: ||G_lambda^stage f - G_lambda f||
over a battery of test vectors, for real lambda > 0.  Reports state the
substitution explicitly.

Stage resolvents follow the shared convention that generators vanish
off their recorded subspace, so G_lambda acts there as multiplication
by 1/lambda; comparisons against the model resolvent use the same rule
and are therefore blind to mass outside the spectral span (it cancels).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
# scipy loads its linalg submodule on first attribute access, so a
# process that never solves a resolvent never pays for that import.
import scipy

from .errors import SolverError
from .measure import CellPartition, OrthonormalBasis, _finite_array
from .models import SpectralModel, _check_lambda
from .pipeline import GUARD_EPS, Stage, StageForm, StageIndex, is_integer, semigroup_form


@dataclass(frozen=True, eq=False)
class TestVector:
    # Keeps pytest from collecting this as a test case on import.
    __test__ = False

    name: str
    values: np.ndarray

    def __post_init__(self):
        values = _finite_array(self.values, f"test vector {self.name!r}")
        if values.ndim != 1 or not np.any(values != 0.0):
            raise ValueError("test vectors must be nonzero one-dimensional arrays")
        object.__setattr__(self, "values", values)


def _check_battery(vectors: Sequence[TestVector]) -> None:
    """Refuse no vectors, and a repeated name: results are keyed and sorted by name."""
    if not vectors:
        raise ValueError("battery: expected at least one test vector")
    seen = set()
    for vec in vectors:
        if vec.name in seen:
            raise ValueError(f"test vector name {vec.name!r} is repeated")
        seen.add(vec.name)


@dataclass(frozen=True, eq=False)
class ResolventProbe:
    """One resolvent parameter plus the vectors to probe with."""

    lam: float
    test_vectors: tuple[TestVector, ...]

    def __post_init__(self):
        _check_lambda(self.lam)
        _check_battery(self.test_vectors)
        object.__setattr__(self, "test_vectors", tuple(self.test_vectors))


def _check_residual(stage: StageForm, lam: float, u: np.ndarray, c: np.ndarray) -> None:
    """Raise SolverError unless (lambda - A) u = c holds to a backward error of GUARD_EPS.

    ``u`` and ``c`` hold subspace coefficients in their last axis, one row
    per vector.  Each row's residual is measured against
    ||lambda - A|| ||u|| = (lambda + ||A||) ||u||, the normwise backward
    error of Rigal and Gaches; hypot keeps ||u|| from underflowing at deep n.
    """
    residual = np.linalg.norm(lam * u - u @ stage.matrix.T - c, axis=-1)
    bound = GUARD_EPS * (lam + stage.norm) * np.hypot.reduce(u, axis=-1)
    passed = residual <= bound
    if not np.all(passed):
        row = np.argmin(passed)
        raise SolverError(
            f"resolvent solve residual {residual.flat[row]:.3e} exceeds "
            f"{GUARD_EPS:.1e} * (lambda + ||A||) ||u|| = {bound.flat[row]:.3e}"
        )


def _resolve(stage: StageForm, lam: float, c: np.ndarray, complement: np.ndarray) -> np.ndarray:
    """(lambda - L_stage)^{-1} f from f's split on the stage subspace.

    ``c`` holds the coefficients of f on the subspace, one row per vector,
    and ``complement`` the rest of f; the callers have checked lambda.  One
    SPD solve takes every row as a right-hand side, each row must pass the
    residual guard, and the complement is scaled by 1/lambda.
    """
    matrix = lam * np.eye(stage.dim) - stage.matrix
    rhs = c.reshape(-1, stage.dim).T
    u = scipy.linalg.solve(matrix, rhs, assume_a="pos").T.reshape(c.shape)
    _check_residual(stage, lam, u, c)
    return u @ stage.subspace + complement / lam


def stage_resolvent(stage: StageForm, lam: float, f: np.ndarray) -> np.ndarray:
    """(lambda - L_stage)^{-1} f with the vanishing-off-subspace rule.

    Batched over leading axes of f: the guarded solve acts on the
    subspace coefficients, and f_perp / lambda is added.
    """
    _check_lambda(lam)
    c, complement = stage.space.split(stage.subspace, f)
    return _resolve(stage, lam, c, complement)


def resolvent_error(
    model: SpectralModel, stage: StageForm, probe: ResolventProbe
) -> dict[str, float]:
    """||G_lambda^stage f - G_lambda f|| per test vector, in one batched solve."""
    stack = np.stack([vec.values for vec in probe.test_vectors])
    approx = stage_resolvent(stage, probe.lam, stack)
    errors = model.space.norm(approx - model.exact_resolvent(probe.lam, stack))
    return {vec.name: float(e) for vec, e in zip(probe.test_vectors, errors)}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _grid_axis(name: str, values) -> tuple[int, ...]:
    """The values of one grid axis as ints, refusing anything but a list,
    tuple or one-dimensional array, an empty axis, non-integers and
    booleans, and values that repeat or decrease."""
    if not (isinstance(values, (list, tuple)) or getattr(values, "ndim", None) == 1):
        raise ValueError(f"{name} must be a list of integers, got {values!r}")
    values = tuple(values)
    if not values:
        raise ValueError(f"{name} needs at least one value")
    for v in values:
        if not is_integer(v):
            raise ValueError(f"{name} values must be integers, got {v!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} values must be strictly increasing, got {values}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class SweepGrid:
    """Nested index grid; iteration order is n, then m, then l, then k,
    with k advancing fastest (the innermost limit)."""

    n: tuple[int, ...]
    m: tuple[int, ...] | None = None
    l: tuple[int, ...] | None = None
    k: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("n", "m", "l", "k"):
            value = getattr(self, name)
            if value is not None or name == "n":
                object.__setattr__(self, name, _grid_axis(name, value))
        # The axes increase strictly, so the first and last points bound
        # every value: StageIndex states the ranges and which axes need which.
        axes = (self.n, self.m, self.l, self.k)
        for end in (0, -1):
            StageIndex(*(None if axis is None else axis[end] for axis in axes))

    def projections(self) -> list[tuple[int, ...]]:
        """The (m, l, k) points of the enabled axes, k fastest; one () for an n-only grid."""
        axes = [axis for axis in (self.m, self.l, self.k) if axis is not None]
        return list(itertools.product(*axes))

    def indices(self) -> list[StageIndex]:
        return [StageIndex(n, *p) for n in self.n for p in self.projections()]


@dataclass(frozen=True)
class ConvergenceRecord:
    """One (stage, lambda, test vector) measurement."""

    index: StageIndex
    lam: float
    vector_name: str
    resolvent_error: float
    form_value: float
    exact_form: float


def _check_lambdas(lambdas: Sequence[float]) -> None:
    """Refuse no lambda, and one not finite and positive or repeating an earlier one."""
    if not lambdas:
        raise ValueError("lambdas: expected at least one resolvent parameter")
    for i, lam in enumerate(lambdas):
        _check_lambda(lam, f"lambdas[{i}]")
        if lam in lambdas[:i]:
            raise ValueError(f"lambdas[{i}]: {lam!r} repeats an earlier resolvent parameter")


def iterated_limit_sweep(
    model: SpectralModel,
    basis: OrthonormalBasis,
    schedule: SweepGrid,
    battery: Sequence[TestVector],
    lambdas: Sequence[float] = (1.0,),
) -> list[ConvergenceRecord]:
    """Evaluate every grid point; records come back in grid order.

    The model side does not depend on the stage, so the exact form and
    the exact resolvent of each lambda are computed once for the sweep.
    The stage projection does not depend on n, so the sweep walks
    ``schedule.projections()`` and builds each once, with the battery's
    split on its subspace and the forms of every n; each n then costs
    ``Stage.at`` and one guarded solve per lambda.  The lambdas and the
    battery are checked first; a stage that fails a guard raises its error
    with the stage label in front of the message.
    """
    _check_lambdas(lambdas)
    _check_battery(battery)
    stack = np.stack([vec.values for vec in battery])
    exacts = np.atleast_1d(model.exact_form(stack))
    exact_resolvents = [(lam, model.exact_resolvent(lam, stack)) for lam in lambdas]
    levels = np.array(schedule.n)[:, None]
    records: dict[StageIndex, list[ConvergenceRecord]] = {}
    for projection in schedule.projections():
        # Dropping the previous projection first keeps one alive.
        stage = None
        for row, n in enumerate(schedule.n):
            ix = StageIndex(n, *projection)
            try:
                if stage is None:
                    stage = Stage(model, basis, ix)
                    c, complement = model.space.split(stage.subspace, stack)
                    forms = semigroup_form(model, levels, stage.project(stack))
                else:
                    stage = stage.at(n)
                records[ix] = []
                for lam, exact in exact_resolvents:
                    approx = _resolve(stage.form_data, lam, c, complement)
                    errors = model.space.norm(approx - exact)
                    records[ix] += [
                        ConvergenceRecord(
                            ix, float(lam), vec.name, float(e), float(form), float(x)
                        )
                        for vec, e, form, x in zip(battery, errors, forms[row], exacts)
                    ]
            except (ValueError, SolverError) as exc:
                raise type(exc)(f"{ix.label()}: {exc}") from exc
    return [record for ix in schedule.indices() for record in records[ix]]


def eventually_nonincreasing(values: Sequence[float]) -> tuple[bool, int | None]:
    """The operational reading of "eventually nonincreasing".

    Pre-asymptotic wiggle is tolerated: monotonicity is only enforced
    from the first entry at or below half the initial value, and each
    later step may grow by 5 % relatively (plus a 1e-14 absolute floor
    for noise around zero).
    Returns (verdict, first offending position or None).  A sequence
    that never activates passes vacuously.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("empty sequence")
    start = None
    for i, v in enumerate(values):
        if v <= 0.5 * values[0]:
            start = i
            break
    if start is None:
        return True, None
    for i in range(start, len(values) - 1):
        if values[i + 1] > values[i] * 1.05 + 1e-14:
            return False, i + 1
    return True, None


# ---------------------------------------------------------------------------
# the convergence proxy
# ---------------------------------------------------------------------------

MOSCO_PROXY_NOTE = (
    "variational lower-bound condition not machine-checkable; "
    "strong resolvent convergence used as the operational proxy"
)


# ---------------------------------------------------------------------------
# the test battery
# ---------------------------------------------------------------------------

def default_test_battery(
    model: SpectralModel,
    basis: OrthonormalBasis,
    rng: np.random.Generator,
    n_basis: int = 8,
    n_span: int = 4,
    n_step: int = 2,
    include_constant: bool = True,
) -> list[TestVector]:
    """Smooth, generic, and rough probes plus the constant.

    Basis vectors 1..n_basis (the constant direction is listed
    separately); random span vectors with geometrically decaying mode
    coefficients; random step functions over blocks of the site range.
    The random constructions depend only on the rng stream and relative
    site positions, so batteries on coarser or finer grids of the same
    model agree as functions.  More span and step probes than the space
    has sites are refused before any is drawn: they cannot be independent.
    """
    space = model.space
    if n_span + n_step > space.size:
        raise ValueError(f"span + step = {n_span + n_step} exceeds the {space.size} sites")
    vectors: list[TestVector] = []
    top = min(n_basis, basis.n_vectors - 1)
    for j in range(1, top + 1):
        vectors.append(TestVector(f"basis_{j}", basis.vectors[j]))
    decay = 0.8 ** np.arange(model.n_modes)
    for s in range(n_span):
        coeffs = rng.standard_normal(model.n_modes) * decay
        values = model.basis.synthesize(coeffs)
        vectors.append(TestVector(f"span_{s + 1}", values / space.norm(values)))
    positions = (np.arange(space.size) + 0.5) / space.size
    n_low = min(6, model.n_modes)
    low_decay = 0.6 ** np.arange(n_low)
    for s in range(n_step):
        # Random step probe: block averages of a random low-mode profile
        # over random cut positions.  Averaging makes the jump sizes
        # scale with the block widths, so the probe is rough but still
        # resolvable by a moderate number of modes; iid block heights
        # would instead park most of their energy past any fixed
        # truncation level and measure nothing but that ceiling.
        cuts = np.sort(rng.uniform(0.0, 1.0, size=11))
        profile = model.basis.synthesize(rng.standard_normal(n_low) * low_decay)
        blocks = CellPartition.from_labels(space, np.searchsorted(cuts, positions), 12)
        values = blocks.spread(blocks.average(space, profile))
        vectors.append(TestVector(f"step_{s + 1}", values / space.norm(values)))
    if include_constant:
        vectors.append(TestVector("const", space.constant()))
    return vectors
