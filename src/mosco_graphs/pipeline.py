"""Staged approximation of a semigroup energy form.

Four nested stages turn the energy form of a spectral model into a
finite, graph-representable object:

* dyadic semigroup differencing   E_n(f)       = 2^n <f - P_{2^-n} f, f>
* Galerkin projection             E_{n,m}      = E_n(pi_m f)
* exhaustion masking              E_{n,m,l}    = E_n(pi_m f restricted to X_l)
* level-set conditioning          E_{n,m,l,k}  = E_n applied to the cell
  averages of the masked projection over the dyadic level-set partition.

Every stage has a generator that is symmetric and negative semidefinite
in the weighted geometry.  Because the composed projection lands in the
span of the first m basis vectors intersected with step functions, the
generator is recorded as a small matrix over an explicit orthonormal
subspace basis.  The matrix is -2^n (C diag(d) C^T + G) for the spectral
coefficients C and off-span Gram matrix G of the projected images, with
d = -expm1(-lambda 2^-n) per mode: accurate at any n, and no site axis.

Convention: off the recorded subspace every stage generator acts as
zero.  Resolvents therefore act as 1/lambda there; the quadratic form
of the generator matrix agrees with the stage form exactly for stages
with a Galerkin step and on the spectral span for the bare-n stage.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch
from .measure import AmbientSpace, CellPartition, OrthonormalBasis, _finite_array
from .models import SpectralModel

# Rounding allowance of the stage guards, relative to the generator norm
# ||A|| = max |mu| that their rounding grows with (about 2^n): asymmetry,
# the largest eigenvalue and the backward error of a resolvent solve.
GUARD_EPS = 64 * np.finfo(float).eps

# Deepest dyadic level: 2^n must stay a finite float.
N_MAX = 1023

# Finest level-set resolution: the overflow label -4**k - 1 must fit int64.
K_MAX = 31


# ---------------------------------------------------------------------------
# stage indices
# ---------------------------------------------------------------------------

def is_integer(value) -> bool:
    """An int or a numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class StageIndex:
    """Which stages are enabled, and how deep.

    ``n`` is always present (semigroup time 2^-n).  ``m`` enables the
    Galerkin cut, ``l`` the exhaustion mask, ``k`` the level-set
    conditioning; each requires the previous, giving the four families
    (n), (n,m), (n,m,l), (n,m,l,k).
    """

    n: int
    m: int | None = None
    l: int | None = None
    k: int | None = None

    def __post_init__(self):
        for field in ("n", "m", "l", "k"):
            value = getattr(self, field)
            if value is not None and not is_integer(value):
                raise ValueError(f"{field} must be an integer, got {value!r}")
        if not 0 <= self.n <= N_MAX:
            raise ValueError(f"n must be in 0..{N_MAX}, got {self.n}")
        if self.m is not None and self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.l is not None and self.m is None:
            raise ValueError("l requires m (mask applies to a Galerkin stage)")
        if self.l is not None and self.l < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")
        if self.k is not None and self.l is None:
            raise ValueError("k requires l (conditioning applies to a masked stage)")
        if self.k is not None and not 0 <= self.k <= K_MAX:
            raise ValueError(f"k must be in 0..{K_MAX}, got {self.k}")

    def validate_for(self, model: SpectralModel, basis: OrthonormalBasis) -> None:
        """Refuse an m beyond the basis or an l beyond the exhaustion, by their owners' rules."""
        if basis.space is not model.space:
            raise ValueError("model and basis must share one ambient space")
        if self.m is not None:
            basis.leading(self.m)
        if self.l is not None:
            model.space.exhaustion_set(self.l)

    @property
    def time(self) -> float:
        return 2.0 ** (-self.n)

    @property
    def bound(self) -> float:
        return 2.0**self.n

    def label(self) -> str:
        parts = [f"n{self.n}"]
        for field in ("m", "l", "k"):
            value = getattr(self, field)
            if value is not None:
                parts.append(f"{field}{value}")
        return "_".join(parts)


# ---------------------------------------------------------------------------
# the individual stage maps
# ---------------------------------------------------------------------------

def semigroup_form(model: SpectralModel, n, f: np.ndarray):
    """2^n <f - P_{2^-n} f, f>, computed mode by mode.

    Uses expm1 for the per-mode factors 1 - exp(-lambda 2^-n), so the
    value stays accurate when n is large and the difference f - P f is
    tiny.  Any component off the spectral span contributes its full
    squared norm times 2^n.  Batched over leading axes of f; ``n`` is one
    level or an integer array that broadcasts against them, such as an
    (L, 1) grid that splits f once for every level.
    """
    if np.min(n) < 0:
        raise ValueError(f"n must be >= 0, got {np.min(n)}")
    try:
        np.broadcast_shapes(np.shape(n), np.shape(f)[:-1])
    except ValueError:
        raise DimensionMismatch(f"levels {np.shape(n)} for functions {np.shape(f)}") from None
    c, residual = model.space.split(model.basis.vectors, f)
    decay = model.decay(2.0 ** (-n))
    off_span = model.space.inner(residual, residual)
    out = 2.0**n * ((decay * c**2).sum(axis=-1) + off_span)
    return float(out) if np.ndim(out) == 0 else out


def galerkin_projection(basis: OrthonormalBasis, m: int, f: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the first m basis vectors; batched."""
    return basis.synthesize(basis.coefficients(f, m))


def level_partition(basis: OrthonormalBasis, m: int, k: int) -> CellPartition:
    """Joint dyadic level-set partition of the first m basis vectors.

    Each function contributes the half-open windows
    (j 2^-k, (j+1) 2^-k] for j in -4**k .. 4**k - 1 together with the
    overflow cells {phi <= -2^k} (label -4**k - 1, lower end inclusive)
    and {phi > 2^k} (label 4**k).  Cells of the joint partition are the
    nonempty intersections over i <= m, found by grouping per-site label
    tuples instead of enumerating the combinatorial product.  Cells are
    ordered lexicographically by label, and zero-mass cells are dropped.
    """
    values = basis.leading(m)
    if not 0 <= k <= K_MAX:
        raise ValueError(f"k must be in 0..{K_MAX}, got {k}")
    window = 2.0**k
    labels = np.ceil(values * window).astype(np.int64) - 1
    labels = np.where(values <= -window, -(4**k) - 1, labels)
    labels = np.where(values > window, 4**k, labels)
    unique, inverse = np.unique(labels.T, axis=0, return_inverse=True)
    return CellPartition.from_labels(
        basis.space, inverse.reshape(-1), unique.shape[0], labels=unique, level=k
    )


def stage_partition(basis: OrthonormalBasis, index: StageIndex) -> CellPartition:
    """The level-set partition of a fully indexed stage, restricted to X_l."""
    space = basis.space
    partition = level_partition(basis, index.m, index.k)
    return partition.restrict(space, space.exhaustion_set(index.l))


# ---------------------------------------------------------------------------
# assembled stages
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StageForm:
    """A stage generator over an explicitly recorded subspace.

    ``matrix`` is the generator of the stage form in the orthonormal
    coordinates given by the rows of ``subspace``: finite, and symmetric
    and negative semidefinite up to GUARD_EPS times its operator norm,
    kept as ``norm`` = max |mu| (at most 2^(n+1)).  Off the subspace the
    generator acts as zero.
    """

    index: StageIndex
    matrix: np.ndarray
    subspace: np.ndarray
    space: AmbientSpace

    def __post_init__(self):
        matrix = _finite_array(self.matrix, "matrix")
        subspace = _finite_array(self.subspace, "subspace")
        p = subspace.shape[0]
        if matrix.shape != (p, p):
            raise DimensionMismatch(
                f"matrix {matrix.shape} does not act on {p} subspace vectors"
            )
        mu = np.linalg.eigvalsh(matrix)
        norm = float(np.max(np.abs(mu)))
        asym = float(np.max(np.abs(matrix - matrix.T)))
        if asym > GUARD_EPS * norm:
            raise ValueError(f"generator asymmetry {asym:.3e} exceeds {GUARD_EPS:.1e} * ||A||")
        if mu[-1] > GUARD_EPS * norm:
            raise ValueError(
                f"generator has positive eigenvalue {mu[-1]:.3e} = {mu[-1] / norm:.1e} * ||A||; "
                "stage operators must be negative semidefinite"
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "subspace", subspace)
        object.__setattr__(self, "norm", norm)

    @property
    def dim(self) -> int:
        return self.subspace.shape[0]

    def quad_form(self, f: np.ndarray):
        """<-L f, f>: the energy the generator assigns to f."""
        c = self.space.coefficients(self.subspace, f)
        out = -np.einsum("...p,pq,...q->...", c, self.matrix, c)
        return float(out) if np.ndim(out) == 0 else out


class Stage:
    """One assembled approximation stage for a model, basis, and index.

    Bundles the composed projection, the stage form, and the generator.
    The projection images S_i of the subspace basis vectors do not depend
    on n and are computed once, with their spectral coefficients C (p x K)
    and the Gram matrix G of their off-span parts, which P_t annihilates:
    A_ij = -2^n <(I - P_t) S_j, S_i> = -2^n (C diag(d_n) C^T + G)_ij, and
    ``at`` gives the same projection at another level without rebuilding it.
    """

    def __init__(self, model: SpectralModel, basis: OrthonormalBasis, index: StageIndex):
        index.validate_for(model, basis)
        self.model = model
        self.basis = basis
        space = model.space

        self.partition: CellPartition | None = None
        if index.m is None:
            # Bare semigroup stage: the subspace is the spectral span.
            subspace = model.basis.vectors
            images = subspace
        else:
            subspace = basis.leading(index.m)
            images = subspace
            if index.l is not None:
                images = images * space.exhaustion_mask(index.l)
            if index.k is not None:
                partition = stage_partition(basis, index)
                self.partition = partition
                # Conditional expectation: average the masked images over
                # each cell, then spread the averages back out.
                images = partition.spread(partition.average(space, images))
            self._modes, off_span = space.split(model.basis.vectors, images)
            self._gram = space.coefficients(off_span, off_span)
        self.subspace = subspace
        self.images = images
        self._assemble(index)

    def _assemble(self, index: StageIndex) -> None:
        """Set the index and build the generator matrix at its level n."""
        self.index = index
        decay = self.model.decay(index.time)
        if index.m is None:
            matrix = np.diag(-index.bound * decay)
        else:
            # <(I - P_t) S_j, S_i> = sum_k d_k C_ik C_jk + G_ij: accurate at any n.
            cross = (self._modes * decay) @ self._modes.T + self._gram
            matrix = -index.bound * (cross + cross.T) / 2.0
        self.form_data = StageForm(
            index=index, matrix=matrix, subspace=self.subspace, space=self.model.space
        )

    def at(self, n: int) -> "Stage":
        """The same projection at dyadic level n; the arrays are shared."""
        stage = copy.copy(self)
        stage._assemble(replace(self.index, n=n))
        return stage

    # -- the composed projection ------------------------------------------

    def project(self, f: np.ndarray) -> np.ndarray:
        """The composed stage projection of f; batched.

        For the bare-n stage this is the identity (no projection is part
        of that form).
        """
        if self.index.m is None:
            return np.array(f, dtype=float, copy=True)
        c = self.basis.coefficients(f, self.index.m)
        return c @ self.images

    # -- the stage form ------------------------------------------------------

    def form(self, f: np.ndarray):
        """The stage energy of f; batched over leading axes."""
        g = self.project(f)
        return semigroup_form(self.model, self.index.n, g)


def stage_generator(
    model: SpectralModel, basis: OrthonormalBasis, index: StageIndex
) -> StageForm:
    """Generator matrix of the stage at ``index`` over its subspace."""
    return Stage(model, basis, index).form_data
