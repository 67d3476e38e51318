"""Symmetric Markov semigroup models.

Two representations coexist.  A ``SpectralModel`` carries an explicit
eigensystem: eigenvalues 0 <= lambda_1 <= lambda_2 <= ... with rows of an
orthonormal basis as eigenfunctions, and the semigroup acts by damping
coefficients with exp(-lambda t).  A ``MarkovKernelModel`` is a one-step
kernel matrix on a small space, validated for nonnegativity,
sub-stochasticity, and symmetry in the weighted inner product; it can be
converted to a SpectralModel by diagonalizing I - P.

Conventions for the orthogonal complement of a truncated span, shared
by every consumer downstream: the semigroup annihilates it (P_t acts as
the span projection composed with damping), the energy form ignores it
(the sum runs over recorded modes only, going +inf just where a recorded
infinite eigenvalue carries weight), and the resolvent scales it by
1/lambda, as befits a generator that vanishes off the span.  Stage
resolvents adopt the same rule for their own subspaces, which keeps
model-vs-stage comparisons blind to spectral mass neither can see.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, SymmetryError
from .measure import (
    AmbientSpace,
    OrthonormalBasis,
    _finite_array,
    _frozen_array,
    exhaustion_slabs,
    uniform_interval_space,
)

# Validation tolerance for kernel matrices: nonnegativity, row sums,
# and weighted symmetry must each hold to this accuracy.
KERNEL_TOL = 1e-12


def _check_lambda(lam: float, name: str = "lambda") -> None:
    """Refuse a resolvent parameter that is not a finite, positive float."""
    # json reads NaN and Infinity; NaN fails every comparison.
    if not abs(lam) <= sys.float_info.max:
        raise ValueError(f"{name}: resolvent parameter must be a finite float")
    if lam <= 0:
        raise ValueError(f"{name}: resolvent parameter must be positive")


# ---------------------------------------------------------------------------
# spectral models
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectralModel:
    """A semigroup given by an explicit finite eigensystem.

    Parameters
    ----------
    name : str
        Identifier used by the CLI and in reports.
    space : AmbientSpace
        Grid the eigenfunctions are sampled on.
    eigenvalues : (K,) array
        Nondecreasing, nonnegative; +inf entries are allowed and mark
        directions where the energy form saturates.
    basis : OrthonormalBasis
        K orthonormal eigenfunctions, one row per eigenvalue.
    """

    name: str
    space: AmbientSpace
    eigenvalues: np.ndarray
    basis: OrthonormalBasis

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1:
            raise ValueError("eigenvalues must be one-dimensional")
        if lam.size != self.basis.n_vectors:
            raise DimensionMismatch(
                f"{lam.size} eigenvalues for {self.basis.n_vectors} basis vectors"
            )
        if np.any(np.isnan(lam)) or np.any(lam < -1e-10):  # +inf is allowed: not _finite_array
            raise ValueError("eigenvalues must be nonnegative")
        lam = np.maximum(lam, 0.0)
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        if self.basis.space is not self.space:
            raise ValueError("basis must live on the model's space")
        object.__setattr__(self, "eigenvalues", _frozen_array(lam))

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    def decay(self, t) -> np.ndarray:
        """Per-mode 1 - exp(-lambda t), via expm1 so it stays accurate for
        small t; 1 on infinite eigenvalues.  One row of modes per time."""
        with np.errstate(invalid="ignore"):
            out = -np.expm1(np.multiply.outer(t, -self.eigenvalues))
        return np.where(np.isfinite(self.eigenvalues), out, 1.0)

    def apply_semigroup(self, t, f: np.ndarray) -> np.ndarray:
        """P_t f by coefficient damping; batched over leading axes.

        ``t`` is one time, or an array of times that broadcasts against
        the leading axes of f: one per row, or a (T, 1) grid that takes
        every row at every time.  The orthogonal complement of the span
        is annihilated, so t = 0 gives the span projection.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError(f"time must be nonnegative, got {t.min()}")
        try:
            np.broadcast_shapes(t.shape, np.shape(f)[:-1])
        except ValueError:
            raise DimensionMismatch(f"times {t.shape} for functions {np.shape(f)}") from None
        c = self.basis.coefficients(f)
        with np.errstate(invalid="ignore"):
            decay = np.exp(np.multiply.outer(t, -self.eigenvalues))
        decay = np.where(np.isfinite(self.eigenvalues), decay, 0.0)
        return self.basis.synthesize(c * decay)

    def exact_form(self, f: np.ndarray):
        """Energy sum(lambda_k <f, phi_k>^2), +inf where an infinite
        eigenvalue carries nonzero coefficient."""
        c2 = self.basis.coefficients(f) ** 2
        with np.errstate(invalid="ignore"):
            terms = np.where(c2 > 0, self.eigenvalues * c2, 0.0)
        out = terms.sum(axis=-1)
        return float(out) if out.ndim == 0 else out

    def exact_resolvent(self, lam: float, f: np.ndarray) -> np.ndarray:
        """(lambda - L)^{-1} f; the span complement is scaled by 1/lambda.

        The complement convention matches the stage resolvents built
        downstream, whose generators vanish off their recorded subspace.
        """
        _check_lambda(lam)
        c, complement = self.space.split(self.basis.vectors, f)
        gain = 1.0 / (lam + self.eigenvalues)
        return self.basis.synthesize(c * gain) + complement / lam

    @cached_property
    def is_complete(self) -> bool:
        """True when the span is all of weighted L2 (no truncation)."""
        return self.n_modes >= int(np.count_nonzero(self.space.weights > 0))


# ---------------------------------------------------------------------------
# kernel models
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MarkovKernelModel:
    """A one-step kernel P on a small weighted space.

    Validated at construction: entries finite and nonnegative, row sums at
    most one, and weighted symmetry w(x) P(x, y) = w(y) P(y, x), each to
    KERNEL_TOL.
    """

    name: str
    space: AmbientSpace
    kernel: np.ndarray

    def __post_init__(self):
        P = _finite_array(self.kernel, "kernel")
        n = self.space.size
        if P.shape != (n, n):
            raise DimensionMismatch(f"kernel must be ({n}, {n}), got {P.shape}")
        if np.any(self.space.weights <= 0):
            raise ValueError("kernel models need strictly positive weights")
        if np.min(P) < -KERNEL_TOL:
            raise ValueError(f"kernel has negative entry {np.min(P):.3e}")
        rows = P.sum(axis=1)
        if np.max(rows) > 1.0 + KERNEL_TOL:
            raise ValueError(f"kernel row sum {np.max(rows):.15f} exceeds one")
        flux = self.space.weights[:, None] * P
        asym = float(np.max(np.abs(flux - flux.T)))
        if asym > KERNEL_TOL * max(1.0, float(np.max(np.abs(flux)))):
            raise SymmetryError(
                f"kernel is not symmetric for the weighted inner product "
                f"(residual {asym:.3e})"
            )
        object.__setattr__(self, "kernel", P)

    @property
    def size(self) -> int:
        return self.space.size

    @cached_property
    def is_conservative(self) -> bool:
        return bool(np.max(np.abs(self.kernel.sum(axis=1) - 1.0)) <= KERNEL_TOL)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """(P f)(x) = sum_y P(x, y) f(y); batched over leading axes."""
        f = np.asarray(f, dtype=float)
        self.space.check_site_axis(f)
        return f @ self.kernel.T

    def to_spectral(self, modes: int | None = None, name: str | None = None) -> SpectralModel:
        """Diagonalize I - P in the weighted geometry.

        Returns a SpectralModel whose semigroup is exp(-t (I - P)); with
        ``modes`` unset the full eigensystem is kept and the conversion
        is exact.
        """
        w = self.space.weights
        root = np.sqrt(w)
        sym = root[:, None] * (np.eye(self.size) - self.kernel) / root[None, :]
        sym = (sym + sym.T) / 2.0
        # SpectralModel clamps the rounding below zero and refuses the rest.
        lam, psi = np.linalg.eigh(sym)
        vectors = (psi / root[:, None]).T
        # Fix the sign ambiguity so repeated runs agree bit for bit.
        lead = vectors[np.arange(self.size), np.argmax(np.abs(vectors), axis=1)]
        vectors[lead < 0] *= -1.0
        keep = self.size if modes is None else modes
        if not 1 <= keep <= self.size:
            raise ValueError(f"modes must be in 1..{self.size}, got {keep}")
        return SpectralModel(
            name=name or f"{self.name}-spectral",
            space=self.space,
            eigenvalues=lam[:keep],
            basis=OrthonormalBasis(self.space, vectors[:keep]),
        )


# ---------------------------------------------------------------------------
# the builtin zoo
# ---------------------------------------------------------------------------

def neumann_model(resolution: int = 1024, modes: int = 64) -> SpectralModel:
    """Heat semigroup on [0, 1] with reflecting ends, truncated spectrum.

    Eigenvalues (k pi)^2 with eigenfunctions 1, sqrt(2) cos(k pi x),
    sampled at midpoints; the midpoint rule keeps the sampled family
    exactly orthonormal as long as modes stay well below the resolution.
    """
    if modes < 1 or resolution < 2 * modes:
        raise ValueError("need modes >= 1 and resolution >= 2 * modes")
    space = uniform_interval_space(resolution)
    k = np.arange(modes)
    eigenvalues = (k * math.pi) ** 2
    vectors = np.cos(np.outer(k * math.pi, space.points))
    vectors[1:] *= math.sqrt(2.0)
    return SpectralModel(
        name="neumann",
        space=space,
        eigenvalues=eigenvalues,
        basis=OrthonormalBasis(space, vectors),
    )


def ring_model(resolution: int = 1024, modes: int = 64) -> SpectralModel:
    """Heat semigroup on the unit circle, truncated spectrum.

    Modes pair up: after the constant come cos and sin at frequency q
    with shared eigenvalue (2 pi q)^2.  Sampling at resolution equally
    spaced points keeps discrete orthonormality exact.
    """
    if modes < 1 or resolution < 2 * modes:
        raise ValueError("need modes >= 1 and resolution >= 2 * modes")
    points = np.arange(resolution) / resolution
    weights = np.full(resolution, 1.0 / resolution)
    space = AmbientSpace(points, weights, exhaustion_slabs(resolution))
    eigenvalues = np.empty(modes)
    vectors = np.empty((modes, resolution))
    eigenvalues[0] = 0.0
    vectors[0] = 1.0
    for j in range(1, modes):
        q = (j + 1) // 2
        eigenvalues[j] = (2.0 * math.pi * q) ** 2
        phase = 2.0 * math.pi * q * points
        vectors[j] = math.sqrt(2.0) * (np.cos(phase) if j % 2 else np.sin(phase))
    return SpectralModel(
        name="ring",
        space=space,
        eigenvalues=eigenvalues,
        basis=OrthonormalBasis(space, vectors),
    )


def birth_death_kernel(sites: int = 64) -> MarkovKernelModel:
    """Reflecting nearest-neighbour walk on a path, uniform measure."""
    if sites < 2:
        raise ValueError("need at least two sites")
    points = np.arange(sites, dtype=float)
    weights = np.full(sites, 1.0 / sites)
    space = AmbientSpace(points, weights, exhaustion_slabs(sites))
    P = np.zeros((sites, sites))
    idx = np.arange(sites - 1)
    P[idx, idx + 1] = 0.5
    P[idx + 1, idx] = 0.5
    P[0, 0] = 0.5
    P[-1, -1] = 0.5
    return MarkovKernelModel(name="birth_death", space=space, kernel=P)


def birth_death_model(sites: int = 64, modes: int | None = None) -> SpectralModel:
    """Spectral form of the reflecting birth-death walk."""
    return birth_death_kernel(sites).to_spectral(modes=modes, name="birth_death")


def random_kernel_model(
    sites: int,
    rng: np.random.Generator,
    conservative: bool = False,
    name: str | None = None,
) -> MarkovKernelModel:
    """Random kernel, symmetric for a random positive weighting.

    Built from a symmetric nonnegative matrix S via
    P(x, y) = S(x, y) / (w(x) r); the common denominator preserves
    weighted symmetry while the row sums come out at most one.  In the
    conservative variant the slack is returned to the diagonal so every
    row sums to exactly one; otherwise each row keeps a strict killing
    margin.
    """
    if sites < 2:
        raise ValueError("need at least two sites")
    w = rng.uniform(0.2, 1.0, size=sites)
    S = rng.uniform(0.0, 1.0, size=(sites, sites))
    S = (S + S.T) / 2.0
    base = float(np.max(S.sum(axis=1) / w))
    margin = 0.0 if conservative else float(rng.uniform(0.1, 0.5))
    P = S / (w[:, None] * (base * (1.0 + margin)))
    if conservative:
        P = P + np.diag(1.0 - P.sum(axis=1))
    points = np.arange(sites, dtype=float)
    space = AmbientSpace(points, w, exhaustion_slabs(sites, min(4, sites)))
    return MarkovKernelModel(
        name=name or ("random_conservative" if conservative else "random_killed"),
        space=space,
        kernel=P,
    )


def builtin_models(
    resolution: int = 1024, modes: int = 64, seed: int = 7
) -> list:
    """The standard zoo: two truncated continuum models, the birth-death
    chain in spectral form, and two small random kernels."""
    rng = np.random.default_rng(seed)
    return [
        neumann_model(resolution, modes),
        ring_model(resolution, modes),
        birth_death_model(sites=min(modes, 64)),
        random_kernel_model(12, rng, conservative=True),
        random_kernel_model(12, rng, conservative=False),
    ]


def load_spectral_table(path, name: str | None = None) -> SpectralModel:
    """Read a spectral model from a plain-text table.

    Each non-comment row is an eigenvalue followed by the eigenfunction's
    values at the midpoints of a uniform grid on [0, 1]; all rows must
    share one length.  Rows are sorted by eigenvalue.  A family that
    misses orthonormality by more than TOL_ORTHO is repaired by
    stabilized Gram-Schmidt, keeping the stated eigenvalues.
    """
    path = Path(path)
    rows = []
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            values = [float(tok) for tok in text.split()]
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
        if len(values) < 2:
            raise ValueError(f"{path}:{line_no}: need an eigenvalue and samples")
        if not np.all(np.isfinite(values[1:])):
            raise ValueError(f"{path}:{line_no}: eigenfunction samples must be finite")
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent row lengths {sorted(widths)}")
    table = np.array(rows)
    order = np.argsort(table[:, 0], kind="stable")
    table = table[order]
    space = uniform_interval_space(table.shape[1] - 1)
    vectors = table[:, 1:]
    try:
        basis = OrthonormalBasis(space, vectors)
    except ValueError:
        basis = OrthonormalBasis.orthonormalized(space, vectors)
    return SpectralModel(
        name=name or path.stem,
        space=space,
        eigenvalues=table[:, 0],
        basis=basis,
    )


#: Builders the CLI can reach by name.  The chain is its own
#: discretization, so the mode count sets its size and the spectral form
#: is complete; the grid resolution only applies to the continuum models.
MODEL_BUILDERS = {
    "neumann": neumann_model,
    "ring": ring_model,
    "birth_death": lambda resolution, modes: birth_death_model(sites=modes),
}


def get_model(name: str, resolution: int = 1024, modes: int = 64) -> SpectralModel:
    """Resolve a model name or a path to a spectral table."""
    if name in MODEL_BUILDERS:
        return MODEL_BUILDERS[name](resolution, modes)
    candidate = Path(name)
    if candidate.exists():
        return load_spectral_table(candidate)
    known = ", ".join(sorted(MODEL_BUILDERS))
    raise ValueError(f"unknown model {name!r}; choose one of {known} or a file path")
