"""Finite weighted sample spaces, cell partitions, and step functions.

The ambient stand-in for a sigma-finite measure space is a fixed grid of
sample sites with nonnegative quadrature weights and a monotone exhaustion
by index sets.  Functions are plain float arrays sampled on the grid; the
only geometry used anywhere downstream is the weighted inner product

    <f, g> = sum_x f(x) g(x) w(x).

Partitions label every site with its cell (or -1 off the support); cells
are disjoint and carry positive mass.  A step function pairs a partition
with one coefficient per cell, and conditioning a function on a partition
(optionally under a restricted index set) is the weighted-L2 orthogonal
projection onto the span of the cell indicators.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, PartitionError

# Orthonormality residual above which a basis is rejected at construction
# time and must go through OrthonormalBasis.orthonormalized instead.
TOL_ORTHO = 1e-8


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only copy of values: neither its owner nor the caller's input can change it."""
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _finite_array(values, name: str) -> np.ndarray:
    """Frozen float copy; a non-finite value is refused by name, before NaN can pass a comparison."""
    try:
        out = _frozen_array(values)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} must be finite") from None
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    return out


# ---------------------------------------------------------------------------
# ambient space
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AmbientSpace:
    """A finite grid carrying a measure.

    Parameters
    ----------
    points : (M,) array
        Site coordinates.  Used only when building models and for display;
        no downstream computation reads them.
    weights : (M,) array
        Nonnegative site masses (quadrature weights).
    exhaustion : sequence of index arrays
        Monotone family ``X_1 <= X_2 <= ... <= X_{l_max}`` with the last
        member covering every index.  This is the sigma-finiteness
        bookkeeping: truncation stages restrict to one of these sets.
    """

    points: np.ndarray
    weights: np.ndarray
    exhaustion: tuple[np.ndarray, ...]

    def __post_init__(self):
        points = _frozen_array(self.points)
        weights = _finite_array(self.weights, "weights")
        if points.ndim != 1 or weights.ndim != 1:
            raise ValueError("points and weights must be one-dimensional")
        if points.shape != weights.shape:
            raise DimensionMismatch(
                f"{points.size} points but {weights.size} weights"
            )
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        sets = []
        for raw in self.exhaustion:
            # Sorted without repeats, as np.unique gives, which imports numpy.ma.
            idx = np.sort(np.asarray(raw, dtype=np.intp), axis=None)
            idx = idx[np.diff(idx, prepend=idx[:1] - 1) != 0]
            if idx.size and (idx[0] < 0 or idx[-1] >= points.size):
                raise ValueError("exhaustion indices out of range")
            sets.append(_frozen_array(idx, dtype=np.intp))
        if not sets:
            raise ValueError("exhaustion must have at least one set")
        for fine, coarse in zip(sets, sets[1:]):
            if not np.all(np.isin(fine, coarse)):
                raise ValueError("exhaustion sets must be nested")
        if sets[-1].size != points.size:
            raise ValueError("final exhaustion set must cover every index")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "exhaustion", tuple(sets))

    # -- basic geometry ----------------------------------------------------

    @property
    def size(self) -> int:
        return self.points.size

    @cached_property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def check_site_axis(self, *arrays: np.ndarray) -> None:
        """Refuse an array whose last axis is not one value per site."""
        shapes = [np.shape(a) for a in arrays]
        if any(shape[-1:] != (self.size,) for shape in shapes):
            raise DimensionMismatch(f"expected last axis {self.size}, got shapes {shapes}")

    def inner(self, f: np.ndarray, g: np.ndarray):
        """Weighted inner product; batched over leading axes."""
        f = np.asarray(f, dtype=float)
        g = np.asarray(g, dtype=float)
        self.check_site_axis(f, g)
        out = np.einsum("...i,...i,i->...", f, g, self.weights)
        return float(out) if out.ndim == 0 else out

    def norm(self, f: np.ndarray):
        """Weighted L2 norm; batched over leading axes."""
        f = np.asarray(f, dtype=float)
        return np.sqrt(self.inner(f, f))

    def coefficients(self, rows: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Weighted inner products <f, row_k> against every row; batched over f.

        One 2-D matmul of f·w against the rows, with the leading axes of f
        flattened: a stacked matmul would round a batch differently from
        its rows taken alone.
        """
        f = np.asarray(f, dtype=float)
        self.check_site_axis(f, rows)
        flat = (f * self.weights).reshape(-1, self.size) @ rows.T
        return flat.reshape(*f.shape[:-1], len(rows))

    def split(self, rows: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients of f against orthonormal rows, and the rest of f off their span."""
        f = np.asarray(f, dtype=float)
        c = self.coefficients(rows, f)
        return c, f - c @ rows

    def constant(self) -> np.ndarray:
        return np.ones(self.size)

    # -- exhaustion --------------------------------------------------------

    @property
    def l_max(self) -> int:
        return len(self.exhaustion)

    def exhaustion_set(self, l: int) -> np.ndarray:
        """Index set X_l for 1-based l."""
        if not 1 <= l <= self.l_max:
            raise ValueError(f"l must be in 1..{self.l_max}, got {l}")
        return self.exhaustion[l - 1]

    def exhaustion_mask(self, l: int) -> np.ndarray:
        mask = np.zeros(self.size, dtype=bool)
        mask[self.exhaustion_set(l)] = True
        return mask


def uniform_interval_space(resolution: int) -> AmbientSpace:
    """Midpoint grid on [0, 1] with uniform weights and a left-to-right
    exhaustion in four equal slabs."""
    if resolution < 1:
        raise ValueError("resolution must be positive")
    points = (np.arange(resolution) + 0.5) / resolution
    weights = np.full(resolution, 1.0 / resolution)
    return AmbientSpace(points, weights, exhaustion_slabs(resolution))


def exhaustion_slabs(size: int, levels: int = 4) -> tuple[np.ndarray, ...]:
    """Left-to-right exhaustion of sites 0..size-1 in ``levels`` equal
    slabs: X_l holds the first ceil(size * l / levels) sites."""
    return tuple(
        np.arange(int(np.ceil(size * l / levels))) for l in range(1, levels + 1)
    )


# ---------------------------------------------------------------------------
# partitions and step functions
# ---------------------------------------------------------------------------

def _check_cell_range(cell_of: np.ndarray, n_cells: int) -> None:
    if cell_of.size and (cell_of.min() < -1 or cell_of.max() >= n_cells):
        raise PartitionError(f"cell_of entries must lie in -1..{n_cells - 1}")


@dataclass(frozen=True, eq=False)
class CellPartition:
    """Disjoint cells of positive mass, stored as one site -> cell label vector.

    ``cell_of[x]`` is the cell of site x, or -1 for sites off the support;
    cells are numbered 0..n_cells-1 and every number is carried by at least
    one site.  ``labels`` and ``level`` are present when the partition came
    from a dyadic level-set construction: row i of ``labels`` is the
    multi-index of cell i and ``level`` is the dyadic resolution k.  Ad-hoc
    partitions leave both unset.
    """

    cell_of: np.ndarray
    masses: np.ndarray
    labels: np.ndarray | None = None
    level: int | None = None

    def __post_init__(self):
        cell_of = _frozen_array(self.cell_of, dtype=np.intp)
        masses = _frozen_array(self.masses)
        if cell_of.ndim != 1 or masses.ndim != 1:
            raise PartitionError("cell_of and masses must be one-dimensional")
        n_cells = masses.size
        if n_cells == 0:
            raise PartitionError("partition needs at least one cell")
        _check_cell_range(cell_of, n_cells)
        if np.any(np.bincount(cell_of[cell_of >= 0], minlength=n_cells) == 0):
            raise PartitionError("every cell index must be carried by a site")
        # Not _finite_array: a partition's refusals are all PartitionErrors.
        if not np.all(np.isfinite(masses)) or np.any(masses <= 0):
            raise PartitionError("cells must have finite positive mass")
        labels = self.labels
        if labels is not None:
            labels = _frozen_array(labels, dtype=np.int64)
            if labels.shape[0] != n_cells:
                raise PartitionError("one label row per cell required")
        object.__setattr__(self, "cell_of", cell_of)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_labels(
        cls,
        space: AmbientSpace,
        cell_of: np.ndarray,
        n_cells: int,
        labels: np.ndarray | None = None,
        level: int | None = None,
    ) -> "CellPartition":
        """Build a partition from a site -> cell vector, dropping massless cells.

        ``cell_of`` holds a candidate cell in 0..n_cells-1 for each site,
        or -1.  Candidates that are empty or carry zero weight are removed
        (their labels with them) and the survivors renumbered in their
        original order; raising only happens when nothing survives.
        """
        cell_of = np.asarray(cell_of, dtype=np.intp)
        if cell_of.shape != (space.size,):
            raise PartitionError(f"cell_of must have shape ({space.size},)")
        _check_cell_range(cell_of, n_cells)
        on = cell_of >= 0
        masses = np.bincount(cell_of[on], weights=space.weights[on], minlength=n_cells)
        keep = masses > 0
        if not keep.any():
            raise PartitionError("no cell retains positive mass")
        if not keep.all():
            renumber = np.where(keep, np.cumsum(keep) - 1, -1)
            cell_of = np.where(on, renumber[cell_of], -1)
            masses = masses[keep]
            if labels is not None:
                labels = np.asarray(labels)[keep]
        return cls(cell_of=cell_of, masses=masses, labels=labels, level=level)

    @classmethod
    def from_cells(
        cls,
        space: AmbientSpace,
        cells: Sequence[np.ndarray],
        labels: np.ndarray | None = None,
        level: int | None = None,
    ) -> "CellPartition":
        """Build a partition from per-cell index arrays, dropping cells with no mass."""
        cell_of = np.full(space.size, -1, dtype=np.intp)
        for c, raw in enumerate(cells):
            idx = np.unique(np.asarray(raw, dtype=np.intp))
            if idx.size and (idx[0] < 0 or idx[-1] >= space.size):
                raise PartitionError("cell indices out of range")
            if np.any(cell_of[idx] >= 0):
                raise PartitionError("cells overlap")
            cell_of[idx] = c
        return cls.from_labels(space, cell_of, len(cells), labels=labels, level=level)

    @classmethod
    def singletons(cls, space: AmbientSpace) -> "CellPartition":
        """Finest partition: one cell per positive-mass site."""
        return cls.from_labels(space, np.arange(space.size), space.size)

    # -- derived structure -------------------------------------------------

    @property
    def size(self) -> int:
        return self.cell_of.size

    @property
    def n_cells(self) -> int:
        return self.masses.size

    @cached_property
    def support(self) -> np.ndarray:
        return _frozen_array(np.flatnonzero(self.cell_of >= 0), dtype=np.intp)

    @cached_property
    def first_sites(self) -> np.ndarray:
        """(n_cells,) lowest site index of each cell."""
        on = self.support
        _, first = np.unique(self.cell_of[on], return_index=True)
        return _frozen_array(on[first], dtype=np.intp)

    @cached_property
    def tail_mask(self) -> np.ndarray:
        """Boolean flag per cell marking overflow cells of the label grid.

        At dyadic level k the regular multi-index range is
        -4**k .. 4**k - 1; the two overflow labels -4**k - 1 and 4**k mark
        points beyond the +-2**k value window.  Only meaningful for
        labelled partitions.
        """
        if self.labels is None or self.level is None:
            raise PartitionError("tail_mask needs a labelled level-set partition")
        bound = 4 ** self.level
        return np.any((self.labels == bound) | (self.labels == -bound - 1), axis=1)

    # -- operations --------------------------------------------------------

    def restrict(self, space: AmbientSpace, indices: np.ndarray) -> "CellPartition":
        """Intersect every cell with an index set, keeping positive-mass cells.

        Raises PartitionError when an index is out of range or no cell
        survives the restriction.
        """
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size and (indices.min() < 0 or indices.max() >= self.size):
            raise PartitionError(f"restriction indices must lie in 0..{self.size - 1}")
        keep = np.zeros(self.size, dtype=bool)
        keep[indices] = True
        return CellPartition.from_labels(
            space,
            np.where(keep, self.cell_of, -1),
            self.n_cells,
            labels=self.labels,
            level=self.level,
        )

    def average(self, space: AmbientSpace, f: np.ndarray) -> np.ndarray:
        """Weighted cell averages of f, each row summed alone; batched."""
        return self.cell_sums(f * space.weights) / self.masses

    def spread(self, values: np.ndarray) -> np.ndarray:
        """Per-cell values spread back to the sites, zero off the support; batched.

        C-ordered, which later products rely on: they round differently on
        an F-ordered array.
        """
        return np.where(self.cell_of >= 0, np.take(values, self.cell_of, axis=-1), 0.0)

    def cell_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-cell sums over the last axis of site values, in site order; batched.

        Equal bit for bit to a sequential sum over the sites of each cell.
        """
        on = self.support
        out = np.zeros((self.n_cells,) + values.shape[:-1])
        np.add.at(out, self.cell_of[on], np.moveaxis(values[..., on], -1, 0))
        return np.moveaxis(out, 0, -1)

    def refines(self, coarser: "CellPartition") -> bool:
        """True when every cell of self sits inside a single cell of ``coarser``
        and the supports agree."""
        if self.size != coarser.size:
            return False
        if not np.array_equal(self.cell_of >= 0, coarser.cell_of >= 0):
            return False
        owner = coarser.cell_of[self.support]
        expected = coarser.cell_of[self.first_sites][self.cell_of[self.support]]
        return bool(np.array_equal(owner, expected))


@dataclass(frozen=True, eq=False)
class StepFunction:
    """One coefficient per cell of a partition; batched over leading axes."""

    partition: CellPartition
    coefficients: np.ndarray

    def __post_init__(self):
        # Not _finite_array: the audits must see a NaN coefficient to fail on it.
        coeffs = _frozen_array(self.coefficients)
        if coeffs.shape[-1:] != (self.partition.n_cells,):
            raise DimensionMismatch(
                f"{self.partition.n_cells} cells but coefficients of shape {coeffs.shape}"
            )
        object.__setattr__(self, "coefficients", coeffs)

    def expand(self) -> np.ndarray:
        """Pointwise values on the full grid; zero off the support; batched."""
        return self.partition.spread(self.coefficients)


def condition_on_partition(
    f: np.ndarray,
    partition: CellPartition,
    space: AmbientSpace,
    restrict_to: np.ndarray | None = None,
) -> StepFunction:
    """Project onto the indicator span of a partition by cell averaging.

    With ``restrict_to`` the averages are taken under the measure
    restricted to that index set and the returned step function lives on
    the restricted partition.  This is the weighted-L2 orthogonal
    projection onto the span of the (restricted) cell indicators; the
    expansion agrees with the conditional-average values except on
    zero-weight sites, which carry no mass.  Batched over leading axes of f.
    """
    f = np.asarray(f, dtype=float)
    space.check_site_axis(f)
    part = partition
    if restrict_to is not None:
        part = partition.restrict(space, restrict_to)
    return StepFunction(part, part.average(space, f))


# ---------------------------------------------------------------------------
# orthonormal bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Rows of ``vectors`` are orthonormal for the space's inner product.

    Construction validates the Gram matrix against TOL_ORTHO and rejects
    bases that fail; ``orthonormalized`` repairs such input first.
    """

    space: AmbientSpace
    vectors: np.ndarray

    def __post_init__(self):
        vectors = _finite_array(self.vectors, "basis vectors")
        if vectors.ndim != 2 or vectors.shape[1] != self.space.size:
            raise DimensionMismatch(
                f"vectors must be (K, {self.space.size}), got {vectors.shape}"
            )
        if vectors.shape[0] < 1:
            raise ValueError("basis needs at least one vector")
        object.__setattr__(self, "vectors", vectors)
        if self.orthonormality_residual > TOL_ORTHO:
            raise ValueError(
                f"basis fails orthonormality at {self.orthonormality_residual:.3e} "
                f"(tolerance {TOL_ORTHO:.1e}); use OrthonormalBasis.orthonormalized"
            )

    @cached_property
    def orthonormality_residual(self) -> float:
        gram = self.space.coefficients(self.vectors, self.vectors)
        return float(np.max(np.abs(gram - np.eye(self.n_vectors))))

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[0]

    def leading(self, m: int) -> np.ndarray:
        """The first m basis vectors, for 1 <= m <= n_vectors."""
        if not 1 <= m <= self.n_vectors:
            raise DimensionMismatch(f"m must be in 1..{self.n_vectors}, got {m}")
        return self.vectors[:m]

    def coefficients(self, f: np.ndarray, m: int | None = None) -> np.ndarray:
        """Inner products against the first m basis vectors (all by default); batched."""
        rows = self.vectors if m is None else self.leading(m)
        return self.space.coefficients(rows, f)

    def synthesize(self, coefficients: np.ndarray) -> np.ndarray:
        """Linear combination of leading basis vectors; batched."""
        coefficients = np.asarray(coefficients, dtype=float)
        return coefficients @ self.leading(coefficients.shape[-1])

    @classmethod
    def orthonormalized(
        cls, space: AmbientSpace, vectors: np.ndarray
    ) -> "OrthonormalBasis":
        """Stabilized Gram-Schmidt (two modified passes) on the rows.

        Raises on effective rank deficiency instead of silently dropping
        vectors.
        """
        rows = np.array(vectors, dtype=float, copy=True)
        if rows.ndim != 2:
            raise ValueError("vectors must be a 2-d array")
        done: list[np.ndarray] = []
        for r, row in enumerate(rows):
            original = space.norm(row)
            for _ in range(2):
                for prev in done:
                    row = row - space.inner(prev, row) * prev
            remaining = space.norm(row)
            if remaining <= 1e-12 * max(original, 1.0):
                raise ValueError(f"input row {r} is numerically dependent")
            done.append(row / remaining)
        return cls(space, np.array(done))

    @classmethod
    def haar(cls, space: AmbientSpace, count: int) -> "OrthonormalBasis":
        """Mass-balanced Haar-type basis on the positive-weight sites.

        The first vector is the normalized constant; each later vector is
        supported on one dyadic block, positive on the left half and
        negative on the right, scaled to zero mean and unit norm.  Blocks
        split at the site closest to half the block mass, breadth first,
        so vector j only refines earlier vectors.
        """
        if count < 1:
            raise ValueError("count must be positive")
        alive = np.flatnonzero(space.weights > 0)
        if alive.size < count:
            raise ValueError(
                f"{count} vectors requested but only {alive.size} sites carry mass"
            )
        w = space.weights
        out = np.zeros((count, space.size))
        out[0, alive] = 1.0
        out[0] /= space.norm(out[0])
        queue: list[np.ndarray] = [alive]
        built = 1
        # Every block holds positive-weight sites only, so both halves carry
        # mass, and the alive.size >= count sites allow count - 1 splits.
        while built < count:
            block = queue.pop(0)
            if block.size < 2:
                continue
            cum = np.cumsum(w[block])
            half = min(np.searchsorted(cum, cum[-1] / 2.0, side="left") + 1, block.size - 1)
            left, right = block[:half], block[half:]
            mass_l, mass_r = w[left].sum(), w[right].sum()
            vec = np.zeros(space.size)
            vec[left] = 1.0 / mass_l
            vec[right] = -1.0 / mass_r
            out[built] = vec / space.norm(vec)
            built += 1
            queue.extend([left, right])
        return cls(space, out)
