"""Finite weighted graphs carrying the energy of a Markov operator.

For a symmetric sub-stochastic operator P and a partition into cells
A_1..A_V, the matrix c_ij = <P 1_{A_i}, 1_{A_j}> together with vertex
weights mu_i = mu(A_i) and killing weights kappa_j = mu_j - sum_i c_ij
satisfies, for every step function f = sum_i alpha_i 1_{A_i},

    <f - P f, f>  =  1/2 sum_ij (alpha_i - alpha_j)^2 c_ij
                     + sum_j alpha_j^2 kappa_j.

That identity is what ``verify_identification`` checks and what makes
the final pipeline stage literally a graph energy form.  Graphs built
from a stage carry the stage's 2^n prefactor folded into c and kappa;
the ``scale`` field records it so the bookkeeping sum_i c_ij + kappa_j
= scale * mu_j stays checkable.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, SymmetryError
from .measure import AmbientSpace, CellPartition, OrthonormalBasis, _finite_array
from .models import MarkovKernelModel, SpectralModel
from .pipeline import StageIndex, stage_partition

# Conductances smaller than this are treated as numerical zeros in
# exports; genuine edges sit far above it.
EDGE_EPS = 1e-14

# A conductance below -CLAMP_TOL means the operator was not actually
# positivity preserving on the partition; inside the band it is noise.
CLAMP_TOL = 1e-12

# How asymmetric <P 1_A, 1_B> may be before extraction refuses.
EXTRACT_SYM_TOL = 1e-8

# Killing-weight slack per unit of the largest conductance column sum.
KILLING_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Vertex weights, symmetric conductances, and killing weights.

    ``scale`` is the prefactor folded into c and kappa relative to the
    generating operator (1 for a plain extraction, 2^n for a stage
    graph); the defect identity reads kappa_j = scale * mu_j - sum_i c_ij.
    ``partition`` optionally remembers which cells the vertices are.  A
    graph has at least one vertex, and its arrays are read-only copies.
    """

    vertex_weights: np.ndarray
    conductances: np.ndarray
    killing: np.ndarray
    scale: float = 1.0
    partition: CellPartition | None = None

    def __post_init__(self):
        names = ("vertex_weights", "conductances", "killing")
        mu, c, kappa = (_finite_array(getattr(self, name), name) for name in names)
        # Every reduction below needs an entry: refuse the empty graph first.
        if mu.size == 0:
            raise ValueError("vertex_weights: a graph needs at least one vertex")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be finite and positive")
        v = mu.size
        if mu.ndim != 1 or np.any(mu <= 0):
            raise ValueError("vertex weights must be positive")
        if c.shape != (v, v):
            raise DimensionMismatch(f"conductance matrix must be ({v}, {v})")
        if kappa.shape != (v,):
            raise DimensionMismatch(f"need {v} killing weights")
        if float(np.max(np.abs(c - c.T))) > 1e-12 * max(1.0, float(np.max(np.abs(c)))):
            raise SymmetryError("conductances must form a symmetric matrix")
        if np.min(c) < 0:
            raise ValueError(f"negative conductance {np.min(c):.3e}")
        # kappa_j = scale * mu_j - sum_i c_ij cancels against the column sums
        # of c, not against scale; an overflowing sum leaves no bound.
        with np.errstate(over="ignore"):
            slack = KILLING_TOL * max(1.0, float(np.max(c.sum(axis=0))))
        if np.min(kappa) < -slack:
            raise ValueError(f"killing weight {np.min(kappa):.3e} below tolerance")
        object.__setattr__(self, "vertex_weights", mu)
        object.__setattr__(self, "conductances", c)
        object.__setattr__(self, "killing", kappa)

    @property
    def n_vertices(self) -> int:
        return self.vertex_weights.size


def extract_graph(
    operator, partition: CellPartition, space: AmbientSpace, scale: float = 1.0
) -> WeightedGraph:
    """Build the weighted graph of an operator over a partition.

    ``operator`` is a MarkovKernelModel or any callable mapping a batch
    of functions (rows) to their images.  Conductances are the pairwise
    quantities <P 1_{A_i}, 1_{A_j}>, symmetrized after checking that the
    asymmetry stays under EXTRACT_SYM_TOL (relative to the largest entry);
    beyond it the operator is declared not symmetric for the weighted
    inner product.  Entries in (-CLAMP_TOL, 0) are rounded up to zero;
    anything lower raises, since the operator then fails positivity on
    this partition.  ``scale`` multiplies both c and kappa.
    """
    apply = operator.apply if hasattr(operator, "apply") else operator
    # No name holds the float indicator rows, so they are freed once the
    # operator returns instead of adding a (cells x sites) array to the peak.
    in_cell = partition.cell_of == np.arange(partition.n_cells)[:, None]
    images = np.asarray(apply(in_cell.astype(float)), dtype=float)
    if images.shape != (partition.n_cells, partition.size):
        raise DimensionMismatch("operator changed the shape of indicator rows")
    # c_ij = sum_x images_ix w_x over the sites x of cell j.
    c = partition.cell_sums(images * space.weights)
    asym = float(np.max(np.abs(c - c.T)))
    if asym > EXTRACT_SYM_TOL * max(1.0, float(np.max(np.abs(c)))):
        raise SymmetryError(
            f"operator is not symmetric for the weighted inner product "
            f"on this partition (residual {asym:.3e})"
        )
    c = (c + c.T) / 2.0
    low = float(np.min(c))
    if low < -CLAMP_TOL:
        raise ValueError(
            f"conductance {low:.3e} below -{CLAMP_TOL:.1e}; "
            "operator is not positivity preserving at this resolution"
        )
    c = np.maximum(c, 0.0) * scale
    mu = np.asarray(partition.masses, dtype=float)
    kappa = scale * mu - c.sum(axis=0)
    return WeightedGraph(
        vertex_weights=mu,
        conductances=c,
        killing=kappa,
        scale=scale,
        partition=partition,
    )


def graph_energy(graph: WeightedGraph, alpha):
    """Energy 1/2 sum_ij (a_i - a_j)^2 c_ij + sum_j a_j^2 kappa_j of per-vertex values.

    Evaluated in Laplacian form, b^T (D - C) b + sum_j kappa_j a_j^2 with D
    the column sums of C on the diagonal, so only per-vertex arrays are built.
    The conductance part ignores shifts, so b = a - mean(a) keeps its two
    terms from cancelling on nearly constant values.
    Batched over leading axes of alpha; a float for one vector.
    """
    if np.shape(alpha)[-1:] != (graph.n_vertices,):
        raise DimensionMismatch(
            f"expected {graph.n_vertices} values, got shape {np.shape(alpha)}"
        )
    alpha = np.asarray(alpha, dtype=float)
    c = graph.conductances
    b = alpha - alpha.mean(axis=-1, keepdims=True)
    # C is symmetric, so b @ C is C b for every row.
    out = (b * (c.sum(axis=0) * b - b @ c)).sum(axis=-1) + alpha**2 @ graph.killing
    return float(out) if out.ndim == 0 else out


def verify_identification(kernel: MarkovKernelModel, seed: int = 0) -> float:
    """Largest gap between <f - P f, f> and the extracted graph energy.

    Checked on 100 random step functions over the site partition.
    """
    space = kernel.space
    partition = CellPartition.singletons(space)
    graph = extract_graph(kernel, partition, space)
    alpha = np.random.default_rng(seed).standard_normal((100, partition.n_cells))
    f = partition.spread(alpha)
    gaps = np.abs(space.inner(f - kernel.apply(f), f) - graph_energy(graph, alpha))
    # np.max, unlike max(), propagates a NaN gap.
    return float(np.max(gaps))


def final_stage_graph(
    model: SpectralModel, basis: OrthonormalBasis, index: StageIndex
) -> WeightedGraph:
    """The weighted graph whose energy form is the fully-indexed stage.

    Requires all of n, m, l, k.  The graph lives on the stage's
    restricted level-set partition, with P_{2^-n} in the role of the
    abstract Markov operator and the 2^n generator prefactor folded into
    conductances and killing.  Conditioning drops out of the pairwise
    integrals (averaging is self-adjoint and fixes indicators), so
    c_ij = 2^n <P_{2^-n} 1_{A_i}, 1_{A_j}> directly; the resulting
    energy satisfies graph_energy(step values of the stage projection
    of f) = stage form of f.
    """
    if index.k is None:  # StageIndex makes k require l and l require m
        raise ValueError("final stage graph needs all of n, m, l, k")
    index.validate_for(model, basis)
    return extract_graph(
        lambda F: model.apply_semigroup(index.time, F),
        stage_partition(basis, index),
        model.space,
        scale=index.bound,
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def _edge_columns(graph: WeightedGraph):
    """The exported edges as ``i``, ``j`` and ``c`` columns.

    These are the upper-triangle pairs i <= j, in row-major order, whose
    conductance exceeds EDGE_EPS; smaller ones are numerical zeros.
    """
    i, j = np.triu_indices(graph.n_vertices)
    c = graph.conductances[i, j]
    keep = c > EDGE_EPS
    return i[keep], j[keep], c[keep]


def _rows(template: str, separator: str, *columns) -> str:
    """``template % row`` for each row of the columns, joined by ``separator``.

    The columns go through ``tolist``, so ``%r`` spells a float as Python's
    repr, which is how ``json.dumps`` spells every finite float, and
    ``%.17g`` gives the 17 significant digits that round-trip a double.
    """
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    return separator.join(map(template.__mod__, rows))


# One list entry each, laid out as ``json.dumps(..., indent=1)`` does.
_JSON_VERTEX = '  {\n   "id": %d,\n   "mu": %r,\n   "kappa": %r\n  }'
_JSON_EDGE = '  {\n   "i": %d,\n   "j": %d,\n   "c": %r\n  }'


def _json_list(name: str, template: str, *columns) -> str:
    if not len(columns[0]):
        return f' "{name}": []'
    entries = _rows(template, ",\n", *columns)
    return f' "{name}": [\n{entries}\n ]'


def write_graph_json(graph: WeightedGraph, path) -> None:
    """Structured export: vertex table plus sparse upper-triangle edges.

    Byte contract: the file is exactly ``json.dumps(d, indent=1) + "\\n"``
    for ``d = {"scale": float(scale), "vertices": [{"id", "mu", "kappa"}
    per vertex in id order], "edges": [{"i", "j", "c"} per exported edge]}``,
    the edges being those of the edge list, in the same order.  Floats are
    spelled by repr, so every written value round-trips bit for bit; a
    graph holds only finite floats, so no NaN or Infinity is ever spelled.
    The text is assembled from per-row ``%`` templates because
    ``json.dumps`` with ``indent`` runs a pure-Python encoder per value.
    """
    ids = np.arange(graph.n_vertices)
    vertices = _json_list("vertices", _JSON_VERTEX, ids, graph.vertex_weights, graph.killing)
    edges = _json_list("edges", _JSON_EDGE, *_edge_columns(graph))
    scale = json.dumps(float(graph.scale))
    Path(path).write_text(f'{{\n "scale": {scale},\n{vertices},\n{edges}\n}}\n')


def _as_scale(value) -> float:
    """The parsed scale as a finite float, or a ValueError naming ``scale``."""
    try:
        scale = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"scale: {value!r} is not a number") from None
    except OverflowError:  # an int beyond the float range
        raise ValueError("scale: must be finite") from None
    if not np.isfinite(scale):
        raise ValueError("scale: must be finite")
    return scale


def _check_column(values, field: str, kind: type, word: str) -> None:
    """Refuse a column value that is not a ``kind``, or is a bool, which numpy reads as 0 or 1.

    Each distinct type is checked once, so the scan stays a C-level pass.
    """
    for found in set(map(type, values)):
        if found is bool or not issubclass(found, kind):
            raise ValueError(f"{field}: values must be {word}, found {found.__name__}")


def _finite_numbers(values, field: str) -> np.ndarray:
    """A column of real numbers as floats; ints are numbers, strings and null are not."""
    _check_column(values, field, numbers.Real, "numbers")
    return _finite_array(values, f"{field}: values")


def _integers(values, field: str) -> np.ndarray:
    """A column of integers as intp; floats are refused, integral or not."""
    _check_column(values, field, numbers.Integral, "integers")
    try:
        return np.asarray(values, dtype=np.intp)
    except OverflowError:
        raise ValueError(f"{field}: value out of range") from None


def _graph_from_tables(ids, mu, kappa, i, j, c, scale) -> WeightedGraph:
    """Validate parsed vertex and edge columns, then assemble the graph.

    ``ids``, ``mu``, ``kappa`` are per-vertex columns in file order; ``i``,
    ``j`` and ``c`` are per-edge columns; ``scale`` is the value as parsed.
    Every rejection is a ValueError naming the offending field.
    """
    scale = _as_scale(scale)
    ids = _integers(ids, "vertex id")
    v = ids.size
    if not np.array_equal(np.sort(ids), np.arange(v)):
        raise ValueError("vertex id: ids must be 0..V-1 with no gap or duplicate")
    mu = _finite_numbers(mu, "vertex mu")
    kappa = _finite_numbers(kappa, "vertex kappa")
    ends = []
    for name, raw in (("i", i), ("j", j)):
        end = _integers(raw, f"edge {name}")
        if np.any((end < 0) | (end >= v)):
            raise ValueError(f"edge {name}: endpoints must lie in 0..{v - 1}")
        ends.append(end)
    # Each unordered pair at most once: a repeat would silently overwrite
    # an earlier conductance, or contradict it when listed reversed.
    pairs = np.sort(np.minimum(*ends) * v + np.maximum(*ends))
    repeated = pairs[1:][pairs[1:] == pairs[:-1]]
    if repeated.size:
        a, b = divmod(int(repeated[0]), v)
        raise ValueError(f"edge i/j: pair ({a}, {b}) listed twice")
    c = _finite_numbers(c, "edge c")
    mu_by_id = np.empty(v)
    kappa_by_id = np.empty(v)
    mu_by_id[ids] = mu
    kappa_by_id[ids] = kappa
    matrix = np.zeros((v, v))
    matrix[ends[0], ends[1]] = c
    matrix[ends[1], ends[0]] = c
    return WeightedGraph(
        vertex_weights=mu_by_id, conductances=matrix, killing=kappa_by_id, scale=scale
    )


def _json_columns(data: dict, key: str, table: str, fields) -> list[list]:
    """The ``fields`` columns of the JSON list ``data[key]``.

    A missing list, or an entry without one of the fields, is a
    ValueError naming it.
    """
    entries = data.get(key)
    if not isinstance(entries, list):
        raise ValueError(f"{key}: expected a list")
    columns = []
    for field in fields:
        try:
            columns.append([entry[field] for entry in entries])
        except (KeyError, TypeError):
            bad = next(
                n
                for n, entry in enumerate(entries)
                if not isinstance(entry, dict) or field not in entry
            )
            raise ValueError(f"{table} {field}: missing in entry {bad}") from None
    return columns


def graph_from_json_dict(data: dict) -> WeightedGraph:
    if not isinstance(data, dict):
        raise ValueError(f"top level: expected a JSON object, found {type(data).__name__}")
    ids, mu, kappa = _json_columns(data, "vertices", "vertex", ("id", "mu", "kappa"))
    i, j, c = _json_columns(data, "edges", "edge", ("i", "j", "c"))
    scale = data.get("scale", 1.0)
    # float() would read true as 1.0 and "2.5" as 2.5; JSON spells a number.
    if isinstance(scale, (bool, str)):
        raise ValueError(f"scale: {scale!r} is not a number")
    return _graph_from_tables(ids, mu, kappa, i, j, c, scale)


def read_graph_json(path) -> WeightedGraph:
    return graph_from_json_dict(json.loads(Path(path).read_text()))


def write_edge_list(graph: WeightedGraph, edges_path, vertices_path) -> None:
    """Plain-text export: `i j c_ij` rows and a `i mu_i kappa_i` table.

    The scale rides along as a comment header on both files so the pair
    reconstructs the graph exactly.  Byte contract: both files start with
    ``"# scale %.17g\\n" % scale``; the edge file then has one
    ``"%d %d %.17g\\n" % (i, j, c)`` row per exported edge, the same edges in
    the same order as the JSON export, and the vertex file one
    ``"%d %.17g %.17g\\n" % (i, mu, kappa)`` row per vertex in id order.  17
    significant digits round-trip every finite double.
    """
    header = "# scale %.17g\n" % graph.scale
    edge_rows = _rows("%d %d %.17g\n", "", *_edge_columns(graph))
    Path(edges_path).write_text(header + edge_rows)
    ids = np.arange(graph.n_vertices)
    vertex_rows = _rows("%d %.17g %.17g\n", "", ids, graph.vertex_weights, graph.killing)
    Path(vertices_path).write_text(header + vertex_rows)


def _read_table(path, kind: str, types) -> tuple[str | float, list[list]]:
    """Parse a three-column whitespace table and its ``# scale`` header.

    Returns the scale as written (1.0 without a header) and the columns
    converted by ``types``.  Blank lines and other comments are skipped.
    A row with another number of fields, or a token its column cannot
    convert, is a ValueError naming ``kind``; a second header, or one
    without exactly one value, is a ValueError naming ``scale``.
    """
    scale = None
    tokens = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        if fields[0].startswith("#"):
            parts = line.strip()[1:].split()
            if parts[:1] == ["scale"]:
                if len(parts) != 2:
                    raise ValueError(
                        f"scale: the {kind} file has a malformed header {line!r}"
                    )
                if scale is not None:
                    raise ValueError(f"scale: the {kind} file repeats its # scale header")
                scale = parts[1]
            continue
        if len(fields) != 3:
            raise ValueError(f"{kind} row {number}: expected 3 fields, found {len(fields)}")
        tokens += fields
    try:
        columns = [list(map(convert, tokens[k::3])) for k, convert in enumerate(types)]
    except ValueError as exc:
        raise ValueError(f"{kind} row: {exc}") from None
    return 1.0 if scale is None else scale, columns


def read_edge_list(edges_path, vertices_path) -> WeightedGraph:
    scale, (ids, mu, kappa) = _read_table(vertices_path, "vertex", (int, float, float))
    edge_scale, (i, j, c) = _read_table(edges_path, "edge", (int, int, float))
    if _as_scale(edge_scale) != _as_scale(scale):
        raise ValueError(
            f"scale: the edge file has {edge_scale}, the vertex file {scale}"
        )
    return _graph_from_tables(ids, mu, kappa, i, j, c, scale)
