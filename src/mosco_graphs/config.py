"""Experiment configuration: schema, defaults, validation.

Configs are plain JSON with a versioned ``schema`` field.  The loader only
checks JSON shapes and types; each value rule lives on the type that owns
it, so a config built in code obeys the same rules as one read from a file.
Every complaint names the offending field by its path (``lambdas[2]``).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .convergence import SweepGrid
from .errors import ConfigError
from .pipeline import StageIndex

SCHEMA_VERSION = 1

# The ambient grid must over-resolve the spectral span, else quadrature
# error on the top modes pollutes every stage comparison.
RESOLUTION_FACTOR = 4

BASIS_CHOICES = ("eigen", "haar")


@dataclass(frozen=True)
class TestVectorSpec:
    """How many probes of each kind the battery carries."""

    n_basis: int = 8
    n_span: int = 4
    n_step: int = 2
    include_constant: bool = True

    def __post_init__(self):
        for key, count in (("basis", self.n_basis), ("span", self.n_span), ("step", self.n_step)):
            if count < 0:
                raise ConfigError(f"test_vectors.{key}: {count} is below the minimum 0")


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "neumann"
    resolution: int = 1024
    modes: int = 64
    basis: str = "eigen"
    grid_n: tuple = (2, 4, 6, 8, 10, 12)
    grid_m: tuple = (1, 2, 4, 8, 16)
    grid_l: tuple | None = (1, 2, 3, 4)
    grid_k: tuple | None = (1, 2, 4, 6, 8)
    lambdas: tuple = (1.0, 2.0)
    test_vectors: TestVectorSpec = field(default_factory=TestVectorSpec)
    graph_exports: tuple = (StageIndex(4, 8, 4, 4), StageIndex(10, 16, 4, 8))
    out_dir: str = "results"
    seed: int = 7

    def __post_init__(self):
        if self.basis not in BASIS_CHOICES:
            raise ConfigError(f"basis: got {self.basis!r}, expected one of {BASIS_CHOICES}")
        if self.modes < 1:
            raise ConfigError(f"modes: {self.modes} is below the minimum 1")
        if self.resolution < RESOLUTION_FACTOR * self.modes:
            raise ConfigError(
                f"resolution: {self.resolution} is below {RESOLUTION_FACTOR} x modes "
                f"= {RESOLUTION_FACTOR * self.modes}; the ambient grid must "
                "over-resolve the spectral span"
            )
        if self.seed < 0:
            raise ConfigError(f"seed: {self.seed} is below the minimum 0")
        try:
            self.sweep_grid()
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from None
        if not self.lambdas:
            raise ConfigError("lambdas: expected at least one resolvent parameter")
        for i, lam in enumerate(self.lambdas):
            # json reads NaN and Infinity; NaN fails every comparison.
            if not abs(lam) <= sys.float_info.max:
                raise ConfigError(f"lambdas[{i}]: resolvent parameter must be a finite float")
            if lam <= 0:
                raise ConfigError(f"lambdas[{i}]: resolvent parameter must be positive")
            if lam in self.lambdas[:i]:
                raise ConfigError(f"lambdas[{i}]: {lam!r} repeats an earlier resolvent parameter")
        for i, ix in enumerate(self.graph_exports):
            if not isinstance(ix, StageIndex) or ix.k is None:
                raise ConfigError(f"graph_exports[{i}]: {ix} is not a full (n, m, l, k) index")
            if ix in self.graph_exports[:i]:
                raise ConfigError(f"graph_exports[{i}]: {ix.label()} repeats an earlier export")

    def sweep_grid(self) -> SweepGrid:
        return SweepGrid(n=self.grid_n, m=self.grid_m, l=self.grid_l, k=self.grid_k)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


# ---------------------------------------------------------------------------
# Parsing helpers: JSON shapes and types only.  Each takes the dotted path
# used in complaints.


def _get(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}: missing required field")
    return data[key]


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _list(value, path: str, what: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of {what}")
    return tuple(value)


def _lambda_axis(value, path: str) -> tuple:
    out = _list(value, path, "positive numbers")
    for i, item in enumerate(out):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{path}[{i}]: expected a number, got {item!r}")
    return out


def _export_axis(value, path: str) -> tuple:
    out = []
    for i, item in enumerate(_list(value, path, "[n, m, l, k] quadruples")):
        here = f"{path}[{i}]"
        if not isinstance(item, list) or len(item) != 4:
            raise ConfigError(f"{here}: expected a quadruple [n, m, l, k]")
        try:
            out.append(StageIndex(*item))
        except ValueError as exc:
            raise ConfigError(f"{here}: {exc}") from exc
    return tuple(out)


def _vector_spec(value, path: str) -> TestVectorSpec:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    fields = dict(basis="n_basis", span="n_span", step="n_step", constant="include_constant")
    for key in value:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field (known: {sorted(fields)})")
    return TestVectorSpec(**{
        fields[key]: (_as_bool if key == "constant" else _as_int)(item, f"{path}.{key}")
        for key, item in value.items()
    })


KNOWN_FIELDS = {
    "schema",
    "model",
    "resolution",
    "modes",
    "basis",
    "grid",
    "lambdas",
    "test_vectors",
    "graph_exports",
    "out_dir",
    "seed",
}


def config_from_dict(data) -> ExperimentConfig:
    """Parse a JSON object into an ExperimentConfig, which checks the values."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    for key in data:
        if key not in KNOWN_FIELDS:
            raise ConfigError(f"{key}: unknown field (known: {sorted(KNOWN_FIELDS)})")
    schema = _as_int(_get(data, "schema", "schema"), "schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema: version {schema} unsupported (this build reads {SCHEMA_VERSION})")

    kwargs = {}
    if "grid" in data:
        grid = data["grid"]
        if not isinstance(grid, dict):
            raise ConfigError("grid: expected an object with axes n, m, l, k")
        for key in grid:
            if key not in ("n", "m", "l", "k"):
                raise ConfigError(f"grid.{key}: unknown axis (known: n, m, l, k)")
        _get(grid, "n", "grid.n")
        for key in ("n", "m", "l", "k"):
            axis = _list(grid[key], f"grid.{key}", "integers") if key in grid else None
            kwargs[f"grid_{key}"] = axis
    parsers = {
        "model": _as_str, "resolution": _as_int, "modes": _as_int, "basis": _as_str,
        "lambdas": _lambda_axis, "test_vectors": _vector_spec, "graph_exports": _export_axis,
        "out_dir": _as_str, "seed": _as_int,
    }
    kwargs.update((key, parse(data[key], key)) for key, parse in parsers.items() if key in data)
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} line {exc.lineno}: {exc.msg}") from exc
    return config_from_dict(data)

