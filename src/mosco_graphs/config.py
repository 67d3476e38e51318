"""Experiment configuration: schema, defaults, validation.

Configs are plain JSON with a versioned ``schema`` field.  The loader only
maps JSON onto the constructors; each type and value rule lives on the
type that owns it, so a config built in code obeys the same rules as one
read from a file.  Every complaint names the offending field by its path
(``lambdas[2]``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .convergence import SweepGrid, _check_lambdas
from .errors import ConfigError
from .pipeline import StageIndex, is_integer

SCHEMA_VERSION = 1

# The ambient grid must over-resolve the spectral span, else quadrature
# error on the top modes pollutes every stage comparison.
RESOLUTION_FACTOR = 4

BASIS_CHOICES = ("eigen", "haar")

# What a value must be, by the words a complaint uses for it.
KINDS = {
    "an integer": is_integer,
    "a number": lambda value: is_integer(value) or isinstance(value, float),
    "a string": lambda value: isinstance(value, str),
    "true or false": lambda value: isinstance(value, bool),
    "a list": lambda value: isinstance(value, (list, tuple)),
    "a TestVectorSpec": lambda value: isinstance(value, TestVectorSpec),
}


def _check_type(value, kind: str, path: str) -> None:
    if not KINDS[kind](value):
        raise ConfigError(f"{path}: expected {kind}, got {value!r}")


@dataclass(frozen=True)
class TestVectorSpec:
    """How many probes of each kind the battery carries."""

    n_basis: int = 8
    n_span: int = 4
    n_step: int = 2
    include_constant: bool = True

    def __post_init__(self):
        for key, count in (("basis", self.n_basis), ("span", self.n_span), ("step", self.n_step)):
            _check_type(count, "an integer", f"test_vectors.{key}")
            if count < 0:
                raise ConfigError(f"test_vectors.{key}: {count} is below the minimum 0")
        _check_type(self.include_constant, "true or false", "test_vectors.constant")


FIELD_KINDS = {
    "model": "a string", "resolution": "an integer", "modes": "an integer", "basis": "a string",
    "lambdas": "a list", "test_vectors": "a TestVectorSpec", "graph_exports": "a list",
    "out_dir": "a string", "seed": "an integer",
}


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
        for name, kind in FIELD_KINDS.items():
            _check_type(getattr(self, name), kind, name)
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
        if not self.out_dir:
            raise ConfigError('out_dir: must not be empty; use "." for the working directory')
        try:
            grid = self.sweep_grid()
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from None
        # Normalised as SweepGrid stores them, so a config built in code equals the file's.
        for name in ("n", "m", "l", "k"):
            object.__setattr__(self, f"grid_{name}", getattr(grid, name))
        object.__setattr__(self, "lambdas", tuple(self.lambdas))
        object.__setattr__(self, "graph_exports", tuple(self.graph_exports))
        for i, lam in enumerate(self.lambdas):
            _check_type(lam, "a number", f"lambdas[{i}]")
        try:
            _check_lambdas(self.lambdas)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
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
# The loader: JSON shapes only, mapped onto the constructors above.


def _stage_index(item, path: str) -> StageIndex:
    if not isinstance(item, list) or len(item) != 4:
        raise ConfigError(f"{path}: expected a quadruple [n, m, l, k]")
    try:
        return StageIndex(*item)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _vector_spec(value, path: str) -> TestVectorSpec:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    fields = dict(basis="n_basis", span="n_span", step="n_step", constant="include_constant")
    for key in value:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field (known: {sorted(fields)})")
    return TestVectorSpec(**{fields[key]: item for key, item in value.items()})


KNOWN_FIELDS = {"schema", "grid", *FIELD_KINDS}


def config_from_dict(data) -> ExperimentConfig:
    """Map a JSON object onto an ExperimentConfig, which checks every field."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    for key in data:
        if key not in KNOWN_FIELDS:
            raise ConfigError(f"{key}: unknown field (known: {sorted(KNOWN_FIELDS)})")
    if "schema" not in data:
        raise ConfigError("schema: missing required field")
    _check_type(data["schema"], "an integer", "schema")
    if data["schema"] != SCHEMA_VERSION:
        raise ConfigError(
            f"schema: version {data['schema']} unsupported (this build reads {SCHEMA_VERSION})"
        )

    kwargs = {key: value for key, value in data.items() if key not in ("schema", "grid")}
    if "grid" in data:
        grid = data["grid"]
        if not isinstance(grid, dict):
            raise ConfigError("grid: expected an object with axes n, m, l, k")
        for key in grid:
            if key not in ("n", "m", "l", "k"):
                raise ConfigError(f"grid.{key}: unknown axis (known: n, m, l, k)")
        kwargs.update((f"grid_{key}", grid.get(key)) for key in ("n", "m", "l", "k"))
    if "test_vectors" in data:
        kwargs["test_vectors"] = _vector_spec(data["test_vectors"], "test_vectors")
    if isinstance(data.get("graph_exports"), list):
        kwargs["graph_exports"] = [
            _stage_index(item, f"graph_exports[{i}]") for i, item in enumerate(data["graph_exports"])
        ]
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

