"""Experiment configuration: schema, defaults, validation.

Configs are plain JSON with a versioned ``schema`` field.  Validation is
deliberately hand-rolled: every complaint names the offending field by
its path (``grid.m[2]``) and says what was expected, because a sweep
that dies half an hour in with a bare KeyError helps nobody.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .convergence import SweepGrid
from .errors import ConfigError
from .pipeline import K_MAX, N_MAX, StageIndex

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
        if self.resolution < RESOLUTION_FACTOR * self.modes:
            raise ConfigError(
                f"resolution: {self.resolution} is below {RESOLUTION_FACTOR} x modes "
                f"= {RESOLUTION_FACTOR * self.modes}; the ambient grid must "
                "over-resolve the spectral span"
            )
        if self.seed < 0:
            raise ConfigError(f"seed: {self.seed} is below the minimum 0")

    def sweep_grid(self) -> SweepGrid:
        return SweepGrid(n=self.grid_n, m=self.grid_m, l=self.grid_l, k=self.grid_k)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


# ---------------------------------------------------------------------------
# Validation helpers.  Each takes the parent mapping, a key, and the
# dotted path used in complaints.


def _get(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}: missing required field")
    return data[key]


def _as_int(value, path: str, low: int | None = None, high: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{path}: {value} is below the minimum {low}")
    if high is not None and value > high:
        raise ConfigError(f"{path}: {value} is above the maximum {high}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _int_axis(value, path: str, low: int, high: int | None = None) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of integers")
    out = []
    for i, item in enumerate(value):
        out.append(_as_int(item, f"{path}[{i}]", low=low, high=high))
    for i in range(1, len(out)):
        if out[i] <= out[i - 1]:
            raise ConfigError(f"{path}: values must be strictly increasing")
    return tuple(out)


def _lambda_axis(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of positive numbers")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{path}[{i}]: expected a number, got {item!r}")
        # json reads NaN and Infinity; NaN fails every comparison.
        if not abs(item) <= sys.float_info.max:
            raise ConfigError(f"{path}[{i}]: resolvent parameter must be a finite float")
        if item <= 0:
            raise ConfigError(f"{path}[{i}]: resolvent parameter must be positive")
        if float(item) in out:
            raise ConfigError(f"{path}[{i}]: {item!r} repeats an earlier resolvent parameter")
        out.append(float(item))
    return tuple(out)


def _export_axis(value, path: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of [n, m, l, k] quadruples")
    out = []
    for i, item in enumerate(value):
        here = f"{path}[{i}]"
        if not isinstance(item, list) or len(item) != 4:
            raise ConfigError(f"{here}: expected a quadruple [n, m, l, k]")
        n = _as_int(item[0], f"{here}[0]", low=0, high=N_MAX)
        m = _as_int(item[1], f"{here}[1]", low=1)
        l = _as_int(item[2], f"{here}[2]", low=1)
        k = _as_int(item[3], f"{here}[3]", low=0, high=K_MAX)
        try:
            out.append(StageIndex(n, m, l, k))
        except ValueError as exc:
            raise ConfigError(f"{here}: {exc}") from exc
    return tuple(out)


def _vector_spec(value, path: str) -> TestVectorSpec:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    known = {"basis", "span", "step", "constant"}
    for key in value:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field (known: {sorted(known)})")
    default = TestVectorSpec()
    return TestVectorSpec(
        n_basis=_as_int(value.get("basis", default.n_basis), f"{path}.basis", low=0),
        n_span=_as_int(value.get("span", default.n_span), f"{path}.span", low=0),
        n_step=_as_int(value.get("step", default.n_step), f"{path}.step", low=0),
        include_constant=_as_bool(
            value.get("constant", default.include_constant), f"{path}.constant"
        ),
    )


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
    """Validate a parsed JSON object into an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    for key in data:
        if key not in KNOWN_FIELDS:
            raise ConfigError(f"{key}: unknown field (known: {sorted(KNOWN_FIELDS)})")
    schema = _as_int(_get(data, "schema", "schema"), "schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema: version {schema} unsupported (this build reads {SCHEMA_VERSION})")

    base = default_config()
    grid = data.get("grid", None)
    grid_n, grid_m = base.grid_n, base.grid_m
    grid_l, grid_k = base.grid_l, base.grid_k
    if grid is not None:
        if not isinstance(grid, dict):
            raise ConfigError("grid: expected an object with axes n, m, l, k")
        for key in grid:
            if key not in ("n", "m", "l", "k"):
                raise ConfigError(f"grid.{key}: unknown axis (known: n, m, l, k)")
        grid_n = _int_axis(_get(grid, "n", "grid.n"), "grid.n", low=0, high=N_MAX)
        grid_m = _int_axis(_get(grid, "m", "grid.m"), "grid.m", low=1)
        grid_l = _int_axis(grid["l"], "grid.l", low=1) if "l" in grid else None
        grid_k = _int_axis(grid["k"], "grid.k", low=0, high=K_MAX) if "k" in grid else None
        if grid_k is not None and grid_l is None:
            raise ConfigError("grid.k: partition levels need grid.l alongside them")

    kwargs = dict(
        model=_as_str(data.get("model", base.model), "model"),
        resolution=_as_int(data.get("resolution", base.resolution), "resolution", low=4),
        modes=_as_int(data.get("modes", base.modes), "modes", low=1),
        basis=_as_str(data.get("basis", base.basis), "basis"),
        grid_n=grid_n,
        grid_m=grid_m,
        grid_l=grid_l,
        grid_k=grid_k,
        lambdas=_lambda_axis(data["lambdas"], "lambdas") if "lambdas" in data else base.lambdas,
        out_dir=_as_str(data.get("out_dir", base.out_dir), "out_dir"),
        seed=_as_int(data.get("seed", base.seed), "seed"),
    )
    if "test_vectors" in data:
        kwargs["test_vectors"] = _vector_spec(data["test_vectors"], "test_vectors")
    if "graph_exports" in data:
        kwargs["graph_exports"] = _export_axis(data["graph_exports"], "graph_exports")
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

