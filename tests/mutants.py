"""Source mutants the test suite must kill.

Run by hand from the repository root (pytest does not collect this file):

    python3 tests/mutants.py              # every entry, one after another
    python3 tests/mutants.py NAME [...]   # the named entries only
    python3 tests/mutants.py --list       # the table, without running it

Each entry names a file, a snippet that must occur in it exactly once,
its replacement, and why the mutant must die.  A snippet that is missing
or repeated stops the run, so a refactor that moves the code fails
loudly instead of skipping the entry.  Each mutant is applied to a fresh
temporary copy of ``src/``, ``tests/``, ``perfbench/`` (a test reads its
wrap points), ``pyproject.toml`` and the README (a test reads its config
block), where the suite runs with ``-x``; one pytest process runs at a
time.  The unmutated copy runs first and must pass.

Equivalent mutants, which no test can kill, are listed apart with the
reason and are not run.  This table is a check: an entry is never
deleted or weakened to get a pass.  A survivor becomes a new test, or
a recorded finding.

Exit code: 0 when every mutant is killed, 1 when one survives, 2 when
the table does not match the sources, the unmutated suite fails or a
mutant breaks the run before any test judges it.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    why: str


MUTANTS = [
    # -- audits ------------------------------------------------------------
    Mutant(
        "result-first-residual", "src/mosco_graphs/audits.py",
        "residual = float(np.max(residuals, initial=0.0)) + 0.0",
        "residual = float(np.ravel(residuals)[0]) + 0.0",
        "an audit must judge every probe of its batch, not the first",
    ),
    Mutant(
        "result-mean-residual", "src/mosco_graphs/audits.py",
        "residual = float(np.max(residuals, initial=0.0)) + 0.0",
        "residual = float(np.mean(residuals)) + 0.0",
        "one bad probe must fail an audit, however many good ones it has",
    ),
    # -- models and stages ---------------------------------------------------
    Mutant(
        "decay-time", "src/mosco_graphs/models.py",
        "out = -np.expm1(np.multiply.outer(t, -self.eigenvalues))",
        "out = -np.expm1(np.multiply.outer(2 * t, -self.eigenvalues))",
        "the semigroup at time t is not the one at 2t",
    ),
    Mutant(
        "off-span-form", "src/mosco_graphs/pipeline.py",
        "off_span = model.space.inner(residual, residual)",
        "off_span = 0.0 * model.space.inner(residual, residual)",
        "mass off the spectral span pays the full rate 2^n in the form",
    ),
    Mutant(
        "gram-scale", "src/mosco_graphs/pipeline.py",
        "self._gram = space.coefficients(off_span, off_span)",
        "self._gram = 2.0 * space.coefficients(off_span, off_span)",
        "the off-span Gram matrix enters the stage matrix once",
    ),
    Mutant(
        "matrix-scale", "src/mosco_graphs/pipeline.py",
        "matrix = -index.bound * (cross + cross.T) / 2.0",
        "matrix = -index.bound * (cross + cross.T) / 4.0",
        "the stage matrix carries the full 2^n prefactor",
    ),
    Mutant(
        "nsd-check-off", "src/mosco_graphs/pipeline.py",
        "if mu[-1] > GUARD_EPS * norm:",
        "if mu[-1] > float('inf'):",
        "a stage generator with a positive eigenvalue must be refused",
    ),
    Mutant(
        "nsd-rule-unscaled", "src/mosco_graphs/pipeline.py",
        "if mu[-1] > GUARD_EPS * norm:",
        "if mu[-1] > GUARD_EPS:",
        "rounding grows with ||A||, so the positive eigenvalue allowed must too",
    ),
    Mutant(
        "symmetry-guard-off", "src/mosco_graphs/pipeline.py",
        "if asym > GUARD_EPS * norm:",
        "if False:",
        "an asymmetric stage generator must be refused",
    ),
    Mutant(
        "guard-eps-loosened", "src/mosco_graphs/pipeline.py",
        "GUARD_EPS = 64 * np.finfo(float).eps",
        "GUARD_EPS = 64e6 * np.finfo(float).eps",
        "a positive eigenvalue of 1e-8 ||A|| is a defect, not rounding",
    ),
    Mutant(
        "stage-finiteness-dropped", "src/mosco_graphs/measure.py",
        "    if not np.isfinite(out).all():\n"
        "        raise ValueError(f\"{name} must be finite\")\n",
        "",
        "a non-finite stage matrix or subspace, and every other float array under "
        "the one finiteness rule, is refused by name: a NaN norm would pass every "
        "scaled guard",
    ),
    Mutant(
        "partition-restriction", "src/mosco_graphs/pipeline.py",
        "return partition.restrict(space, space.exhaustion_set(index.l))",
        "return partition",
        "the final-stage partition lives on the exhaustion set X_l",
    ),
    Mutant(
        "overflow-window", "src/mosco_graphs/pipeline.py",
        "labels = np.where(values > window, 4**k, labels)",
        "labels = np.where(values > 2 * window, 4**k, labels)",
        "every value above 2^k shares one overflow cell",
    ),
    Mutant(
        "floor-for-ceil-window", "src/mosco_graphs/pipeline.py",
        "labels = np.ceil(values * window).astype(np.int64) - 1",
        "labels = np.floor(values * window).astype(np.int64)",
        "windows are closed at the top, (j 2^-k, (j + 1) 2^-k]; on the built-in "
        "models no basis value sits on an edge, so only a hand-made basis sees it",
    ),
    Mutant(
        "validate-for-l-rule", "src/mosco_graphs/pipeline.py",
        "model.space.exhaustion_set(self.l)",
        "model.space.exhaustion_set(min(self.l, model.space.l_max))",
        "an l beyond the exhaustion depth must be refused at startup",
    ),
    Mutant(
        "leading-range-unchecked", "src/mosco_graphs/measure.py",
        "if not 1 <= m <= self.n_vectors:",
        "if False:",
        "an m outside the basis must fail as DimensionMismatch on every path, "
        "not slice fewer vectors",
    ),
    Mutant(
        "coefficients-site-axis-unchecked", "src/mosco_graphs/measure.py",
        "        self.check_site_axis(f, rows)\n",
        "",
        "a function or a row of the wrong length fails as DimensionMismatch, not inside numpy",
    ),
    Mutant(
        "frozen-array-writable", "src/mosco_graphs/measure.py",
        "    out.setflags(write=False)\n",
        "",
        "every frozen type stores a read-only copy",
    ),
    # -- resolvents ----------------------------------------------------------
    Mutant(
        "residual-check-dropped", "src/mosco_graphs/convergence.py",
        "    _check_residual(stage, lam, u, c)\n",
        "",
        "an inaccurate subspace solve must be refused, not written",
    ),
    Mutant(
        "residual-rule-unscaled", "src/mosco_graphs/convergence.py",
        "bound = GUARD_EPS * (lam + stage.norm) *",
        "bound = GUARD_EPS * lam *",
        "a solve's rounding grows with ||A||, so the residual allowed must too",
    ),
    Mutant(
        "residual-norm-underflows", "src/mosco_graphs/convergence.py",
        "np.hypot.reduce(u, axis=-1)",
        "np.linalg.norm(u, axis=-1)",
        "at the deepest levels the squares of u underflow, and every solve was refused",
    ),
    Mutant(
        "rhs-scale", "src/mosco_graphs/convergence.py",
        "rhs = c.reshape(-1, stage.dim).T",
        "rhs = 2.0 * c.reshape(-1, stage.dim).T",
        "the solve takes the coefficients of f as they are",
    ),
    Mutant(
        "stage-resolvent-lambda-unchecked", "src/mosco_graphs/convergence.py",
        "    _check_lambda(lam)\n    c, complement = stage.space.split(stage.subspace, f)\n",
        "    c, complement = stage.space.split(stage.subspace, f)\n",
        "a single stage resolvent refuses a lambda that is not finite and positive by name",
    ),
    Mutant(
        "exact-resolvent-lambda-unchecked", "src/mosco_graphs/models.py",
        "        _check_lambda(lam)\n        c, complement = self.space.split(",
        "        c, complement = self.space.split(",
        "the model resolvent refuses a lambda that is not finite and positive by name",
    ),
    Mutant(
        "sweep-projection-order", "src/mosco_graphs/convergence.py",
        "return [record for ix in schedule.indices() for record in records[ix]]",
        "return [record for rows in records.values() for record in rows]",
        "the sweep walks the projections outside, but its records come back in grid order",
    ),
    Mutant(
        "complement-scale", "src/mosco_graphs/convergence.py",
        "return u @ stage.subspace + complement / lam",
        "return u @ stage.subspace + complement",
        "the stage resolvent, in the sweep and alone, acts as 1/lambda off its subspace",
    ),
    Mutant(
        "test-vector-finiteness-bypassed", "src/mosco_graphs/convergence.py",
        'values = _finite_array(self.values, f"test vector {self.name!r}")',
        "values = np.array(self.values, dtype=float); values.setflags(write=False)",
        "a probe that is not finite is refused as that probe, not blamed on the first stage",
    ),
    # -- graphs --------------------------------------------------------------
    Mutant(
        "edge-eps-filter", "src/mosco_graphs/graphs.py",
        "keep = c > EDGE_EPS",
        "keep = c > 0",
        "conductances at or below EDGE_EPS are not exported",
    ),
    Mutant(
        "empty-graph-accepted", "src/mosco_graphs/graphs.py",
        "if mu.size == 0:",
        "if False:",
        "a graph with no vertices is refused by name, in the constructor and both readers",
    ),
    Mutant(
        "json-edge-16-digits", "src/mosco_graphs/graphs.py",
        '"c": %r',
        '"c": %.16g',
        "the JSON export spells each conductance by repr, so it round-trips bit for bit",
    ),
    Mutant(
        "killing-slack", "src/mosco_graphs/graphs.py",
        "slack = KILLING_TOL * max(1.0, float(np.max(c.sum(axis=0))))",
        "slack = KILLING_TOL",
        "the killing slack grows with the conductance column sums",
    ),
    Mutant(
        "reader-negative-endpoint", "src/mosco_graphs/graphs.py",
        "if np.any((end < 0) | (end >= v)):",
        "if np.any(end >= v):",
        "a negative edge endpoint must be refused by both readers",
    ),
    Mutant(
        "reader-endpoint-beyond-v", "src/mosco_graphs/graphs.py",
        "if np.any((end < 0) | (end >= v)):",
        "if np.any(end < 0):",
        "an edge endpoint past the last vertex must be refused by both readers",
    ),
    # -- configuration -------------------------------------------------------
    Mutant(
        "sweep-grid-corners-unchecked", "src/mosco_graphs/convergence.py",
        "            StageIndex(*(None if axis is None else axis[end] for axis in axes))",
        "            pass",
        "the grid's ranges and axis dependencies are StageIndex's, checked on its corners",
    ),
    Mutant(
        "grid-axis-not-increasing", "src/mosco_graphs/convergence.py",
        "if any(b <= a for a, b in zip(values, values[1:])):",
        "if False:",
        "a repeated grid value gives duplicate records, a decreasing one unchecked points",
    ),
    Mutant(
        "grid-axis-empty", "src/mosco_graphs/convergence.py",
        "    if not values:\n        raise ValueError(f\"{name} needs at least one value\")\n",
        "",
        "an empty axis is a sweep of no records",
    ),
    Mutant(
        "lambdas-not-distinct", "src/mosco_graphs/convergence.py",
        "if lam in lambdas[:i]:",
        "if False:",
        "a repeated lambda writes every CSV row twice",
    ),
    Mutant(
        "sweep-lambdas-unchecked", "src/mosco_graphs/convergence.py",
        "    _check_lambdas(lambdas)\n",
        "",
        "a sweep refuses no lambda and a repeated one on entry, not only through a config",
    ),
    Mutant(
        "sweep-battery-empty", "src/mosco_graphs/convergence.py",
        '    if not vectors:\n        raise ValueError("battery: expected at least one test vector")\n',
        "",
        "an empty battery is refused by name, not inside numpy",
    ),
    Mutant(
        "battery-bound-dropped", "src/mosco_graphs/convergence.py",
        "    if n_span + n_step > space.size:",
        "    if False:",
        "more span and step probes than sites are refused before any is drawn",
    ),
    Mutant(
        "exports-not-distinct", "src/mosco_graphs/config.py",
        "if ix in self.graph_exports[:i]:",
        "if False:",
        "a repeated export builds and writes the same graph twice",
    ),
    Mutant(
        "modes-unchecked", "src/mosco_graphs/config.py",
        "if self.modes < 1:",
        "if False:",
        "a config needs at least one mode",
    ),
    Mutant(
        "vector-counts-unchecked", "src/mosco_graphs/config.py",
        "            if count < 0:",
        "            if False:",
        "a negative probe count is not a battery size",
    ),
    Mutant(
        "check-type-dropped", "src/mosco_graphs/config.py",
        'raise ConfigError(f"{path}: expected {kind}, got {value!r}")',
        "pass",
        "a value of the wrong type fails as a ConfigError naming its field",
    ),
    Mutant(
        "field-types-unchecked", "src/mosco_graphs/config.py",
        "            _check_type(getattr(self, name), kind, name)",
        "            pass",
        "a config built in code checks its field types as a file does",
    ),
    Mutant(
        "lambda-type-unchecked", "src/mosco_graphs/config.py",
        '_check_type(lam, "a number", f"lambdas[{i}]")',
        "pass",
        "a boolean is not a resolvent parameter",
    ),
    Mutant(
        "vector-count-types-unchecked", "src/mosco_graphs/config.py",
        '_check_type(count, "an integer", f"test_vectors.{key}")',
        "pass",
        "a probe count is an integer",
    ),
    Mutant(
        "vector-constant-type-unchecked", "src/mosco_graphs/config.py",
        '_check_type(self.include_constant, "true or false", "test_vectors.constant")',
        "pass",
        "whether the battery carries the constant is true or false",
    ),
    Mutant(
        "out-dir-empty-allowed", "src/mosco_graphs/config.py",
        "if not self.out_dir:",
        "if False:",
        "an empty out_dir writes the artifacts into the working directory",
    ),
    Mutant(
        "config-axes-not-normalised", "src/mosco_graphs/config.py",
        'object.__setattr__(self, f"grid_{name}", getattr(grid, name))',
        "pass",
        "a config built in code equals the same config read from JSON",
    ),
    Mutant(
        "grid-axis-not-one-dimensional", "src/mosco_graphs/convergence.py",
        'raise ValueError(f"{name} must be a list of integers, got {values!r}")',
        "pass",
        "a grid axis that is not a list fails as a ValueError naming the axis",
    ),
    Mutant(
        "integer-accepts-bool", "src/mosco_graphs/pipeline.py",
        "return isinstance(value, (int, np.integer)) and not isinstance(value, bool)",
        "return isinstance(value, (int, np.integer))",
        "true and false are not indices, counts or seeds",
    ),
    Mutant(
        "model-memory-error-unwrapped", "src/mosco_graphs/cli.py",
        '        raise ConfigError(f"model: {exc}") from None\n'
        "    except MemoryError:\n        raise _too_large(config) from None\n",
        '        raise ConfigError(f"model: {exc}") from None\n',
        "a model too large for memory is a config error naming resolution, not a traceback",
    ),
    Mutant(
        "zoo-memory-error-unwrapped", "src/mosco_graphs/cli.py",
        "seed=config.seed)\n    except MemoryError:",
        "seed=config.seed)\n    except ZeroDivisionError:",
        "an audit zoo too large for memory is a config error naming resolution",
    ),
    Mutant(
        "cli-battery-check-dropped", "src/mosco_graphs/cli.py",
        "        _check_battery(battery)\n",
        "",
        "an empty battery is a config error naming test_vectors, before the output "
        "directory is made",
    ),
    Mutant(
        "index-quadruple-bypassed", "src/mosco_graphs/cli.py",
        '_stage_index(parts, "--index")',
        "StageIndex(*parts)",
        "--index obeys the loader's quadruple rule, and its misfits name --index",
    ),
    # -- artifacts -----------------------------------------------------------
    Mutant(
        "csv-16-digits", "src/mosco_graphs/cli.py",
        '"%s,%s,%s,%s,%.17g,%s,%.17g,',
        '"%s,%s,%s,%s,%.17g,%s,%.16g,',
        "convergence.csv spells every float with 17 significant digits, so it round-trips",
    ),
    Mutant(
        "csv-rows-unsorted", "src/mosco_graphs/cli.py",
        "    rows = sorted(\n",
        "    rows = list(\n",
        "convergence.csv lists its rows by stage, lambda and vector name, whatever the "
        "order of the grid, the lambdas and the battery",
    ),
    Mutant(
        "artifact-preflight-dropped", "src/mosco_graphs/cli.py",
        "if (out / name).exists() and not (out / name).is_file():",
        "if False:",
        "an artifact path that cannot be written is refused before the work",
    ),
    Mutant(
        "artifact-replace-skipped", "src/mosco_graphs/cli.py",
        "            os.replace(temp, path)",
        "            pass",
        "an artifact is moved into place once it is whole",
    ),
    Mutant(
        "artifact-temporary-kept", "src/mosco_graphs/cli.py",
        "            if temp.is_file():\n                temp.unlink()",
        "            pass",
        "a failed write leaves no temporary file behind",
    ),
]

EQUIVALENT = [
    Mutant(
        "mask-before-conditioning", "src/mosco_graphs/pipeline.py",
        "            if index.l is not None:\n"
        "                images = images * space.exhaustion_mask(index.l)",
        "            if index.l is not None and index.k is None:\n"
        "                images = images * space.exhaustion_mask(index.l)",
        "equivalent: with k the partition is restricted to X_l, so the cell "
        "averages already ignore every site the mask would zero",
    ),
]


def _count(mutant: Mutant) -> int:
    return (ROOT / mutant.file).read_text().count(mutant.snippet)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.pyc")
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _pytest(copy: Path) -> tuple[int, str, float]:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    output = done.stdout + done.stderr
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", output, flags=re.M)
    return done.returncode, first.group(1) if first else "", time.perf_counter() - start


def _run(mutant: Mutant | None) -> tuple[int, str, float]:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        if mutant is not None:
            path = copy / mutant.file
            path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
        return _pytest(copy)


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name:32} {m.file}: {m.why}")
        for m in EQUIVALENT:
            print(f"{m.name:32} {m.file}: {m.why}")
        return 0
    table = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in table]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = [f"{m.name}: snippet occurs {n} times in {m.file}"
           for m in MUTANTS + EQUIVALENT if (n := _count(m)) != 1]
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 2
    code, first, seconds = _run(None)
    if code != 0:
        print(f"the unmutated suite fails ({first or f'exit {code}'}); nothing to measure",
              file=sys.stderr)
        return 2
    print(f"unmutated suite passes in {seconds:.1f} s")
    selected = [table[name] for name in argv] or MUTANTS
    survivors = broken = 0
    for mutant in selected:
        code, first, seconds = _run(mutant)
        # pytest exits 1 on a failed test and 2 on an error; 0 is a survivor.
        # A run that names no failing test broke before any test could judge
        # the mutant, as a replacement that is not valid Python does.
        verdict = "SURVIVED" if code == 0 else "killed" if first else "BROKEN"
        survivors += verdict == "SURVIVED"
        broken += verdict == "BROKEN"
        print(f"{verdict:8} {seconds:6.1f} s  {mutant.name:32} {first}", flush=True)
    for mutant in EQUIVALENT:
        print(f"{'equiv':8} {'':8}  {mutant.name:32} {mutant.why}")
    print(f"{len(selected) - survivors - broken} killed, {survivors} survived, "
          f"{broken} broken, {len(EQUIVALENT)} equivalent")
    return 1 if survivors else 2 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
