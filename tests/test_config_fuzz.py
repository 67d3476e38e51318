"""Every mutated config finishes or is refused by name, never with a traceback.

A derandomised hypothesis search applies one- or two-field mutations to a
small config and runs ``run`` and ``export-graph`` on each.  Every command
must exit 0, 1 (a failed audit) or 2, raise nothing, and on exit 2 print
``config error: <field>``, with the field one the config has or the unknown
one the mutation added.  Size fields stay at or below 4,096.

The search runs in one child process, which caps its own address space
with ``RLIMIT_AS`` before it loads numpy, so a config that asks for too
much memory fails as a ``MemoryError`` there and never strains the host.
"""
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import traceback
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

# The child's address-space cap: far above what any drawn config needs.
ADDRESS_SPACE = 3 << 30

BASE = {
    "schema": 1,
    "model": "neumann",
    "resolution": 64,
    "modes": 8,
    "basis": "eigen",
    "grid": {"n": [2, 4], "m": [2, 4], "l": [1, 2], "k": [1, 2]},
    "lambdas": [1.0],
    "test_vectors": {"basis": 2, "span": 1, "step": 1, "constant": True},
    "graph_exports": [[2, 4, 2, 2]],
    "out_dir": "out",
    "seed": 7,
}

DROP = object()  # the mutation deletes the field
JUNK = st.sampled_from(
    [None, True, False, "", "x", [], {}, [[]], 1.5, -1, 0, math.nan, math.inf]
)
SIZE = st.one_of(st.sampled_from([-1, 0, 1, 2, 4096]), st.integers(0, 4096))
LEVELS = st.lists(st.one_of(st.integers(-1, 40), st.sampled_from([1023, 1024])), max_size=3)
VALUES = {
    "schema": st.sampled_from([0, 2, "1", 1.0, True]),
    "model": st.sampled_from(["ring", "birth_death", "nope"]),
    "resolution": SIZE,
    "modes": st.one_of(st.integers(-1, 17), st.just(4096)),
    "basis": st.sampled_from(["haar", "nope"]),
    "grid": st.just({"n": [3]}),
    "grid.n": LEVELS,
    "grid.m": LEVELS,
    "grid.l": LEVELS,
    "grid.k": LEVELS,
    "grid.x": st.just([1]),
    "lambdas": st.lists(
        st.sampled_from([0.25, 1.0, 4.0, 0.0, -1.0, 1e-300, 1e300, math.nan, math.inf, 1, True]),
        max_size=3,
    ),
    "test_vectors": st.sampled_from([{}, {"basis": 0, "span": 0, "step": 0, "constant": False}]),
    "test_vectors.basis": SIZE,
    "test_vectors.span": SIZE,
    "test_vectors.step": SIZE,
    "test_vectors.constant": st.sampled_from([False, 0, "no"]),
    "test_vectors.x": st.just(1),
    "graph_exports": st.lists(st.lists(st.integers(-1, 40), max_size=5), max_size=2),
    # Only values that are refused: a drawn path could point anywhere.
    "out_dir": st.sampled_from(["", 5, []]),
    "seed": st.one_of(st.integers(-1, 2**64), JUNK),
    "bogus": st.just(1),
}
# Every field may also be dropped or take a value of the wrong kind.
MUTATION = st.sampled_from(sorted(VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), st.one_of(VALUES[key], JUNK, st.just(DROP)))
)


def _mutated(mutations) -> dict:
    data = json.loads(json.dumps(BASE))
    for key, value in mutations:
        *parents, name = key.split(".")
        owner = data.get(parents[0]) if parents else data
        if not isinstance(owner, dict):
            continue
        if value is DROP:
            owner.pop(name, None)
        else:
            owner[name] = value
    return data


def _main(command: str, path: Path) -> tuple[int | None, str]:
    """The exit code and stderr of one command, or None and the traceback."""
    from mosco_graphs import cli

    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return cli.main([command, "--config", str(path)]), err.getvalue()
    except Exception:
        return None, traceback.format_exc()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    mutations=st.lists(MUTATION, min_size=1, max_size=2, unique_by=lambda m: m[0])
)
def check_mutated_config(mutations):
    from mosco_graphs.config import KNOWN_FIELDS

    data = _mutated(mutations)
    path = Path("config.json")
    path.write_text(json.dumps(data))
    for command in ("run", "export-graph"):
        code, err = _main(command, path)
        assert code in (0, 1, 2) and "Traceback" not in err, (command, data, err)
        if code == 2:
            named = re.match(r"config error: (\w+)", err)
            assert named and named.group(1) in KNOWN_FIELDS | set(data), (command, data, err)


def test_mutated_configs_finish_or_are_refused_by_name(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, __file__],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr


if __name__ == "__main__":
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    check_mutated_config()
