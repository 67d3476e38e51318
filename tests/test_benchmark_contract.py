"""What the benchmark under ``perfbench/`` needs of the package.

Its tracer wraps the package at fixed points (``tracer.WRAP_POINTS``) and
times one span per audit family (``spec.AUDIT_FAMILIES``); a point that no
longer resolves leaves its metrics empty, and the benchmark refuses such
a result.  Both lists are read from a fresh process, as the benchmark
imports them, and never edited here.
"""
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_READ = """
import json, sys
sys.path[:0] = sys.argv[1:]
import spec, tracer
print(json.dumps([[p for p, _, _ in tracer.WRAP_POINTS], list(spec.AUDIT_FAMILIES)]))
"""


@pytest.fixture(scope="module")
def contract():
    done = subprocess.run(
        [sys.executable, "-c", _READ, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_wrap_point_resolves_on_the_package(contract):
    points, _ = contract
    assert "convergence:scipy.linalg.solve" in points
    missing = []
    for point in points:
        module, _, qualname = point.partition(":")
        target = importlib.import_module(f"mosco_graphs.{module}")
        for part in qualname.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(point)
    assert missing == []


def test_audit_suite_calls_exactly_the_benchmarked_families(contract):
    # The benchmark's self-test cuts audit_suite at the next top-level def,
    # so it must not be the last function of its module.
    _, families = contract
    source = (ROOT / "src" / "mosco_graphs" / "audits.py").read_text()
    start = source.find("def audit_suite(")
    end = source.find("\ndef ", start + 1)
    assert start >= 0 and end > start
    called = set(re.findall(r"\baudit_(\w+)\(", source[start:end])) - {"suite"}
    assert called == set(families)
