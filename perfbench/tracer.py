"""Spans and counters recorded from outside the package.

``install`` replaces the public functions and methods each module of
``mosco_graphs`` exposes with timing wrappers.  A module-level function
is replaced under every module attribute that holds it, because callers
look names up in their own module (``audits`` calls the
``level_partition`` it imported from ``pipeline``); a method is replaced
on its class.  Nothing in the package changes on disk.

A wrap point whose target no longer exists is recorded as missing, and
so is one whose observer raises; the metrics that need it are then
reported as missing instead of failing the run.

Spans are kept in memory and written once, when the process ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import os
import sys
import threading
import time

import numpy as np

from spec import AUDIT_FAMILIES

SWEEP_SPAN = "convergence.sweep"


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, thread]
        self.counts = {}
        self.keys = {}
        self.missing = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopter = None  # the open sweep span, for pool threads

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        if parent is None and self._adopter is not None:
            # A pool thread working for the sweep.
            parent = self._adopter[0]
        span = [next(self._ids), name, time.perf_counter(), None, parent, threading.get_ident()]
        stack.append(span)
        if name == SWEEP_SPAN and self._adopter is None:
            self._adopter = span
        return span

    def close(self, span):
        span[3] = time.perf_counter()
        self._stack().pop()
        if span is self._adopter:
            self._adopter = None
        with self._lock:
            self.spans.append(span)

    def add(self, name, value):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def distinct(self, name, key):
        with self._lock:
            self.keys.setdefault(name, set()).add(key)

    def dump(self, path):
        payload = {
            "spans": self.spans,
            "counts": self.counts,
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "missing": sorted(set(self.missing)),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _wrap(tracer, point, original, *, name, observe):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span)
        if observe is not None:
            try:
                observe(tracer, args, kwargs, result)
            except Exception:  # an observer must never break the program
                tracer.missing.append(point)
        return result

    return wrapper


class _View:
    """A module seen through one caller: one attribute replaced."""

    def __init__(self, target, name, value):
        self._target = target
        self._name = name
        self._value = value

    def __getattr__(self, attr):
        if attr == self._name:
            return self._value
        return getattr(self._target, attr)


def _package_modules():
    return [
        module
        for key, module in list(sys.modules.items())
        if module is not None and (key == "mosco_graphs" or key.startswith("mosco_graphs."))
    ]


def _view(target, parts, value):
    if len(parts) == 1:
        return _View(target, parts[0], value)
    return _View(target, parts[0], _view(getattr(target, parts[0]), parts[1:], value))


def _replace(module, parts, make):
    """Replace ``module.<parts>`` by ``make(original)``; return False if absent."""
    owner = module
    for part in parts[:-1]:
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    if not hasattr(owner, parts[-1]):
        return False
    original = getattr(owner, parts[-1])
    wrapped = make(original)
    if owner is module:
        for other in _package_modules():
            for attr, value in list(vars(other).items()):
                if value is original:
                    setattr(other, attr, wrapped)
    elif isinstance(owner, type):
        setattr(owner, parts[-1], wrapped)
    else:
        # A third-party call as seen from one module (``scipy.linalg.solve``
        # inside ``convergence``): that module gets a view, the library
        # itself is left alone.
        setattr(module, parts[0], _view(getattr(module, parts[0]), parts[1:], wrapped))
    return True


def install(tracer, points=None):
    """Wrap every point in ``points`` (default: WRAP_POINTS)."""
    for point, span_name, observe in points if points is not None else WRAP_POINTS:
        module_name, _, qualname = point.partition(":")
        try:
            module = importlib.import_module(f"mosco_graphs.{module_name}")
        except ImportError:
            tracer.missing.append(point)
            continue
        make = functools.partial(_wrap, tracer, point, name=span_name, observe=observe)
        if not _replace(module, qualname.split("."), make):
            tracer.missing.append(point)


# -- observers: counters taken at the wrap points ------------------------------


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _observe_restrict(tracer, args, kwargs, result):
    partition = args[0]
    indices = args[2] if len(args) > 2 else kwargs["indices"]
    tracer.add("measure.cells_in", partition.n_cells)
    tracer.add("measure.cells_out", result.n_cells)
    labels = partition.labels if partition.labels is not None else np.zeros(0)
    level = -1 if partition.level is None else partition.level
    key = _digest(labels, partition.masses, np.asarray(indices), np.array([level]))
    tracer.distinct("measure.restrict", key)


def _observe_level_partition(tracer, args, kwargs, result):
    basis, m, k = (list(args) + [None, None, None])[:3]
    m = kwargs.get("m", m)
    k = kwargs.get("k", k)
    tracer.add("pipeline.cells", result.n_cells)
    tracer.distinct("pipeline.level_partition", (_digest(basis.vectors[:m]), k))


def _observe_sweep(tracer, args, kwargs, result):
    tracer.add("convergence.records", len(result))


def _observe_suite(tracer, args, kwargs, result):
    tracer.add("audits.failed", sum(1 for r in result if not r.passed))


def _observe_write_json(tracer, args, kwargs, result):
    # Every written graph gets a JSON file, so graphs are counted here.
    from mosco_graphs import graphs

    graph, path = args[0], args[1]
    c = np.triu(graph.conductances)
    v = graph.n_vertices
    tracer.add("graphs.edges", int(np.count_nonzero(c > graphs.EDGE_EPS)))
    tracer.add("graphs.pairs", v * (v + 1) // 2)
    tracer.add("graphs.edges_below_eps", int(np.count_nonzero((c != 0) & (c <= graphs.EDGE_EPS))))
    tracer.add("graphs.bytes_written", os.path.getsize(path))


def _observe_write_edges(tracer, args, kwargs, result):
    tracer.add("graphs.bytes_written", os.path.getsize(args[1]) + os.path.getsize(args[2]))


# (module:qualified name, span name, observer)
WRAP_POINTS = [
    ("measure:CellPartition.restrict", "measure.restrict", _observe_restrict),
    ("measure:condition_on_partition", "measure.condition", None),
    ("pipeline:level_partition", "pipeline.level_partition", _observe_level_partition),
    ("pipeline:Stage.__init__", "pipeline.stage", None),
    ("convergence:iterated_limit_sweep", SWEEP_SPAN, _observe_sweep),
    ("convergence:scipy.linalg.solve", "convergence.solve", None),
    ("convergence:default_test_battery", "convergence.battery", None),
    ("models:get_model", "models.build", None),
    ("models:builtin_models", "models.build", None),
    ("models:SpectralModel.exact_resolvent", "models.exact_resolvent", None),
    ("models:SpectralModel.exact_form", "models.exact_form", None),
    ("models:SpectralModel.apply_semigroup", "models.apply_semigroup", None),
    ("graphs:extract_graph", "graphs.extract", None),
    ("graphs:write_graph_json", "graphs.write_json", _observe_write_json),
    ("graphs:write_edge_list", "graphs.write_edges", _observe_write_edges),
    ("graphs:read_graph_json", "graphs.read_json", None),
    ("graphs:read_edge_list", "graphs.read_edges", None),
    ("graphs:graph_energy", "graphs.energy", None),
    ("audits:audit_suite", "audits.suite", _observe_suite),
    ("cli:main", "cli.main", None),
] + [
    (f"audits:audit_{family}", f"audits.{family}", None)
    for family in AUDIT_FAMILIES
]
