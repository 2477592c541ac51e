"""Spans recorded from outside fredreg, around calls into each module.

A traced run replaces module attributes at the point where the caller
looks them up (``fredreg.iteration.solve_spd_shifted``,
``fredreg.assembly.exp_haar_matrix``, ...), subclasses the public
``OperatorCache``, and wraps the public entry points at the benchmark's
own call sites. Each span holds its name, start, end, the index of the
span that caused it and the request it belongs to (-1 for set-up);
spans stay in memory until the run ends. A name a later version of the
program no longer has is reported as absent, and its metrics read 0.
"""

import contextlib
import functools
import importlib
import itertools
import json
from time import perf_counter

from common import closed_loop


def _dim(args, kwargs, result):
    return {"dim": len(result)}


def _bytes(args, kwargs, result):
    return {"bytes": result.nbytes}


def _outcome(args, kwargs, result):
    trace = result.trace
    return {
        "steps": len(trace),
        "level_max": max((r.m for r in trace), default=0),
        "level_raw_max": max((r.m_raw for r in trace), default=0),
    }


def _cache_id(args, kwargs, result):
    return {"cache": args[0].perfbench_id}


# Attributes of fredreg modules wrapped in every traced run:
# (module, attribute, span name, attribute recorder).
MODULE_WRAPS = (
    ("fredreg.iteration", "solve_spd_shifted", "shifted.solve", _dim),
    ("fredreg.assembly", "exp_haar_matrix", "haar.exp_matrix", _bytes),
    ("fredreg.assembly", "exp_t_haar_matrix", "haar.exp_matrix", _bytes),
    ("fredreg.assembly", "project", "haar.project", None),
    ("fredreg.assembly", "assemble_gram", "assembly.gram.build", None),
    ("fredreg.assembly", "galerkin_matrix", "assembly.galerkin.build", None),
)
CACHE_METHODS = ("gram", "rhs", "data", "galerkin")
# Public entry points the benchmark calls (sweep, deep) or that
# ``fredreg.cli`` looks up (oneshot): (name, span name, attribute recorder).
ENTRY_WRAPS = (
    ("add_noise", "experiment.add_noise", None),
    ("avg_error", "experiment.avg_error", None),
    ("run_adaptive", "iteration.run", _outcome),
    ("run_fixed", "iteration.run", _outcome),
)

# Per-layer metrics in report order, with units. ``(computed)`` counts
# are derived from array shapes, not measured.
LAYER_UNITS = {
    "haar.exp_matrix.s": "s",
    "haar.exp_matrix.calls": "count",
    "haar.exp_matrix.bytes": "bytes",
    "haar.project.s": "s",
    "haar.project.calls": "count",
    "assembly.rhs.s": "s",
    "assembly.rhs.calls": "count",
    "assembly.rhs.fill_s": "s",
    "assembly.rhs.fills": "count",
    "assembly.rhs.fill_setup_share": "1",
    "assembly.adjoint_bytes": "bytes",
    "assembly.gram.s": "s",
    "assembly.gram.calls": "count",
    "assembly.gram.fills": "count",
    "assembly.data.s": "s",
    "assembly.data.calls": "count",
    "assembly.galerkin.s": "s",
    "assembly.galerkin.fills": "count",
    "assembly.hit_ratio": "1",
    "assembly.cached_calls": "count",
    "shifted.solve.s": "s",
    "shifted.solve.calls": "count",
    "shifted.solve.flops": "flop",
    "shifted.solve.dim_max": "count",
    "iteration.run.s": "s",
    "iteration.run.self_s": "s",
    "iteration.steps": "count",
    "iteration.level_max": "count",
    "iteration.level_raw_max": "count",
    "experiment.add_noise.s": "s",
    "experiment.add_noise.calls": "count",
    "experiment.avg_error.s": "s",
    "cli.main.self_s": "s",
    "startup.import_s": "s",
    "startup.import_scipy_s": "s",
    "startup.import_fredreg_self_s": "s",
    "setup.traced_s": "s",
    "trace.requests": "count",
    "trace.overhead_frac": "1",
    "trace.untraced_s": "s",
}
COMPUTED = ("haar.exp_matrix.bytes", "assembly.adjoint_bytes", "shifted.solve.flops")


class Tracer:
    """In-memory span recorder.

    ``installed()`` wraps the module attributes of ``MODULE_WRAPS`` and,
    when given ``entry_module``, the entry points and ``OperatorCache``
    where that module looks them up; leaving it restores the originals.
    """

    def __init__(self, entry_module=None):
        self.spans = []  # [name, start, end, parent, request, attrs]
        self.request = -1
        self.absent = []
        self._entry_module = entry_module
        self._stack = []
        self._undo = []
        self._cache_ids = itertools.count()

    def wrap(self, fn, name, record=None):
        """``fn`` recording one span per call; ``record(args, kwargs, result)`` adds attributes."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if record is not None:
                rec[5] = record(args, kwargs, result)
            return result

        return traced

    def _absent(self, name):
        if name not in self.absent:
            self.absent.append(name)

    def _patch(self, module_name, attr, replacement):
        """Set ``module.attr`` to ``replacement(original)``, or record it as absent."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self._absent(f"{module_name}.{attr}")
            return
        setattr(module, attr, replacement(original))
        self._undo.append((module, attr, original))

    @contextlib.contextmanager
    def installed(self):
        for module_name, attr, name, record in MODULE_WRAPS:
            self._patch(module_name, attr, lambda fn: self.wrap(fn, name, record))
        if self._entry_module is not None:
            for attr, name, record in ENTRY_WRAPS:
                self._patch(self._entry_module, attr, lambda fn: self.wrap(fn, name, record))
            self._patch(self._entry_module, "OperatorCache", self.cache_class)
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._undo):
                setattr(module, attr, original)
            self._undo.clear()

    def entry_points(self, module_name):
        """Traced public entry points looked up in ``module_name``.

        Returns a dict name -> traced callable of the names present.
        """
        module = importlib.import_module(module_name)
        traced = {}
        for attr, name, record in ENTRY_WRAPS:
            fn = getattr(module, attr, None)
            if fn is None:
                self._absent(f"{module_name}.{attr}")
            else:
                traced[attr] = self.wrap(fn, name, record)
        return traced

    def cache_class(self, base):
        """Subclass of ``base`` (the public ``OperatorCache``) with traced methods."""
        ids = self._cache_ids

        def __init__(cache, *args, **kwargs):
            base.__init__(cache, *args, **kwargs)
            cache.perfbench_id = next(ids)

        methods = {"__init__": __init__}
        for method in CACHE_METHODS:
            original = getattr(base, method, None)
            if original is None:
                self._absent(f"OperatorCache.{method}")
            else:
                methods[method] = self.wrap(original, f"assembly.{method}", _cache_id)
        return type("TracedOperatorCache", (base,), methods)

    def compare(self, spec, seed, tally, count, plain, traced, blocks=10):
        """Wall times of requests ``[0, count)`` run by ``plain`` and by ``traced``.

        The requests go in blocks, each run untraced and traced, the
        order alternating, so that drift in the machine's speed falls on
        both sides alike.
        """
        times = {False: 0.0, True: 0.0}
        step = -(-count // blocks)
        for k, first in enumerate(range(0, count, step)):
            n = min(step, count - first)
            for tracing in (False, True) if k % 2 == 0 else (True, False):
                if tracing:
                    with self.installed():
                        times[True] += closed_loop(spec, seed, traced, tally, n, first, self)
                else:
                    times[False] += closed_loop(spec, seed, plain, tally, n, first)
        return times[False], times[True]

    def finish(self, path, count, untraced_s, traced_s):
        """Write the spans to ``path`` as JSON and sum them up.

        ``untraced_s`` and ``traced_s`` are the wall times of the same
        ``count`` requests without and with tracing. Returns the
        per-layer values, the adjoint fill time spent in set-up, and
        details for the info line.
        """
        with open(path, "w") as handle:
            json.dump({"absent": self.absent, "spans": self.spans}, handle)
        layers, setup_fill_s = layer_metrics(self.spans)
        layers.update({
            "trace.requests": count,
            "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
            "trace.untraced_s": untraced_s,
        })
        details = {"absent": self.absent, "spans": len(self.spans), "trace_file": str(path)}
        return layers, setup_fill_s, details


def layer_metrics(spans):
    """Per-layer totals over all spans; self time excludes direct children."""
    child_s = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_s[rec[3]] += rec[2] - rec[1]
    total, self_s, calls = {}, {}, {}
    for idx, (name, start, end, *_rest) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + end - start - child_s[idx]
        calls[name] = calls.get(name, 0) + 1

    # An ``assembly.rhs`` call fills the cache when it builds adjoint
    # matrices, i.e. when an ``haar.exp_matrix`` span runs under it.
    fills = set()
    adjoint_bytes = {}
    exp_bytes = 0
    for rec in spans:
        if rec[0] != "haar.exp_matrix":
            continue
        exp_bytes += rec[5]["bytes"]
        parent = rec[3]
        while parent >= 0 and spans[parent][0] != "assembly.rhs":
            parent = spans[parent][3]
        if parent >= 0:
            fills.add(parent)
            cache = spans[parent][5]["cache"]
            adjoint_bytes[cache] = adjoint_bytes.get(cache, 0) + rec[5]["bytes"]
    fill_s = sum(spans[i][2] - spans[i][1] for i in fills)
    setup_fill_s = sum(spans[i][2] - spans[i][1] for i in fills if spans[i][4] == -1)

    def attr_values(name, key):
        return [rec[5][key] for rec in spans if rec[0] == name and rec[5]]

    dims = attr_values("shifted.solve", "dim")
    cache_calls = sum(calls.get(f"assembly.{n}", 0) for n in ("gram", "rhs", "galerkin"))
    cache_fills = (calls.get("assembly.gram.build", 0) + len(fills)
                   + calls.get("assembly.galerkin.build", 0))
    return {
        "haar.exp_matrix.s": total.get("haar.exp_matrix", 0.0),
        "haar.exp_matrix.calls": calls.get("haar.exp_matrix", 0),
        "haar.exp_matrix.bytes": exp_bytes,
        "haar.project.s": total.get("haar.project", 0.0),
        "haar.project.calls": calls.get("haar.project", 0),
        "assembly.rhs.s": total.get("assembly.rhs", 0.0) - fill_s,
        "assembly.rhs.calls": calls.get("assembly.rhs", 0) - len(fills),
        "assembly.rhs.fill_s": fill_s,
        "assembly.rhs.fills": len(fills),
        "assembly.adjoint_bytes": max(adjoint_bytes.values(), default=0),
        "assembly.gram.s": total.get("assembly.gram", 0.0),
        "assembly.gram.calls": calls.get("assembly.gram", 0),
        "assembly.gram.fills": calls.get("assembly.gram.build", 0),
        "assembly.data.s": total.get("assembly.data", 0.0),
        "assembly.data.calls": calls.get("assembly.data", 0),
        "assembly.galerkin.s": total.get("assembly.galerkin", 0.0),
        "assembly.galerkin.fills": calls.get("assembly.galerkin.build", 0),
        "assembly.hit_ratio": 1.0 - cache_fills / cache_calls if cache_calls else 0.0,
        "assembly.cached_calls": cache_calls,
        "shifted.solve.s": total.get("shifted.solve", 0.0),
        "shifted.solve.calls": calls.get("shifted.solve", 0),
        "shifted.solve.flops": sum(n ** 3 / 3 + 2 * n ** 2 for n in dims),
        "shifted.solve.dim_max": max(dims, default=0),
        "iteration.run.s": total.get("iteration.run", 0.0),
        "iteration.run.self_s": self_s.get("iteration.run", 0.0),
        "iteration.steps": sum(attr_values("iteration.run", "steps")),
        "iteration.level_max": max(attr_values("iteration.run", "level_max"), default=0),
        "iteration.level_raw_max": max(attr_values("iteration.run", "level_raw_max"), default=0),
        "experiment.add_noise.s": total.get("experiment.add_noise", 0.0),
        "experiment.add_noise.calls": calls.get("experiment.add_noise", 0),
        "experiment.avg_error.s": total.get("experiment.avg_error", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }, setup_fill_s


def report(values):
    """All per-layer metrics with units; layers a run did not reach read 0."""
    return {name: (values.get(name, 0), unit) for name, unit in LAYER_UNITS.items()}
