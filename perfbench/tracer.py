"""Spans around calls into rlab's public functions, installed from outside
the package.

Installing a Tracer rebinds each traced function, in every rlab module that
holds a reference to it, to a wrapper that records a span
[name, start_ns, end_ns, parent_span, n] in memory; uninstalling restores the
originals.  n is a work count for spans that carry one (points for radial
evaluation), else 0.  Nothing under src/ is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("geometry", "exprdsl", "leray", "transform", "numerics",
           "diagnostics", "cli")

_RADIAL_METHODS = ("log_r1", "log_r2", "log_r1_xy", "log_r2_xy",
                   "log_r1_star", "log_r2_star", "log_r1_star_xy",
                   "log_r2_star_xy", "r1", "r2", "r1_star", "r2_star")


def _radial_points(args, result):
    # args[0] is the geometry; args[1] the s values
    return {}, int(np.size(args[1]))


def _moment_counts(args, result):
    return {"moment_entries": int(result.log_I.size),
            "moment_converged": int(np.count_nonzero(result.converged))}, 0


def _compare_points(args, result):
    # args[1] holds the s values of the sampled points
    n = int(np.size(args[1]))
    return {"compare_points": n}, n


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None):
        spans, counts, stack_of = self.spans, self.counts, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            span = [name, 0, 0, parent, 0]
            spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            # a call nested directly in a call of the same name (log_r1 inside
            # log_r1_star, say) is not counted twice
            if count is not None and (parent is None or parent[0] != name):
                extra, span[4] = count(args, result)
                for key, value in extra.items():
                    counts[key] += value
            return result
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        import rlab
        mods = {m: importlib.import_module(f"rlab.{m}") for m in MODULES}
        counters = {"leray.moment_table": _moment_counts,
                    "diagnostics.F_omega": _compare_points}
        wrapped = {}   # id(original) -> (original, wrapper)
        for mname, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    name = f"{mname}.{attr}"
                    wrapped[id(obj)] = (obj, self.wrap(name, obj,
                                                       counters.get(name)))
        nodes = mods["leray"]._radial_log_nodes
        wrapped[id(nodes)] = (nodes, self.wrap("geometry.radial_nodes", nodes))
        main = mods["cli"].main
        wrapped[id(main)] = (main, self.wrap("cli.main", main))

        for mod in [rlab, importlib.import_module("rlab.reporting"),
                    importlib.import_module("rlab.errors"), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._set(mod, attr, wrapped[id(obj)][1])
        verbs = mods["cli"]._VERBS
        for verb, fn in list(verbs.items()):
            self._undo.append((verbs.__setitem__, verb, fn))
            verbs[verb] = self.wrap(f"cli.{verb}", fn)

        geom_cls = mods["geometry"].DomainGeometry
        self._set(geom_cls, "__init__",
                  self.wrap("geometry.DomainGeometry", geom_cls.__init__))
        for attr in _RADIAL_METHODS:
            self._set(geom_cls, attr, self.wrap("geometry.radial",
                                                getattr(geom_cls, attr),
                                                _radial_points))
        expr_cls = mods["exprdsl"].Expr
        self._set(expr_cls, "__call__",
                  self.wrap("exprdsl.Expr", expr_cls.__call__))
        return self

    def _set(self, obj, attr, value):
        self._undo.append((functools.partial(setattr, obj), attr,
                           getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._undo:
            setter, attr, original = self._undo.pop()
            setter(attr, original)

    # -- serialisation ------------------------------------------------------

    def dump(self):
        """Spans as plain lists, parents given by index (-1 for a root)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return {"spans": [[s[0], s[1], s[2],
                           -1 if s[3] is None else index[id(s[3])], s[4]]
                          for s in self.spans],
                "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans):
    """Self time in seconds per module: each span's duration minus the part
    its child spans cover (children never outlive their parent)."""
    child_ns = defaultdict(int)
    for span in spans:
        if span[3] is not None:
            child_ns[id(span[3])] += span[2] - span[1]
    out = defaultdict(float)
    for span in spans:
        own = span[2] - span[1] - child_ns[id(span)]
        out[span[0].split(".", 1)[0]] += own * 1e-9
    return out


def outer_totals(spans, groups):
    """For each group (a set of span names), the summed duration in seconds
    and work count of its outermost spans: those with no ancestor in the
    same group, so nested calls are not counted twice."""
    member = defaultdict(list)
    for key, names in groups.items():
        for name in names:
            member[name].append(key)
    seconds = defaultdict(float)
    work = defaultdict(int)
    for span in spans:
        for key in member.get(span[0], ()):
            names = groups[key]
            parent = span[3]
            while parent is not None and parent[0] not in names:
                parent = parent[3]
            if parent is None:
                seconds[key] += (span[2] - span[1]) * 1e-9
                work[key] += span[4]
    return seconds, work
