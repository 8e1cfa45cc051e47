"""Span tracer for a traced benchmark pass, and the per-layer metrics
computed from its spans.

The tracer wraps, from outside the package, every public function and
method of the modules in ``MODULES``.  Each wrapped call records one span
(name, start, end, parent span, job number) in memory.  A layer's self
time is its spans' time minus the time of their child spans, so the time
of unwrapped helpers counts as self time of the wrapped caller.

Not wrapped, because they run once per element and the wrapper would cost
more than the work: ``Permutation.__call__`` and the other operators of
``Permutation``, everything of the scalar type ``MultiPoly``, and
``wedge_rep.sort_with_sign``.  The whole-object operators of
``ExactMatrix`` and ``GroupAlgebraElement`` (``+``, ``-``, ``@``, ``==``)
are wrapped, so that element and matrix arithmetic is charged to its own
layer.
"""

from __future__ import annotations

import inspect

from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from functools import wraps
from importlib import import_module
from math import comb
from time import perf_counter

MODULES = ("perm", "group_algebra", "exactmath", "wedge_rep",
           "lie_generators", "graphs", "sdet", "verify", "cli")

SKIP_CLASSES = {"MultiPoly"}
SKIP_FUNCTIONS = {"sort_with_sign"}
OPERATOR_CLASSES = {"ExactMatrix", "GroupAlgebraElement"}
OPERATORS = ("__add__", "__sub__", "__neg__", "__matmul__", "__eq__")

# Span names that differ from <module>.<function>.
RENAMED = {"wedge_rep.grp_matrix": "wedge_rep.wedge_matrix",
           "wedge_rep.alg_matrix": "wedge_rep.wedge_matrix",
           "graphs.enumerate_trees": "graphs.trees",
           "graphs.enumerate_three_trees": "graphs.three_trees"}

# Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = {}
for _module in MODULES:
    LAYER_METRICS[_module + ".self_s"] = "s"
    LAYER_METRICS[_module + ".calls"] = "count"
LAYER_METRICS.update({
    "sdet.mu_table.self_s": "s",
    "sdet.mu_table.builds": "count",
    "sdet.mu_table.candidates": "count",
    "sdet.mu_table.nonzero": "count",
    "sdet.mu_table.nonzero_ratio": "ratio",
    "sdet.mu_from_weights.self_s": "s",
    "exactmath.charpoly.self_s": "s",
    "sdet.sdet.calls": "count",
    "sdet.sdet.self_s": "s",
    "sdet.sdet_via_coeff.self_s": "s",
    "exactmath.rref.calls": "count",
    "exactmath.rref.cells": "count",
    "exactmath.rref.rows": "count",
    "exactmath.rref.rank": "count",
    "exactmath.rref.rank_ratio": "ratio",
    "exactmath.rref.self_s": "s",
    "exactmath.det_rational.calls": "count",
    "exactmath.det_rational.self_s": "s",
    "exactmath.det_poly.calls": "count",
    "exactmath.det_poly.self_s": "s",
    "exactmath.pfaffian.self_s": "s",
    "wedge_rep.lie_space.self_s": "s",
    "wedge_rep.is_lie.calls": "count",
    "wedge_rep.wedge_matrix.calls": "count",
    "wedge_rep.wedge_matrix.self_s": "s",
    "lie_generators.lie_closure.self_s": "s",
    "lie_generators.lie_closure.dim": "count",
    "lie_generators.lie_closure.brackets": "count",
    "lie_generators.lie_closure.dim_per_bracket": "ratio",
    "graphs.trees.items": "count",
    "graphs.three_trees.items": "count",
    "graphs.tree_weight.calls": "count",
    "group_algebra.multiply.calls": "count",
    "group_algebra.multiply.term_pairs": "count",
    "perm.compose.calls": "count",
    "cli.main.calls": "count",
    "trace.spans": "count",
    "trace.run_s": "s",
    "trace.overhead_ratio": "ratio",
})

# Metrics bench/run.py computes from the pass timings.
FROM_RUN = ("trace.run_s", "trace.overhead_ratio")

# Ratios of two other metrics: (numerator, base).
RATIOS = {
    "sdet.mu_table.nonzero_ratio":
        ("sdet.mu_table.nonzero", "sdet.mu_table.candidates"),
    "exactmath.rref.rank_ratio": ("exactmath.rref.rank", "exactmath.rref.rows"),
    "lie_generators.lie_closure.dim_per_bracket":
        ("lie_generators.lie_closure.dim",
         "lie_generators.lie_closure.brackets"),
}


def mu_candidates(n, r):
    """Multisets of size r over the 2*C(n,4) generator instances with every
    multiplicity at most 2: the candidates mu_table(n, r) must visit."""
    kinds = 2 * comb(n, 4)
    return sum(comb(kinds, doubles) * comb(kinds - doubles, r - 2 * doubles)
               for doubles in range(r // 2 + 1))


class Tracer:
    """Spans of one traced pass, kept in memory as columns."""

    def __init__(self):
        self.job = -1
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self._open = []
        self.counts = Counter()
        self._tables = []
        self._table_ids = set()

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.job_of.append(self.job)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def leave(self, idx):
        self.end[idx] = perf_counter()
        self._open.pop()

    # -- wrapping --------------------------------------------------------

    def wrap(self, name, fn):
        on_exit = _ON_EXIT.get(name)
        name = RENAMED.get(name, name)
        nid = self.name_id(name)
        enter, leave = self.enter, self.leave
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, nid, fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if on_exit is not None:
                on_exit(self, idx, args, result)
            return result
        return wrapper

    def _wrap_generator(self, name, nid, fn):
        """One span per item pulled, parented to the consumer's span."""
        enter, leave, counts = self.enter, self.leave, self.counts
        items = name + ".items"

        @wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = enter(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    leave(idx)
                counts[items] += 1
                yield item
        return wrapper

    def install(self):
        """Wrap the public functions of every module in MODULES, and
        rebind every module and class attribute that refers to one, so
        that imports by name (verify.mu_from_weights) and aliases
        (Permutation.__mul__) are traced too."""
        modules = [import_module("lie_elements." + m) for m in MODULES]
        wrapped = {}
        classes = []
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    if not attr.startswith("_") \
                            and attr not in SKIP_FUNCTIONS:
                        wrapped[obj] = self.wrap(short + "." + attr, obj)
                elif inspect.isclass(obj) and not attr.startswith("_") \
                        and attr not in SKIP_CLASSES:
                    classes.append(obj)
                    operators = (OPERATORS if attr in OPERATOR_CLASSES
                                 else ())
                    for name, member in vars(obj).items():
                        fn = getattr(member, "__func__", member)
                        if inspect.isfunction(fn) and fn not in wrapped and (
                                not name.startswith("_")
                                or name in operators):
                            wrapped[fn] = self.wrap(short + "." + name, fn)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
        for cls in classes:
            for name, member in list(vars(cls).items()):
                fn = getattr(member, "__func__", member)
                if not inspect.isfunction(fn) or fn not in wrapped:
                    continue
                if isinstance(member, classmethod):
                    setattr(cls, name, classmethod(wrapped[fn]))
                elif isinstance(member, staticmethod):
                    setattr(cls, name, staticmethod(wrapped[fn]))
                else:
                    setattr(cls, name, wrapped[fn])

    # -- metrics ---------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the pass, keyed as in LAYER_METRICS (all
        but FROM_RUN)."""
        total = len(self.start)
        child = [0.0] * total
        for idx in range(total):
            parent = self.parent[idx]
            if parent >= 0:
                child[parent] += self.end[idx] - self.start[idx]
        self_s = defaultdict(float)
        calls = Counter()
        for idx in range(total):
            name = self.names[self.name[idx]]
            self_s[name] += self.end[idx] - self.start[idx] - child[idx]
            calls[name] += 1
        for module in MODULES:
            prefix = module + "."
            self_s[module] = sum(v for k, v in self_s.items()
                                 if k.startswith(prefix))
            calls[module] = sum(v for k, v in calls.items()
                                if k.startswith(prefix))
        bracket = self._name_ids.get("group_algebra.bracket")
        closure = self._name_ids.get("lie_generators.lie_closure")
        counts = Counter(self.counts)
        counts["lie_generators.lie_closure.brackets"] = sum(
            1 for idx in range(total)
            if self.name[idx] == bracket and self.parent[idx] >= 0
            and self.name[self.parent[idx]] == closure)
        counts["trace.spans"] = total
        out = {}
        for name in LAYER_METRICS:
            if name.endswith(".self_s"):
                out[name] = self_s.get(name[:-len(".self_s")], 0.0)
            elif name.endswith(".calls"):
                out[name] = calls.get(name[:-len(".calls")], 0)
            elif name not in RATIOS and name not in FROM_RUN:
                out[name] = counts[name]
        for name, (numerator, base) in RATIOS.items():
            out[name] = out[numerator] / out[base] if out[base] else 0.0
        return out


# -- counters recorded when a wrapped call returns -----------------------


def _mu_table_exit(tracer, idx, args, result):
    """A build is a call that returns a table not returned before."""
    if id(result) in tracer._table_ids:
        return
    tracer._tables.append(result)
    tracer._table_ids.add(id(result))
    n, r = args[0], args[1]
    tracer.counts["sdet.mu_table.builds"] += 1
    tracer.counts["sdet.mu_table.candidates"] += mu_candidates(n, r)
    tracer.counts["sdet.mu_table.nonzero"] += len(result)


def _rref_exit(tracer, idx, args, result):
    matrix = args[0]
    tracer.counts["exactmath.rref.cells"] += matrix.rows * matrix.cols
    tracer.counts["exactmath.rref.rows"] += matrix.rows
    tracer.counts["exactmath.rref.rank"] += len(result[1])


def _det_exit(tracer, idx, args, result):
    """Name the span by the arithmetic used: Gauss over Q, or Bareiss over
    polynomials."""
    kind = "det_rational" if isinstance(result, Fraction) else "det_poly"
    tracer.name[idx] = tracer.name_id("exactmath." + kind)


def _multiply_exit(tracer, idx, args, result):
    tracer.counts["group_algebra.multiply.term_pairs"] += (
        len(args[0].terms) * len(args[1].terms))


def _closure_exit(tracer, idx, args, result):
    tracer.counts["lie_generators.lie_closure.dim"] += len(result)


_ON_EXIT = {"sdet.mu_table": _mu_table_exit,
            "exactmath.rref": _rref_exit,
            "exactmath.det": _det_exit,
            "group_algebra.multiply": _multiply_exit,
            "lie_generators.lie_closure": _closure_exit}
