"""Span tracer for the traced benchmark pass.

The tracer wraps hyplab from outside the package; nothing under ``src/``
is edited.  Every public module-level function of each hyplab module,
plus the private hot spots ``propagator._lens_mc`` and
``selberg._heat_profile``, is replaced at every module binding that
refers to it (so ``propagator.systole`` and ``trace.group_ball`` are
wrapped as well as ``fuchsian.systole`` and ``fuchsian.group_ball``).
Each wrapped call records a span: name, start, end, parent span and op
id.  The multipliers returned by ``selberg_forward`` and the kernels
returned by ``selberg_inverse`` are wrapped as ``selberg.forward_eval``
and ``selberg.kernel_eval``.  Scalar helpers called millions of times
(``geom.hyp_dist``, ``geom.mobius_apply``, ``MobiusElement.__matmul__``)
get counters, not spans.

Spans are kept in memory; ``summarize`` derives self times (span length
minus the time covered by its child spans) and ``write_spans`` dumps
them at the end of the worker.  This module imports only the standard
library at import time, so loading it does not disturb the measured
interpreter set-up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("geom", "fuchsian", "selberg", "propagator", "spectral_action",
           "trace", "synthetic", "qe", "cli")
PRIVATE = {"propagator._lens_mc", "selberg._heat_profile"}
COUNTED = {"geom.hyp_dist", "geom.mobius_apply"}
MATMUL = "geom.MobiusElement.__matmul__"

# work extracted from a call's arguments: span name -> (key, parameter)
_ARG_WORK = {
    "geom.sample_ball_complex": ("points", "n"),
    "fuchsian.dirichlet_mask": ("points", "zc"),
    "fuchsian.min_displacement_batch": ("points", "zc"),
    "propagator.apply_Pt": ("samples", "n"),
    "propagator.intersection_volume": ("samples", "n"),
    "propagator._lens_mc": ("samples", "n"),
    "spectral_action.h_t_closed": ("points", None),
    "spectral_action.c_of_s": ("points", None),
}


def _arg_getter(fn, param):
    """A fast accessor for one named parameter of fn."""
    sig = inspect.signature(fn)
    names = list(sig.parameters)
    pos = names.index(param)
    default = sig.parameters[param].default

    def get(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(param, default)

    return get


class Tracer:
    """Records spans and counters for the hyplab calls of one process."""

    def __init__(self):
        # one span: [name, start, end, parent index, op id, work dict]
        self.spans = []
        self.stack = []
        self.counts = {}
        self.op = None
        self.enabled = True

    # -------------------------------------------------------- installing

    def install(self) -> None:
        mods = {name: importlib.import_module("hyplab." + name)
                for name in MODULES}
        wrappers = {}
        for mod_name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{mod_name}.{attr}"
                if attr.startswith("_") and name not in PRIVATE:
                    continue
                wrappers[obj] = (self._counter(name, obj) if name in COUNTED
                                 else self._span(name, obj))
        # every binding of a wrapped function, in every hyplab module
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        cls = mods["geom"].MobiusElement
        cls.__matmul__ = self._counter(MATMUL, cls.__matmul__)
        self._fuchsian = mods["fuchsian"]
        self._selberg = mods["selberg"]

    # ---------------------------------------------------------- wrappers

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn):
        work = self._work_fn(name, fn)
        after = self._after_fn(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.op, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            before = self._before(name, args)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if work is not None:
                span[5] = work(args, kwargs)
            if after is not None:
                result = after(span, before, result)
            return result

        return wrapper

    def _work_fn(self, name, fn):
        if name == "spectral_action.h_t_grid":
            t_of = _arg_getter(fn, "t")
            s_of = _arg_getter(fn, "s")

            def grid_points(args, kwargs):
                import numpy as np
                return {"points": int(np.broadcast(
                    np.atleast_1d(t_of(args, kwargs)),
                    np.atleast_1d(s_of(args, kwargs))).size)}
            return grid_points
        if name not in _ARG_WORK:
            return None
        key, param = _ARG_WORK[name]
        if param is None:
            return lambda args, kwargs: {key: 1}
        get = _arg_getter(fn, param)
        if key == "points":
            return lambda args, kwargs: {
                key: int(getattr(get(args, kwargs), "size", 1))}
        return lambda args, kwargs: {key: int(get(args, kwargs))}

    def _before(self, name, args):
        if name == "fuchsian.group_ball":
            return (self._fuchsian._group_ball_cached.cache_info().misses,
                    self.counts[MATMUL])
        if name == "selberg._heat_profile":
            return float(args[0]) in self._selberg._heat_cache
        return None

    def _after_fn(self, name):
        if name == "fuchsian.group_ball":
            def after(span, before, ball):
                misses, products = before
                builds = (self._fuchsian._group_ball_cached.cache_info().misses
                          - misses)
                span[5] = {"builds": builds,
                           "kept": len(ball) if builds else 0,
                           "products": self.counts[MATMUL] - products}
                return ball
            return after
        if name == "selberg._heat_profile":
            def after(span, cached, result):
                span[5] = {"builds": 0 if cached else 1}
                return result
            return after
        if name == "selberg.selberg_forward":
            def after(span, before, h):
                h.eval = self._span("selberg.forward_eval", h.eval)
                return h
            return after
        if name == "selberg.selberg_inverse":
            def after(span, before, k):
                k.eval = self._span("selberg.kernel_eval", k.eval)
                return k
            return after
        return None

    # --------------------------------------------------------------- ops

    def run_op(self, op_id, fn, *args):
        """Run fn(*args) under a root span named ``bench.op``; returns
        fn's result.  Exceptions propagate after the span is closed."""
        self.op = op_id
        return self._span("bench.op", fn)(*args)

    # ----------------------------------------------------------- results

    def summarize(self) -> dict:
        """Per-function calls, self time and work counts; per-op traced
        wall time and the sum of self times of the op's spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _name, t0, t1, parent, _op, _work in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        functions = {}
        ops = {}
        for i, (name, t0, t1, parent, op, work) in enumerate(spans):
            st = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            st["calls"] += 1
            self_s = (t1 - t0) - covered[i]
            st["self_s"] += self_s
            for key, val in (work or {}).items():
                st[key] = st.get(key, 0) + val
            o = ops.setdefault(str(op), {"wall_s": 0.0, "self_sum_s": 0.0})
            o["self_sum_s"] += self_s
            if parent < 0:
                o["wall_s"] += t1 - t0
        for name, n in self.counts.items():
            functions[name] = {"calls": n}
        return {"functions": functions, "ops": ops, "spans": len(spans)}

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"fields": ["name", "start", "end", "parent", "op"],
               "names": names,
               "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                         for s in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
