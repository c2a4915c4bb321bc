"""Per-layer tracing from outside the package.

While installed, the tracer replaces each public function listed in
``WRAPPED`` at every name a markovbsde module bound it to (so
``markovbsde.cli.price_american`` and ``markovbsde.hedge.price_american``
are both wrapped), and wraps the ``evaluate`` of every ``MarkovDriver``
built meanwhile. Each wrapped call records a span (layer, parent span,
operation, start, end) in memory; self time is the span's duration minus
the time its child spans cover. ``uninstall`` restores every binding, so
untraced cycles run the package unmodified.
"""

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

WRAPPED = {
    "chain": ("simulate_path", "check_contraction"),
    "market": ("stock_curves", "sdf_path", "terminal_sdf"),
    "bsde": ("solve_bsde",),
    "rbsde": ("solve_reflected", "penalization_limit"),
    "hedge": ("price_american", "extract_hedge", "replicate_forward",
              "discounted_value_check"),
    "montecarlo": ("isometry_check", "european_consistency",
                   "stochastic_integral", "seminorm_time_integral"),
    "grids": ("sample_on_grid",),
    "config": ("load_config",),
    "cli": ("run",),
}

LAYERS = tuple(f"{m}.{f}" for m, fns in WRAPPED.items() for f in fns)


class Tracer:
    def __init__(self):
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.driver_evals = 0
        self.op = -1
        self._stack = []            # [span index, time covered by children]
        self._in_driver = False
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches = []

    # ------------------------------------------------------------ patching

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "markovbsde" or k.startswith("markovbsde.")]
        for idx, name in enumerate(LAYERS):
            mod_name, fn_name = name.split(".")
            orig = getattr(importlib.import_module(f"markovbsde.{mod_name}"),
                           fn_name)
            wrapper = self._wrap(idx, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, wrapper)
        cls = importlib.import_module("markovbsde.bsde").MarkovDriver
        orig_init = cls.__init__
        count = self._count

        def init(driver, *args, **kwargs):
            orig_init(driver, *args, **kwargs)
            object.__setattr__(driver, "evaluate", count(driver.evaluate))

        self._patch(cls, "__init__", init)

    def uninstall(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def _patch(self, obj, attr, new):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    # ------------------------------------------------------------ recording

    def _wrap(self, idx, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = len(tracer.span_start)
            tracer.span_layer.append(idx)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            entry = [span, 0.0]
            stack.append(entry)
            t0 = perf_counter()
            tracer.span_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.span_end[span] = t1
                tracer.calls[idx] += 1
                tracer.self_s[idx] += (t1 - t0) - entry[1]
                if stack:
                    stack[-1][1] += t1 - t0

        return traced

    def _count(self, evaluate):
        """Count driver callbacks; a driver called from inside another
        (the penalized driver's base) is part of the outer callback."""
        tracer = self

        def counted(*args):
            if tracer._in_driver:
                return evaluate(*args)
            tracer.driver_evals += 1
            tracer._in_driver = True
            try:
                return evaluate(*args)
            finally:
                tracer._in_driver = False

        return counted

    # ------------------------------------------------------------ results

    def totals(self):
        """Running totals: (calls, self_s, driver_evals) copies."""
        return list(self.calls), list(self.self_s), self.driver_evals

    def write(self, path):
        """Write every span recorded, with the layer names, to ``path``."""
        np.savez_compressed(
            path, layers=np.array(LAYERS), layer=np.frombuffer(self.span_layer, "i4"),
            parent=np.frombuffer(self.span_parent, "i4"),
            op=np.frombuffer(self.span_op, "i4"),
            start=np.frombuffer(self.span_start, "f8"),
            end=np.frombuffer(self.span_end, "f8"))
