"""Spans around the program's public functions, installed from outside.

Tracer.install() rebinds each traced function, in every trimode module
that holds it, to a wrapper that records a span (name, start, end,
parent); the two traced value types get their __init__ wrapped instead, so
isinstance and the dataclass machinery are untouched.  uninstall() puts
every original back.  Spans are kept in memory and written out by save().
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

#: (layer, name, work) for every traced function; a layer is the trimode
#: module that defines the function.  work maps the call's arguments and
#: result to a work count, or is None.
FUNCTIONS = (
    ("core", "classify_regime", None),
    ("propagator", "moments_at", None),
    ("propagator", "propagator_analytic", None),
    ("propagator", "outer_moments", None),
    ("propagator", "closed_form_moments", None),
    ("propagator", "propagator_expm", None),
    ("criteria", "evaluate_all", None),
    ("criteria", "vlf_gains", None),
    ("criteria", "vlf_value", None),
    ("criteria", "obr_single", None),
    ("criteria", "obr_pair", None),
    ("oracle", "mc_moments",
     lambda args, kwargs, result: kwargs.get("n", args[2] if len(args) > 2 else 0)),
    ("oracle", "rk4_propagator",
     lambda args, kwargs, result: kwargs.get("steps", args[2] if len(args) > 2 else 0)),
    ("oracle", "compare_moments", None),
    ("sweep", "run_sweep", None),
    ("sweep", "sweep_csv_text", lambda args, kwargs, result: len(result.encode("utf-8"))),
    ("sweep", "write_sweep_csv", None),
    ("sweep", "run_oracle_check", None),
    ("cli", "main", None),
)

#: Per-layer metrics reported from a traced run: (metric, traced name, field,
#: unit).  Every value is divided by the workload points of the traced rounds.
REPORTED = (
    ("core.classify_regime.calls_per_point", "core.classify_regime", "calls", "calls/point"),
    ("core.classify_regime.self_s", "core.classify_regime", "self_s", "s/point"),
    ("core.MomentState.calls_per_point", "core.MomentState", "calls", "calls/point"),
    ("core.MomentState.self_s", "core.MomentState", "self_s", "s/point"),
    ("core.PropagatorPair.calls_per_point", "core.PropagatorPair", "calls", "calls/point"),
    ("core.PropagatorPair.self_s", "core.PropagatorPair", "self_s", "s/point"),
    ("propagator.moments_at.calls", "propagator.moments_at", "calls", "calls/point"),
    ("propagator.moments_at.self_s", "propagator.moments_at", "self_s", "s/point"),
    ("propagator.propagator_analytic.self_s", "propagator.propagator_analytic", "self_s", "s/point"),
    ("propagator.outer_moments.self_s", "propagator.outer_moments", "self_s", "s/point"),
    ("propagator.closed_form_moments.self_s", "propagator.closed_form_moments", "self_s", "s/point"),
    ("propagator.propagator_expm.calls", "propagator.propagator_expm", "calls", "calls/point"),
    ("propagator.propagator_expm.self_s", "propagator.propagator_expm", "self_s", "s/point"),
    ("criteria.evaluate_all.calls", "criteria.evaluate_all", "calls", "calls/point"),
    ("criteria.evaluate_all.self_s", "criteria.evaluate_all", "self_s", "s/point"),
    ("criteria.vlf_gains.self_s", "criteria.vlf_gains", "self_s", "s/point"),
    ("criteria.vlf_value.self_s", "criteria.vlf_value", "self_s", "s/point"),
    ("criteria.obr_single.self_s", "criteria.obr_single", "self_s", "s/point"),
    ("criteria.obr_pair.self_s", "criteria.obr_pair", "self_s", "s/point"),
    ("oracle.mc_moments.calls", "oracle.mc_moments", "calls", "calls/point"),
    ("oracle.mc_moments.samples", "oracle.mc_moments", "work", "samples/point"),
    ("oracle.mc_moments.self_s", "oracle.mc_moments", "self_s", "s/point"),
    ("oracle.rk4_propagator.steps", "oracle.rk4_propagator", "work", "steps/point"),
    ("oracle.rk4_propagator.self_s", "oracle.rk4_propagator", "self_s", "s/point"),
    ("oracle.compare_moments.calls", "oracle.compare_moments", "calls", "calls/point"),
    ("oracle.compare_moments.self_s", "oracle.compare_moments", "self_s", "s/point"),
    ("sweep.run_sweep.self_s", "sweep.run_sweep", "self_s", "s/point"),
    ("sweep.sweep_csv_text.self_s", "sweep.sweep_csv_text", "self_s", "s/point"),
    ("sweep.write_sweep_csv.self_s", "sweep.write_sweep_csv", "self_s", "s/point"),
    ("sweep.run_oracle_check.self_s", "sweep.run_oracle_check", "self_s", "s/point"),
    ("sweep.csv_bytes", "sweep.sweep_csv_text", "work", "bytes/point"),
    ("cli.main.self_s", "cli.main", "self_s", "s/point"),
)

#: (layer, class) whose construction is traced.
CLASSES = (
    ("core", "MomentState"),
    ("core", "PropagatorPair"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.work = []
        # One entry per span, in order of entry; parent -1 is a root span.
        self.span_name = array("h")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span id, seconds covered by children]
        self._restore = []

    def _wrap(self, index, fn, work):
        calls, self_s, work_count = self.calls, self.self_s, self.work
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(span_name)
            span_name.append(index)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[sid] = end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[index] += 1
                self_s[index] += duration - frame[1]
            if work is not None:
                work_count[index] += work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _register(self, layer, name):
        self.names.append(f"{layer}.{name}")
        self.calls.append(0)
        self.self_s.append(0.0)
        self.work.append(0)
        return len(self.names) - 1

    def install(self, package):
        layers = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                  for layer, *_ in FUNCTIONS + CLASSES}
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for layer, name, work in FUNCTIONS:
            original = getattr(layers[layer], name)
            wrapper = self._wrap(self._register(layer, name), original, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
        for layer, name in CLASSES:
            cls = getattr(layers[layer], name)
            original = cls.__dict__["__init__"]
            cls.__init__ = self._wrap(self._register(layer, name), original, None)
            self._restore.append((cls, "__init__", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def report(self, points):
        """REPORTED metrics as {name: (value per point, unit)}."""
        fields = {"calls": self.calls, "self_s": self.self_s, "work": self.work}
        index = {name: i for i, name in enumerate(self.names)}
        return {
            metric: (fields[field][index[traced]] / points, unit)
            for metric, traced, field, unit in REPORTED
        }

    def save(self, path):
        """Write the spans to an .npz: span i is row i of name (an index
        into names), parent (-1 for a root), start and end (perf_counter s)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
