"""Span tracer that wraps the library's public functions from outside it.

``install`` replaces, in every ``proxbundle`` module namespace, each public
function of the layer modules (and the hot methods in ``METHODS``) by a
wrapper that records one span per call: name, start, end, the enclosing span
and whether it raised.  Spans stay in memory; ``write`` saves them at the
end.  Per-phase aggregates (calls, inclusive and self time, longest call,
raises) are kept as spans close, so the metrics need no second pass.
``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("solver", "model", "qp", "oracles", "problems", "funcs")
# methods on the solve path that the module-level functions do not cover;
# Quadratic.value/gradient run nf times per evaluate and stay unwrapped
METHODS = {
    "model": (("Bundle", "__init__"), ("Bundle", "plane_values")),
    "problems": (("MaxQuadProblem", "evaluate"),),
    "funcs": (("TestFunction", "__call__"), ("TestFunction", "evaluate")),
}
ROOT = "bench.solve"
PHASES = ("setup", "reference", "solve")


def _observe_bundle_size(stats, args, result):
    stats.bundle_sizes.append(len(args[0]))


def _observe_tilt(stats, args, result):
    stats.tilt_corrections += bool(result[1].corrected)


OBSERVERS = {
    "qp.prox_of_model": _observe_bundle_size,
    "model.tilt_correct": _observe_tilt,
}


class PhaseStats:
    """Aggregates over the spans that closed while one phase was current."""

    def __init__(self, names, layer_of):
        k = len(names)
        self._index = {name: i for i, name in enumerate(names)}
        self._layer_of = layer_of
        self.calls = [0] * k
        self.total = [0.0] * k
        self.self_time = [0.0] * k
        self.longest = [0.0] * k
        self.raised = [0] * k
        self.layer_entry_time = {}
        self.layer_entry_calls = {}
        self.bundle_sizes = []
        self.tilt_corrections = 0

    def count(self, name):
        return self.calls[self._index[name]]

    def time(self, name):
        return self.total[self._index[name]]

    def max_time(self, name):
        return self.longest[self._index[name]]

    def raises(self, name):
        return self.raised[self._index[name]]

    def layer_self(self, layer):
        return sum(t for t, lay in zip(self.self_time, self._layer_of)
                   if lay == layer)


class Tracer:
    def __init__(self, package):
        self._targets = []  # (owner, attr, original, span name)
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    self._targets.append((module, attr, obj, f"{layer}.{attr}"))
            for cls_name, attr in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                self._targets.append((cls, attr, cls.__dict__[attr],
                                      f"{layer}.{cls_name}.{attr}"))
        self.names = [ROOT] + [t[3] for t in self._targets]
        self.layer_of = [name.split(".")[0] for name in self.names]
        self.stats = {p: PhaseStats(self.names, self.layer_of) for p in PHASES}
        self._phase = PHASES.index("solve")
        self._current = self.stats["solve"]
        self._open = []  # stack of [name id, span id, seconds in children]
        self._next_id = 0
        self._patches = []
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_phase = array("b")
        self.span_raised = array("b")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target wherever a proxbundle module holds a reference."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "proxbundle" or name.startswith("proxbundle.")]
        for nid, (owner, attr, original, name) in enumerate(self._targets, 1):
            wrapper = self._wrap(nid, original, OBSERVERS.get(name))
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)

    def still_wrapped(self):
        """Names bound to a wrapper rather than the original; empty once
        ``uninstall`` has run."""
        return [f"{getattr(owner, '__name__', owner)}.{key}"
                for owner, key, original in self._patches
                if getattr(owner, key) is not original]

    def wrapped_count(self):
        return len(self._patches)

    # -- recording --------------------------------------------------------

    @contextmanager
    def phase(self, name):
        saved = self._phase
        self._phase = PHASES.index(name)
        self._current = self.stats[name]
        try:
            yield self._current
        finally:
            self._phase = saved
            self._current = self.stats[PHASES[saved]]

    def root(self, fn, *args):
        """Call fn inside a root span, the benchmark's own unit of work."""
        return self._wrap(0, fn, None)(*args)

    def _wrap(self, nid, fn, observe):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [nid, tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._open.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                tracer._open.pop()
                tracer._close(frame, start, end, raised)
            if observe is not None:
                observe(tracer._current, args, result)
            return result

        return wrapper

    def _close(self, frame, start, end, raised):
        nid, sid, child = frame
        duration = end - start
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[2] += duration
        st = self._current
        st.calls[nid] += 1
        st.total[nid] += duration
        st.self_time[nid] += duration - child
        if duration > st.longest[nid]:
            st.longest[nid] = duration
        if raised:
            st.raised[nid] += 1
        layer = self.layer_of[nid]
        if parent is None or self.layer_of[parent[0]] != layer:
            st.layer_entry_time[layer] = st.layer_entry_time.get(layer, 0.0) + duration
            st.layer_entry_calls[layer] = st.layer_entry_calls.get(layer, 0) + 1
        self.span_id.append(sid)
        self.span_parent.append(parent[1] if parent is not None else -1)
        self.span_name.append(nid)
        self.span_phase.append(self._phase)
        self.span_raised.append(raised)
        self.span_start.append(start)
        self.span_end.append(end)

    def span_count(self):
        return len(self.span_id)

    def write(self, path):
        """Save every span, in closing order, as a compressed npz archive."""
        np.savez_compressed(
            path, names=np.array(self.names), phases=np.array(PHASES),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            phase=np.frombuffer(self.span_phase, dtype=np.int8),
            raised=np.frombuffer(self.span_raised, dtype=np.int8),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
