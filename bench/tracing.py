"""Spans and counters recorded around the public functions of each defosc layer.

The tracer replaces every public function of the layer modules at every
module attribute through which it is reached (``defosc.coherent.build_fock``
as well as ``defosc.fock.build_fock``), so calls between layers are seen
without touching the package source.  ``restore()`` puts the originals back.

A span is (name, start, end, parent, operation id); spans are kept in
compact arrays in memory and written out once, at the end of the run.
``scheme.phi`` is counted but gets no span: it is called millions of times
and a span per call would dominate what it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = ("scheme", "series", "fock", "coherent", "calculus", "verify", "cli")

# functions whose self time is reported on its own, under its dotted name
KEY_FUNCTIONS = (
    "scheme.parse_scheme",
    "scheme.phi_factorial",
    "scheme.nonlinearity_f",
    "series.phi_exp_series",
    "series.tsallis_exp_closed",
    "fock.build_fock",
    "fock.commutator_residual",
    "fock.hamiltonian",
    "fock.state_from_vacuum",
    "fock.spectrum_report",
    "fock.energy_level",
    "coherent.coherent_state",
    "coherent.eigen_residual",
    "coherent.expected_n",
    "calculus.tsallis_derivative_quadrature",
    "calculus.jackson_derivative",
    "verify.run_suite",
    "cli.main",
)

COUNT_ONLY = {"scheme.phi"}

# spans that allocate dense arrays; tracemalloc peaks are taken inside them
MEMORY_SPANS = {
    "fock.build_fock",
    "fock.commutator_residual",
    "fock.hamiltonian",
    "fock.state_from_vacuum",
    "coherent.coherent_state",
    "coherent.eigen_residual",
    "coherent.expected_n",
}


def self_times(parents, durations):
    """Each span's duration minus the durations of its direct children.

    parents[i] is the index of span i's parent, or -1 for a root span.
    """
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(durations, dtype=float)
    out = durations.copy()
    child = parents >= 0
    np.subtract.at(out, parents[child], durations[child])
    return out


def _public_functions():
    """Map id(function) -> (dotted name, function) for every layer's public API."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"defosc.{layer}")
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[id(obj)] = (f"{layer}.{attr}", obj)
    return found


class Tracer:
    """Installs wrappers, records spans and counters, and removes itself."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.peak = {}  # span index -> peak traced bytes inside it
        self.counters: dict[str, float] = {}
        self.op_id = -1
        self._stack: list[list] = []  # [span index, max peak seen by children, base]
        self._memory_depth = 0  # open memory spans; tracemalloc runs only inside them
        self._patched: list[tuple[object, str, object]] = []
        self._observers = {}

    # --- counters ---------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def high(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def observe(self, name: str, fn) -> None:
        """Call fn(args, kwargs, result) after each successful call of name."""
        self._observers[name] = fn

    # --- install / restore --------------------------------------------------

    def install(self) -> None:
        import defosc

        public = _public_functions()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in public.items()}
        modules = [defosc] + [importlib.import_module(f"defosc.{m}") for m in LAYERS]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        if self._memory_depth:
            tracemalloc.stop()
            self._memory_depth = 0
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _name(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            key = f"{name}_evals"
            layer = name.split(".")[0]
            counters = self.counters
            err_key = f"{layer}.errors"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[key] = counters.get(key, 0) + 1
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    # counted here only when no span of the same layer will
                    # see the exception leave it
                    if self._layer_of_top() != layer:
                        counters[err_key] = counters.get(err_key, 0) + 1
                    raise

            return counted

        nid = self._name(name)
        track_memory = name in MEMORY_SPANS
        clock = time.perf_counter
        observers = self._observers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.failed.append(0)
            entry = [idx, 0]
            if track_memory:
                if self._memory_depth == 0:
                    tracemalloc.start()
                cur, peak = tracemalloc.get_traced_memory()
                if self._stack:
                    self._stack[-1][1] = max(self._stack[-1][1], peak)
                tracemalloc.reset_peak()
                entry.append(cur)
                self._memory_depth += 1
            self._stack.append(entry)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = clock()
                self.failed[idx] = 1
                self._close(entry, track_memory)
                raise
            self.end[idx] = clock()
            self._close(entry, track_memory)
            observer = observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    def _layer_of_top(self) -> str:
        if not self._stack:
            return ""
        return self.names[self.name_id[self._stack[-1][0]]].split(".")[0]

    def _close(self, entry, track_memory) -> None:
        self._stack.pop()
        peak = entry[1]
        if track_memory:
            peak = max(tracemalloc.get_traced_memory()[1], peak)
            self.peak[entry[0]] = peak - entry[2]
            self._memory_depth -= 1
            if self._memory_depth == 0:
                tracemalloc.stop()
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)

    # --- results ------------------------------------------------------------

    def spans(self):
        """Spans as (name, start, end, parent, op id, failed) tuples."""
        return [
            (self.names[n], s, e, p, o, f)
            for n, s, e, p, o, f in zip(
                self.name_id, self.start, self.end, self.parent, self.op, self.failed
            )
        ]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\tfailed\n")
            for row in self.spans():
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\t%d\n" % row)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, total, self and error figures, plus key functions."""
        names = np.asarray([n.split(".")[0] for n in self.names] + [""])
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        failed = np.asarray(self.failed, dtype=bool)
        dur = np.asarray(self.end) - np.asarray(self.start)
        own = self_times(parent, dur)
        layer = names[nid]
        # the empty name at the end of `names` stands for "no parent"
        parent_layer = names[np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)]
        # a layer's total counts only spans entered from another layer, so
        # nested calls inside one layer are not counted twice
        entry = parent_layer != layer
        out = {}
        for lay in LAYERS:
            mask = layer == lay
            out[f"{lay}.calls"] = int(mask.sum())
            out[f"{lay}.total_s"] = float(dur[mask & entry].sum())
            out[f"{lay}.self_s"] = float(own[mask].sum())
            out[f"{lay}.errors"] = int((mask & entry & failed).sum()) + int(
                self.counters.get(f"{lay}.errors", 0)
            )
        by_name = {name: i for i, name in enumerate(self.names)}
        for key in KEY_FUNCTIONS:
            i = by_name.get(key)
            out[f"{key}.self_s"] = float(own[nid == i].sum()) if i is not None else 0.0
        quad = by_name.get("calculus.tsallis_derivative_quadrature")
        out["calculus.quad_errors"] = int((failed & (nid == quad)).sum()) if quad is not None else 0
        for lay in ("fock", "coherent"):
            peaks = [b for i, b in self.peak.items() if layer[i] == lay]
            out[f"{lay}.peak_alloc_mb"] = max(peaks, default=0) / 2**20
        return out

