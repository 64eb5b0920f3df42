"""Span tracing around the package's public functions, and layer metrics.

Tracer.install wraps every function a layer module lists in __all__ at
every place it is bound: the defining module, each sibling module that
imported it by name (harness does `from .sampling import phi_block`)
and the package namespace.  Each call records one span (name, start,
end, parent span) in flat arrays; FourierCoeffs constructions are
counted, per enclosing span, by wrapping the class constructor.
uninstall puts every original back.

The wrappers cost time that would otherwise land in the caller's span:
each child span adds its call and recording cost to its parent, each
counted construction adds its counting cost to the enclosing span.
Tracer.install times both on no-op stand-ins, and Spans subtracts them
from every span that paid them.

Layer metrics are derived afterwards from the spans alone.  A span's
self time is its duration minus the time its child spans cover; a
layer is busy while one of its outermost spans (no ancestor in the same
layer) is open.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import types
from array import array
from collections import Counter

import numpy as np

PACKAGE = "gibbs_dnls"
LAYERS = ("sampling", "spectral", "functionals", "observables", "chaos",
          "flow", "harness")

#: no-op calls timed per repeat when the wrapper cost is calibrated
CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 7

_FFT_WIDTH = {"batch_square": lambda d: 2 * d - 1,
              "batch_cube": lambda d: 3 * d - 2}


def _pow2_at_least(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _sampling_work(args, kwargs, out):
    """(rows, values drawn, bytes, fft points) for a sampling result."""
    if hasattr(out, "coeff_matrix"):         # Ensemble
        out = out.coeff_matrix
    elif hasattr(out, "coeffs"):             # FourierCoeffs
        out = out.coeffs
    if not isinstance(out, np.ndarray):
        return None
    rows = out.shape[0] if out.ndim == 2 else 1
    return rows, out.size, out.nbytes, 0


def _observables_work(name):
    """Rows, bytes at the call boundary and FFT points, from array shapes.

    The FFT kernels transform each row forward and back at the first
    power of two that holds the product's width: 2 * rows * L points.
    """
    width = _FFT_WIDTH.get(name)

    def work(args, kwargs, out):
        rows = args[0] if args else kwargs.get("rows")
        if not isinstance(rows, np.ndarray) or rows.ndim != 2:
            return None
        nbytes = rows.nbytes + (out.nbytes if isinstance(out, np.ndarray) else 0)
        fft = 0 if width is None else \
            2 * rows.shape[0] * _pow2_at_least(width(rows.shape[1]))
        return rows.shape[0], rows.size, nbytes, fft

    return work


class Tracer:
    """In-memory span recorder for one process; single-threaded use only."""

    def __init__(self):
        self.names = []                  # name id -> "layer.function"
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        # constructions directly inside span i at [i + 1]; [0] is outside any span
        self.built = array("q", [0])
        # span -> (rows, values, bytes, fft points), for outermost spans of
        # sampling / observables and for every FFT kernel span
        self.work = {}
        # seconds one child span / one counted construction adds to its
        # parent; measured at each install, as the host's speed drifts
        self.span_cost = self.init_cost = 0.0
        self._stack = [-1]
        self._open = Counter()
        self._patches = []               # (namespace, attribute, original)

    # -- recording ----------------------------------------------------------

    def reset(self):
        """Forget recorded spans and counts; wrappers stay installed."""
        del self.name_id[:], self.parent[:], self.start[:], self.end[:]
        del self.built[1:]
        self.built[0] = 0
        self.work.clear()

    @property
    def coeffs_built(self) -> int:
        return sum(self.built)

    def wrap(self, layer: str, name: str, fn, work=None, always=False):
        """fn wrapped to record a span named layer.name per call.

        work(args, kwargs, result) is evaluated for spans that are
        outermost in their layer, or for every span when always is set.
        """
        qual = f"{layer}.{name}"
        nid = self._name_ids.setdefault(qual, len(self.names))
        if nid == len(self.names):
            self.names.append(qual)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        built, stack, open_, works = self.built, self._stack, self._open, self.work
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ends)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            built.append(0)
            outer = open_[layer] == 0
            open_[layer] += 1
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                open_[layer] -= 1
            if work is not None and (outer or always):
                w = work(args, kwargs, out)
                if w is not None:
                    works[i] = w
            return out

        traced.__wrapped_by_tracer__ = fn
        return traced

    def _counting(self, init):
        """init wrapped to count each construction against the open span."""
        built, stack = self.built, self._stack

        def counting_init(obj, *args, **kwargs):
            built[stack[-1] + 1] += 1
            init(obj, *args, **kwargs)

        return counting_init

    def install(self):
        """Wrap every public layer function wherever the package binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.span_cost, self.init_cost = _calibrate()
        pkg = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        namespaces = [pkg] + list(modules.values())
        wrapped = {}                      # id(original) -> wrapper
        for layer, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not isinstance(fn, types.FunctionType) \
                        or fn.__module__ != mod.__name__:
                    continue
                work = None
                if layer == "sampling":
                    work = _sampling_work
                elif layer == "observables":
                    work = _observables_work(name)
                wrapped[id(fn)] = self.wrap(layer, name, fn, work,
                                            always=name in _FFT_WIDTH)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                w = wrapped.get(id(value))
                if w is not None and w.__wrapped_by_tracer__ is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, w)

        cls = modules["spectral"].FourierCoeffs
        self._patches.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._counting(cls.__init__)
        return self

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- derivation ---------------------------------------------------------

    def spans(self) -> "Spans":
        # np.array copies, so the recording arrays stay resizable
        return Spans(self.names, np.array(self.name_id, dtype=np.int64),
                     np.array(self.parent, dtype=np.int64),
                     np.array(self.start), np.array(self.end), dict(self.work),
                     np.array(self.built[1:], dtype=np.int64),
                     self.span_cost, self.init_cost)


class _Probe:
    def __init__(self):
        pass


def _calibrate() -> tuple:
    """(seconds per child span, seconds per counted construction) the
    wrappers add to the enclosing span, as medians over repeats on no-op
    stand-ins."""
    def noop():
        pass

    n = CALIBRATION_CALLS
    loop = range(n)
    clock = time.perf_counter
    span_costs, init_costs = [], []
    for _ in range(CALIBRATION_REPEATS):
        tr = Tracer()
        wrapped = tr.wrap("harness", "noop", noop)
        t0 = clock()
        for _ in loop:
            noop()
        t1 = clock()
        for _ in loop:
            wrapped()
        t2 = clock()
        recorded = sum(tr.end) - sum(tr.start)
        span_costs.append((t2 - t1 - (t1 - t0) - recorded) / n)

        plain = _Probe.__init__
        t0 = clock()
        for _ in loop:
            _Probe()
        t1 = clock()
        _Probe.__init__ = tr._counting(plain)
        try:
            for _ in loop:
                _Probe()
        finally:
            _Probe.__init__ = plain
        t2 = clock()
        init_costs.append((t2 - t1 - (t1 - t0)) / n)
    return max(statistics.median(span_costs), 0.0), \
        max(statistics.median(init_costs), 0.0)


class Spans:
    """Recorded spans as arrays; parent[i] < i, -1 for a root.

    built[i] counts constructions made directly inside span i.  Durations
    are net of tracing cost: span_cost per child span and init_cost per
    counted construction, summed over the span and its descendants.
    """

    def __init__(self, names, name_id, parent, start, end, work=None,
                 built=None, span_cost=0.0, init_cost=0.0):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.work = work or {}
        n = len(self.parent)
        if np.any(self.parent >= np.arange(n)):
            raise ValueError("a span's parent must precede it")
        has_parent = self.parent >= 0
        children = np.bincount(self.parent[has_parent], minlength=n)[:n]
        built = np.zeros(n) if built is None else np.asarray(built, dtype=np.float64)
        own = span_cost * children + init_cost * built
        self.overhead = own + self._descendant_sum(own)
        self.duration = self.end - self.start - self.overhead
        cover = np.bincount(self.parent[has_parent],
                            weights=self.duration[has_parent], minlength=n)
        # a span that is almost all children can come out below zero by
        # the calibration's error; no span runs for negative time
        self.self_time = np.maximum(self.duration - cover[:n], 0.0)
        layer_of = np.array([LAYERS.index(q.split(".")[0]) for q in self.names]
                            + [-1], dtype=np.int64)
        self.layer = layer_of[self.name_id]

    def _descendant_sum(self, x: np.ndarray) -> np.ndarray:
        """Sum of x over each span's proper descendants."""
        total = np.zeros(len(self.parent))
        p = self.parent.copy()
        live = p >= 0
        while np.any(live):
            np.add.at(total, p[live], x[live])
            p[live] = self.parent[p[live]]
            live = p >= 0
        return total

    def named(self, qual: str) -> np.ndarray:
        if qual not in self.names:
            return np.zeros(len(self.parent), dtype=bool)
        return self.name_id == self.names.index(qual)

    def in_layer(self, layer: str) -> np.ndarray:
        return self.layer == LAYERS.index(layer)

    def below(self, mark: np.ndarray) -> np.ndarray:
        """True for spans with a proper ancestor where mark is True."""
        flag = np.zeros(len(self.parent), dtype=bool)
        p = self.parent.copy()
        live = p >= 0
        while np.any(live):
            flag[live] |= mark[p[live]]
            p[live] = self.parent[p[live]]
            live = p >= 0
        return flag

    def outermost(self, layer: str) -> np.ndarray:
        mark = self.in_layer(layer)
        return mark & ~self.below(mark)

    def total(self, mask: np.ndarray, what: str = "duration") -> float:
        return float(np.sum(getattr(self, what)[mask]))

    def work_sum(self, mask: np.ndarray, field: int) -> int:
        return int(sum(w[field] for i, w in self.work.items() if mask[i]))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: Spans, coeffs_built: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass whose timed phase took wall_s,
    net of tracing cost."""
    m = {}
    ROWS, VALUES, BYTES, FFT = range(4)
    outer = {layer: spans.outermost(layer) for layer in LAYERS}
    for layer in LAYERS:
        m[f"{layer}.self_share"] = _ratio(
            spans.total(spans.in_layer(layer), "self_time"), wall_s)

    s = outer["sampling"]
    m["sampling.calls"] = int(np.sum(s))
    m["sampling.rows"] = spans.work_sum(s, ROWS)
    m["sampling.coeffs"] = spans.work_sum(s, VALUES)
    m["sampling.busy_s"] = spans.total(s)
    m["sampling.ns_per_coeff"] = _ratio(1e9 * m["sampling.busy_s"], m["sampling.coeffs"])

    o = outer["observables"]
    fft = spans.named("observables.batch_square") | spans.named("observables.batch_cube")
    m["observables.calls"] = int(np.sum(o))
    m["observables.rows"] = spans.work_sum(o, ROWS)
    m["observables.busy_s"] = spans.total(o)
    m["observables.fft_points"] = spans.work_sum(fft, FFT)
    m["observables.bytes_moved"] = spans.work_sum(o, BYTES)

    c = spans.in_layer("chaos")
    boot = spans.named("sampling.bootstrap_indices") & spans.below(c)
    m["chaos.calls"] = int(np.sum(outer["chaos"]))
    m["chaos.self_s"] = spans.total(c, "self_time")
    m["chaos.bootstrap_resamples"] = spans.work_sum(boot, ROWS)

    step = spans.named("flow.step")
    rhs = spans.named("flow.rhs_hamiltonian")
    m["flow.evolve_calls"] = int(np.sum(spans.named("flow.evolve")))
    m["flow.steps"] = int(np.sum(step))
    m["flow.rhs_calls"] = int(np.sum(rhs))
    m["flow.rhs_busy_s"] = spans.total(rhs & ~spans.below(rhs))
    m["flow.step_busy_s"] = spans.total(step)
    m["flow.step_self_s"] = spans.total(step, "self_time")

    mul = spans.named("spectral.multiply")
    m["spectral.coeffs_built"] = int(coeffs_built)
    m["spectral.coeffs_built_per_step"] = _ratio(coeffs_built, m["flow.steps"])
    m["spectral.multiply_calls"] = int(np.sum(mul))
    m["spectral.multiply_busy_s"] = spans.total(mul)

    f = outer["functionals"]
    m["functionals.calls"] = int(np.sum(f))
    m["functionals.busy_s"] = spans.total(f)
    m["functionals.under_flow_s"] = spans.total(f & spans.below(step))

    m["harness.run_s"] = spans.total(spans.named("harness.run"))
    m["harness.emit_s"] = spans.total(spans.named("harness.emit"))
    return m
