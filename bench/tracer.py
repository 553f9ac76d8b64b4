"""Span tracer that wraps the library's public functions from outside.

Nothing in `src/` changes.  `Tracer.install()` replaces every public function
of the traced modules with a wrapper, in every traced module that binds it by
name (`protocol` binds `optics.coherent_outcome_probs`, `keyrate` binds
`protocol.loss_adjusted_table`, and so on), and `uninstall()` puts the
originals back.  Each call records one span: name, start, end, parent span and
the op it belongs to.  Spans stay in memory until `write_spans()`.

Self time is a span's duration minus the durations of its direct children;
children run strictly inside their parent on this single thread, so that is
the part of the interval that no child span covers.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

TRACED_MODULES = ("cli", "config", "keyrate", "protocol", "optics", "decoy", "hom")

# Functions whose argument tuples are recorded, for the `distinct_ratio` counters.
DISTINCT_ARGS = frozenset({"protocol.loss_adjusted_table", "keyrate.evaluate_point"})

OP_SPAN = "bench.op"
_NO_PARENT = -1


def _freeze(value, memo: dict):
    """A hashable value that equals another's exactly when the arguments do.

    `memo` maps id() of dataclass instances already frozen; the caller keeps
    every instance alive while the memo is in use, so ids are not reused.
    """
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, value.tobytes())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        key = id(value)
        if key not in memo:
            memo[key] = (type(value).__qualname__,) + tuple(
                _freeze(getattr(value, f.name), memo) for f in dataclasses.fields(value))
        return memo[key]
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v, memo) for v in value)
    if isinstance(value, dict):
        return tuple((_freeze(k, memo), _freeze(v, memo)) for k, v in value.items())
    if callable(value):
        return getattr(value, "__qualname__", repr(value))
    return value


class Tracer:
    def __init__(self):
        self.modules = {name: sys.modules[f"mdiqkd.{name}"] for name in TRACED_MODULES}
        self.modules[""] = sys.modules["mdiqkd"]   # the package re-exports names too
        self.names: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        # One entry per span, in the order the spans start.
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [_NO_PARENT]
        self._op = -1
        self.arg_keys: dict[str, set] = {name: set() for name in DISTINCT_ARGS}
        self._pending_args: dict[str, list] = {name: [] for name in DISTINCT_ARGS}
        self.clamp_events = 0
        self._op_name = self._name_index(OP_SPAN)
        self._discover()

    # -- wrapping ---------------------------------------------------------

    def _discover(self) -> None:
        originals: dict[int, tuple[str, object]] = {}
        for layer in TRACED_MODULES:
            module = self.modules[layer]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                originals[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self._wrap(self._name_index(name), name, fn)
                    for key, (name, fn) in sorted(originals.items(), key=lambda kv: kv[1][0])}
        for module in self.modules.values():
            for attr, obj in vars(module).items():
                if id(obj) in wrappers:
                    self._patches.append((module, attr, obj, wrappers[id(obj)]))

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, index: int, name: str, fn):
        clock = time.perf_counter_ns
        pending = self._pending_args.get(name)
        counts_clamps = name == "decoy.estimate_table"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.span_name)
            self.span_name.append(index)
            self.span_parent.append(self._stack[-1])
            self.span_op.append(self._op)
            self.span_end.append(0)
            if pending is not None:
                pending.append((args, kwargs))
            self._stack.append(span)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[span] = clock()
                self._stack.pop()
            if counts_clamps:
                self.clamp_events += len(result.clamp_events)
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # -- ops --------------------------------------------------------------

    def call_op(self, op_index: int, fn, *args):
        """Run fn(*args) as op `op_index`, under a root span of its own."""
        self._op = op_index
        span = len(self.span_name)
        self.span_name.append(self._op_name)
        self.span_parent.append(_NO_PARENT)
        self.span_op.append(op_index)
        self.span_end.append(0)
        self._stack = [_NO_PARENT, span]
        self.span_start.append(time.perf_counter_ns())
        try:
            return fn(*args)
        finally:
            self.span_end[span] = time.perf_counter_ns()
            self._stack = [_NO_PARENT]
            # Arguments are compared after the op, so that freezing them adds
            # nothing to any span.
            memo: dict = {}
            for name, pending in self._pending_args.items():
                self.arg_keys[name].update(
                    (op_index, _freeze(args, memo), _freeze(kwargs, memo))
                    for args, kwargs in pending)
            for pending in self._pending_args.values():
                pending.clear()
            self._op = -1

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.span_name, dtype=np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        duration = (end - start).astype(float) * 1e-9
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=len(duration))
        return {"name": name, "parent": parent, "duration": duration,
                "self": duration - children}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for span, (name, parent, op, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_op,
                    self.span_start, self.span_end)):
                fh.write(f"{op},{span},{parent},{self.names[name]},{start},{end}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-op counts and times by function and by module, from the recorded spans."""
    spans = tracer.arrays()
    name, parent = spans["name"], spans["parent"]
    size = len(tracer.names)
    calls_by = np.bincount(name, minlength=size)
    self_by = np.bincount(name, weights=spans["self"], minlength=size)
    incl_by = np.bincount(name, weights=spans["duration"], minlength=size)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    index = {n: i for i, n in enumerate(tracer.names)}

    def calls(fn: str) -> int:
        return int(calls_by[index[fn]]) if fn in index else 0

    def self_s(fn: str) -> float:
        return float(self_by[index[fn]]) if fn in index else 0.0

    def incl_s(fn: str) -> float:
        return float(incl_by[index[fn]]) if fn in index else 0.0

    def children_of(parent_fn: str, *child_fns: str) -> int:
        if parent_fn not in index:
            return 0
        wanted = [index[c] for c in child_fns if c in index]
        return int(np.count_nonzero((parent_name == index[parent_fn]) & np.isin(name, wanted)))

    def distinct(fn: str) -> float:
        return _ratio(len(tracer.arg_keys[fn]), calls(fn))

    ops = calls(OP_SPAN)
    coherent = "optics.coherent_outcome_probs"
    totals = {
        f"{coherent}.calls": (calls(coherent), "count"),
        f"{coherent}.self_s": (self_s(coherent), "s"),
        "protocol.loss_adjusted_table.calls": (calls("protocol.loss_adjusted_table"), "count"),
        "protocol.loss_adjusted_table.self_s": (self_s("protocol.loss_adjusted_table"), "s"),
        "keyrate.optimize_intensity.calls": (calls("keyrate.optimize_intensity"), "count"),
        "keyrate.find_cutoff.probes": (children_of(
            "keyrate.find_cutoff", "keyrate.optimize_intensity", "keyrate.evaluate_point"),
            "count"),
        "keyrate.evaluate_point.calls": (calls("keyrate.evaluate_point"), "count"),
        "optics.fock_outcome_probs.calls": (calls("optics.fock_outcome_probs"), "count"),
        "optics.fock_outcome_probs.self_s": (self_s("optics.fock_outcome_probs"), "s"),
        "protocol.build_yield_error_table.self_s": (
            self_s("protocol.build_yield_error_table"), "s"),
        "decoy.estimate_table.s": (incl_s("decoy.estimate_table"), "s"),
        "decoy.invert_poisson.calls": (calls("decoy.invert_poisson"), "count"),
        "decoy.invert_poisson.self_s": (self_s("decoy.invert_poisson"), "s"),
        "decoy.observed_from_model.s": (incl_s("decoy.observed_from_model"), "s"),
        "decoy.clamp_events": (tracer.clamp_events, "count"),
        "cli.build_parser.self_s": (self_s("cli.build_parser"), "s"),
        "cli.resolve_config.self_s": (self_s("cli.resolve_config"), "s"),
        "cli.cmd.self_s": (sum(self_s(n) for n in index if n.startswith("cli.cmd_")), "s"),
        "cli.bytes_written": (bytes_written, "B"),
        "hom.coincidence_point.calls": (calls("hom.coincidence_point"), "count"),
        "hom.coincidence_point.self_s": (self_s("hom.coincidence_point"), "s"),
        "bench.op.s": (incl_s(OP_SPAN), "s"),
        "trace.spans": (len(name) - ops, "count"),
    }
    for layer in TRACED_MODULES:
        totals[f"{layer}.self_s"] = (
            sum(self_s(n) for n in index if n.startswith(f"{layer}.")), "s")
    metrics = {key: (_ratio(value, ops), unit) for key, (value, unit) in totals.items()}
    metrics.update({
        f"{coherent}.mean_us": (_ratio(incl_s(coherent), calls(coherent)) * 1e6, "us"),
        "protocol.loss_adjusted_table.distinct_ratio": (
            distinct("protocol.loss_adjusted_table"), "ratio"),
        "keyrate.evaluate_point.distinct_ratio": (distinct("keyrate.evaluate_point"), "ratio"),
        "keyrate.evals_per_optimize": (_ratio(
            children_of("keyrate.optimize_intensity", "keyrate.evaluate_point"),
            calls("keyrate.optimize_intensity")), "count"),
        "trace.ops": (ops, "count"),
    })
    return metrics
