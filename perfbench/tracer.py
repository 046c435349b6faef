"""Span tracing of vista from outside the program.

``Tracer.installed()`` replaces every public function and public method of
the layer modules with a timing wrapper, at every name a vista module looks
it up by (``gpm.ttst_sample`` is also ``model.ttst_sample``; ``tpm``'s
``save_trace_json`` is also ``cli.save_trace_json``), and restores the
originals on exit. Spans (name, start, end, parent, operation id) go into
flat in-memory arrays and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "tensor", "attention", "gpm", "model", "tpm",
    "training", "metrics", "data", "params", "cli",
)
NODE_WALK = "tensor.backward"
# Left unwrapped: ``as_tensor`` is the argument coercion inside every engine
# primitive, and ``Tensor``'s methods are operator sugar over the wrapped
# primitives. Wrapping them would triple the span count and add no layer.
UNWRAPPED = {"tensor.as_tensor", "tensor.Tensor"}


def count_graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through recorded parents, root included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.graph_nodes = 0
        self.node_walk_error = None
        self.wrapped: list[str] = []

    # -- recording -----------------------------------------------------------

    def full(self) -> bool:
        return len(self.start) >= self.max_spans

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        sid = self._name_id(name)
        rec = self
        walk_nodes = name == NODE_WALK

        def traced(*args, **kwargs):
            if walk_nodes and args:
                rec._walk(args[0])
            i = len(rec.start)
            rec.name.append(sid)
            rec.parent.append(rec._stack[-1])
            rec.op.append(rec.current_op)
            rec.end.append(0.0)
            rec._stack.append(i)
            rec.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[i] = time.perf_counter()
                rec._stack.pop()

        functools.update_wrapper(traced, fn)
        return traced

    def _walk(self, root):
        try:
            self.graph_nodes += count_graph_nodes(root)
        except AttributeError as exc:  # the engine no longer exposes _parents
            self.node_walk_error = str(exc)

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function and method of the layer modules."""
        patches = self._plan()
        for owner, attr, _original, replacement in patches:
            setattr(owner, attr, replacement)
        try:
            yield self
        finally:
            for owner, attr, original, _replacement in reversed(patches):
                setattr(owner, attr, original)

    def _plan(self):
        vista_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "vista" or n.startswith("vista."))
        ]
        patches = []
        wrappers = {}
        self.wrapped = []
        for layer in LAYERS:
            module = sys.modules.get(f"vista.{layer}")
            if module is None:
                continue
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if f"{layer}.{attr}" in UNWRAPPED:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        patches.extend(self._plan_class(obj, layer))
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(obj, name))
                    self.wrapped.append(name)
        # Rebind each wrapped function at every name a vista module uses for it.
        for module in vista_modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    patches.append((module, attr, obj, wrappers[id(obj)][1]))
        return patches

    def _plan_class(self, cls, layer):
        patches = []
        for attr, raw in vars(cls).items():
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                replacement = self._wrap(raw, name)
            else:
                continue
            patches.append((cls, attr, raw, replacement))
            self.wrapped.append(name)
        return patches

    # -- reduction -----------------------------------------------------------

    def arrays(self):
        n = len(self.start)
        return (
            np.frombuffer(self.name, dtype=np.int32, count=n),
            np.frombuffer(self.parent, dtype=np.int32, count=n),
            np.frombuffer(self.op, dtype=np.int32, count=n),
            np.frombuffer(self.start, dtype=np.float64, count=n),
            np.frombuffer(self.end, dtype=np.float64, count=n),
        )

    def summary(self, ops) -> "SpanSummary":
        return SpanSummary(self, ops)

    def dump(self, path):
        name, parent, op, start, end = self.arrays()
        np.savez_compressed(
            path, name=name, parent=parent, op=op, start=start, end=end,
            names=np.array(json.dumps(self.names)),
        )


class Unwrapped(LookupError):
    """A metric names a function that is no longer there to wrap."""


class SpanSummary:
    """Per-name counts, inclusive and self times over a set of operations."""

    def __init__(self, tracer: Tracer, ops):
        name, parent, op, start, end = tracer.arrays()
        keep = np.isin(op, np.asarray(list(ops), dtype=np.int32))
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        self._names = {n: i for i, n in enumerate(tracer.names)}
        self._wrapped = set(tracer.wrapped)
        self._name, self._start, self._end = name[keep], start[keep], end[keep]
        self._dur, self._self = dur[keep], self_time[keep]
        self._root = ~has_parent[keep]

    def _mask(self, name):
        if name not in self._wrapped:
            raise Unwrapped(name)
        return self._name == self._names[name]

    def count(self, name) -> int:
        return int(self._mask(name).sum())

    def inclusive(self, name, inside: str | None = None) -> float:
        """Seconds inside ``name``, counting a recursive call once; with
        ``inside``, only spans that start within a span of that name."""
        mask = self._mask(name)
        starts, ends = self._start[mask], self._end[mask]
        if inside is not None:
            outer = self._mask(inside)
            if not outer.any():
                return 0.0
            o_start, o_end = self._start[outer], self._end[outer]
            pos = np.searchsorted(o_start, starts, side="right") - 1
            within = (pos >= 0) & (starts < o_end[np.maximum(pos, 0)])
            starts, ends = starts[within], ends[within]
        if len(starts) == 0:
            return 0.0
        prior_end = np.concatenate([[-np.inf], np.maximum.accumulate(ends)[:-1]])
        outermost = starts >= prior_end
        return float((ends[outermost] - starts[outermost]).sum())

    def self_time(self, prefix) -> float:
        """Self seconds of every span whose name starts with ``prefix``."""
        ids = [i for n, i in self._names.items() if n.startswith(prefix)]
        if not ids:
            raise Unwrapped(prefix)
        return float(self._self[np.isin(self._name, ids)].sum())

    def root_time(self) -> float:
        return float(self._dur[self._root].sum())

    def n_spans(self) -> int:
        return len(self._dur)
