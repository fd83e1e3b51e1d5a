"""In-memory span tracer that wraps fvtensor's public functions from outside.

Every public function of the traced modules is replaced, in every
``fvtensor`` module namespace that bound it, by a wrapper that records a
span ``(name, start, end, parent, phase)``.  Public methods of the sample
store and the inner product are wrapped on their classes, and the entry
oracles the library builds get their ``fn`` wrapped as ``sampler.oracle``.
Self time is derived afterwards: a span's duration minus the part of it
that its child spans cover.  ``uninstall`` restores every original.
"""

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("hilbert", "bmatrix", "btensor", "sampler", "aca", "rom",
          "problems", "fvt")
METHODS = {
    ("sampler", "CachedOracle"): ("get", "get_many", "gather"),
    ("hilbert", "InnerProduct"): ("apply", "pair", "norms"),
}
# Sample-store reads that count requested entries and misses; ``gather``
# reads through ``get_many`` and is not counted twice.
COUNTED = {"get": False, "get_many": True}


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = None
        self.requested = 0
        self.misses = 0
        self._stack = []
        self._undo = []

    def call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.phase)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _counted(self, name, fn, batch):
        """Span wrapper for a sample-store read that also counts misses."""

        def traced(store, *args, **kwargs):
            before = store.count
            out = self.call(name, fn, (store,) + args, kwargs)
            self.requested += len(out) if batch else 1
            self.misses += store.count - before
            return out

        traced.__name__ = fn.__name__
        return traced

    def _oracle_factory(self, fn):
        """Wrap a function that returns an EntryOracle so its fn is traced."""

        def traced_factory(*args, **kwargs):
            oracle = fn(*args, **kwargs)
            oracle.fn = self.wrap("sampler.oracle", oracle.fn)
            return oracle

        return traced_factory

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and method of the traced layers."""
        mods = {name: sys.modules[f"fvtensor.{name}"] for name in LAYERS}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    inner = obj
                    if (short, attr) == ("problems", "make_oracle"):
                        inner = self._oracle_factory(obj)
                    wrapped[obj] = self.wrap(f"{short}.{attr}", inner)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "fvtensor"
                                   or name.startswith("fvtensor.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])

        for (short, cls_name), methods in METHODS.items():
            cls = getattr(mods[short], cls_name)
            for m in methods:
                fn = cls.__dict__[m]
                name = f"{short}.{m}"
                if short == "sampler" and m in COUNTED:
                    self._set(cls, m, self._counted(name, fn, COUNTED[m]))
                else:
                    self._set(cls, m, self.wrap(name, fn))

        entry = mods["sampler"].EntryOracle
        from_tensor = entry.__dict__["from_tensor"].__func__
        self._set(entry, "from_tensor",
                  classmethod(self._oracle_factory(from_tensor)))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per-span self time: duration minus the union of child intervals."""
        children = defaultdict(list)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((t0, t1))
        out = []
        for sid, (_, t0, t1, _, _) in enumerate(self.spans):
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out.append((t1 - t0) - covered)
        return out

    def layer_stats(self, self_times, phases=None):
        """``{name: [calls, self_s]}`` over the spans of the given phases."""
        stats = defaultdict(lambda: [0, 0.0])
        for span, self_s in zip(self.spans, self_times):
            if phases is None or span[4] in phases:
                st = stats[span[0]]
                st[0] += 1
                st[1] += self_s
        return stats

    def write(self, path, self_times):
        with open(path, "w") as f:
            for sid, (span, self_s) in enumerate(zip(self.spans, self_times)):
                name, t0, t1, parent, phase = span
                f.write(json.dumps({"id": sid, "name": name, "start": t0,
                                    "end": t1, "parent": parent,
                                    "phase": phase, "self": self_s}) + "\n")
