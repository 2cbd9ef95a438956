"""Span tracer for the benchmark's traced run, built from outside the program.

While installed, the tracer replaces the public entry points of every
settower layer with timing wrappers:

* every public module-level function of hfset, relations, naturals, dyadic,
  reals, countability and cli, under every name a settower module binds it
  to (so ``cli.classify`` and ``countability.pair``, bound with
  ``from ... import``, are wrapped as well as the originals);
* ``HFSet.__init__``, ``CutReal.__init__`` and ``CutReal.query``.

Each call records a span ``[name, parent, start_ns, end_ns, payload]``
whose parent is the span that was open when it started.  Self time is a
span's duration minus the durations of its children.  ``uninstall``
restores every replaced name.

A wrapper is one more Python frame, which would make deep expressions hit
the recursion limit sooner than they do untraced and so change their
output.  Each open span therefore raises the interpreter's recursion limit
by one for as long as it is open.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("hfset", "relations", "naturals", "dyadic", "reals", "countability", "cli")

# Wrapped methods: (layer, class name, method name).
METHODS = (
    ("hfset", "HFSet", "__init__"),
    ("reals", "CutReal", "__init__"),
    ("reals", "CutReal", "query"),
)

# What a span keeps besides its times: the call's result, or its arguments
# and result.  Everything else keeps nothing.
_KEEP_RESULT = {"dyadic"}
_KEEP_CALL = {"hfset.HFSet.__init__", "reals.CutReal.query"}


class Tracer:
    def __init__(self, package: str = "settower"):
        self.package = package
        self.spans = []
        self.top = -1
        self.open = 0
        self.base_limit = sys.getrecursionlimit()
        self._patched = []

    def install(self):
        modules = [sys.modules[f"{self.package}.{layer}"] for layer in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                layer = self._layer_of(value)
                if attr.startswith("_") or layer is None:
                    continue
                if value not in wrappers:
                    name = f"{layer}.{value.__name__}"
                    wrappers[value] = self._wrap(name, value, layer)
                self._patch(module, attr, wrappers[value])
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{self.package}.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._patch(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original, layer))
        self.base_limit = sys.getrecursionlimit()

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        sys.setrecursionlimit(self.base_limit)

    def take(self):
        """Spans recorded since the last take, oldest first."""
        spans = self.spans
        self.spans = []
        self.top = -1
        return spans

    def _layer_of(self, value):
        if not inspect.isfunction(value):
            return None
        prefix, _, layer = value.__module__.rpartition(".")
        if prefix != self.package or layer not in LAYERS:
            return None
        return layer

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn, layer):
        tracer = self
        now = time.perf_counter_ns
        set_limit = sys.setrecursionlimit
        keep_call = name in _KEEP_CALL
        keep_result = layer in _KEEP_RESULT

        def traced(*args, **kwargs):
            parent = tracer.top
            span = [name, parent, 0, 0, None]
            tracer.top = len(tracer.spans)
            tracer.spans.append(span)
            tracer.open += 1
            set_limit(tracer.base_limit + tracer.open)
            span[2] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = now()
                tracer.top = parent
                tracer.open -= 1
                try:
                    set_limit(tracer.base_limit + tracer.open)
                except RecursionError:
                    # Only when the wrapped frame sat exactly at the limit;
                    # the next span boundary lowers it.
                    pass
            if keep_call:
                span[4] = (args, result)
            elif keep_result:
                span[4] = result
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child[span[1]] += span[3] - span[2]
    return [span[3] - span[2] - c for span, c in zip(spans, child)]


def outermost(spans, i: int) -> bool:
    """Whether no ancestor of span i is a span of the same function."""
    name = spans[i][0]
    parent = spans[i][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][1]
    return True
