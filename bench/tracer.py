"""Spans around the public functions of the package, from outside it.

``Tracer.install`` replaces every public function of each layer module by a
wrapper at every module attribute that binds it (``colouring.find_path`` is
``graphs.find_path``, so both names get the same wrapper), and ``uninstall``
puts the originals back. A span is ``(name, start, end, parent, op)``; spans
stay in memory until the run ends. Observers read a few return values at the
same boundary, for counts such as search nodes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from types import ModuleType
from typing import Any, Callable

Observer = Callable[[tuple, Any, dict], None]

# Constant-time pair arithmetic, called inside loops (lemma3_check makes some
# 140,000 calls a pass): a span costs more than the call and would be charged
# to the caller's self time, so these two stay unwrapped.
UNTRACED = frozenset({"colouring.pair_index", "colouring.pair_count"})


def public_functions(module: ModuleType) -> dict[str, Callable]:
    """Functions (plain or cached) defined in ``module`` under public names."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


class Tracer:
    def __init__(self, layers: dict[str, ModuleType], bindings: list[ModuleType],
                 observers: dict[str, Observer]):
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[ModuleType, str, Callable, Callable]] = []
        wrappers: dict[int, Callable] = {}
        for layer, module in layers.items():
            for name, fn in public_functions(module).items():
                full = f"{layer}.{name}"
                if full in UNTRACED:
                    continue
                wrappers[id(fn)] = self._wrap(full, fn, observers.get(full))
        for module in bindings:
            for attr, obj in vars(module).items():
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj, wrapper))

    def _wrap(self, name: str, fn: Callable, observer: Observer | None) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if observer is not None:
                observer(args, result, counters)
            return result

        return traced

    def install(self) -> None:
        for module, attr, _orig, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, orig, _wrapper in self._patches:
            setattr(module, attr, orig)

    def self_times(self, scale: Callable[[float, float, float], float]
                   ) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: calls, summed self seconds, summed total seconds,
        each span's seconds passed through ``scale(start, end, seconds)``.

        Self time is a span's duration minus that of its direct children;
        calls nest without overlap, so the children never overlap each other.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += scale(start, end, end - start - child[k])
            total_s[name] += scale(start, end, end - start)
        return calls, self_s, total_s

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an ``ancestor`` span above them."""
        spans = self.spans
        hits = 0
        for span in spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    hits += 1
                    break
                parent = spans[parent][3]
        return hits

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
