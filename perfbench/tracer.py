"""In-memory span tracer for the benchmark.

The tracer replaces library callables by attribute with wrappers that record
one span per call (name, parent span, start, end) and update named counters.
Spans stay in memory until ``reset``; ``close`` puts every replaced attribute
back. A span's self time is its duration minus the durations of its direct
children. The library runs on one thread, so children of one span never
overlap and their durations add up to the part of the span they cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from typing import Callable

# count(counters, args, kwargs, result) runs after each wrapped call returns.
CountFn = Callable[[dict, tuple, dict, object], None]

_MISSING = object()


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, parent, self.clock(), None])

    def end(self) -> None:
        self.spans[self._open.pop()][3] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def reset(self) -> None:
        """Drop recorded spans and counters; no span may be open."""
        if self._open:
            raise RuntimeError("cannot reset while a span is open")
        self.spans.clear()
        self.counters.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total (inclusive) seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, _, start, end), child in zip(self.spans, covered):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child
        return out

    # -- wrapping ----------------------------------------------------------

    def patch(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until ``close``."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrapper(self, func: Callable, name: str, count: CountFn | None = None) -> Callable:
        """A callable that runs ``func`` inside a span called ``name``."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def wrap(self, owner: object, attr: str, name: str, count: CountFn | None = None) -> None:
        """Trace calls made through ``owner.attr`` (a class method or a module function)."""
        self.patch(owner, attr, self.wrapper(getattr(owner, attr), name, count))

    def wrap_everywhere(
        self, module: object, attr: str, name: str, count: CountFn | None = None
    ) -> None:
        """Trace a module function at every module of its package that holds it.

        Modules that import a function by name keep their own reference to
        it, so each such reference is replaced, under whatever name it has.
        """
        original = getattr(module, attr)
        package = module.__name__.split(".")[0]
        traced = self.wrapper(original, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, key, traced)

    def close(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
