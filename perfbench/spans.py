"""In-memory span recorder that wraps library functions from the outside.

A traced run installs a wrapper around each listed function, records one
span per call (function, enclosing span, item, start, end) in compact
arrays, and removes every wrapper afterwards, so the library itself is never
edited and untraced runs carry no tracing code at all.  Spans are folded into
per-function totals only when the run ends:

- ``calls``: number of spans;
- ``total_s``: summed duration of the outermost span of each function, so a
  recursive call is not counted twice;
- ``self_s``: summed duration minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

OUTSIDE = -1  # item id of spans recorded during set-up or the correctness phase


@dataclass(frozen=True)
class Target:
    """One wrapped function.

    ``label`` names the metrics, ``module``/``qualname`` locate the object,
    and ``items_only`` restricts the totals to spans inside timed items (the
    set-up and correctness-phase layers count every span instead).
    """

    label: str
    module: str
    qualname: str
    items_only: bool = True
    counter: Callable[..., int] | None = None  # extra count from the call's arguments


class SpanRecorder:
    def __init__(self) -> None:
        self.targets: list[Target] = []
        self._ids: dict[str, int] = {}
        self.fn = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.errors: list[tuple[int, str]] = []  # (span index, exception class name)
        self.counts: dict[str, int] = {}
        self.item_id = OUTSIDE
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _open(self, fid: int) -> int:
        index = len(self.fn)
        self.fn.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.item_id)
        self.outer.append(self._active[fid] == 0)
        self.end.append(0.0)
        self._active[fid] += 1
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        self._active[self.fn[index]] -= 1

    def _register(self, target: Target) -> int:
        self._ids[target.label] = len(self.targets)
        self.targets.append(target)
        self._active.append(0)
        return self._ids[target.label]

    @contextmanager
    def span(self, label: str, item_id: int = OUTSIDE):
        """A root span opened by the benchmark itself, e.g. one timed item."""
        fid = self._ids[label] if label in self._ids else self._register(Target(label, "", label))
        previous, self.item_id = self.item_id, item_id
        index = self._open(fid)
        try:
            yield
        finally:
            self._close(index)
            self.item_id = previous

    def _wrapper(self, fid: int, fn: Callable, counter: Callable[..., int] | None) -> Callable:
        recorder = self
        label = self.targets[fid].label

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                recorder.counts[label] = recorder.counts.get(label, 0) + counter(*args, **kwargs)
            index = recorder._open(fid)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                recorder.errors.append((index, type(exc).__name__))
                raise
            finally:
                recorder._close(index)

        return wrapper

    # -- installing and removing wrappers -------------------------------------------

    @contextmanager
    def installed(self, package: str, targets: list[Target]):
        """Wrap each target where it is defined and wherever a module of the
        package binds the same function object by name; unwrap on exit."""
        try:
            self._install(package, targets)
            yield self
        finally:
            while self._patches:
                holder, attr, original = self._patches.pop()
                setattr(holder, attr, original)

    def _install(self, package: str, targets: list[Target]) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == package or name.startswith(package + ".")]
        for target in targets:
            fid = self._register(target)
            module = sys.modules[target.module]
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrapper(fid, original, target.counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(fid, original, target.counter)
            for holder in modules:
                for key in [k for k, v in vars(holder).items() if v is original]:
                    self._patch(holder, key, original, wrapper)

    def _patch(self, holder: object, attr: str, original: object, wrapper: object) -> None:
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, original))

    # -- folding spans into totals ------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per wrapped function."""
        n = len(self.fn)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {t.label: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for t in self.targets if t.module}
        for i in range(n):
            target = self.targets[self.fn[i]]
            if not target.module or (target.items_only and self.item[i] == OUTSIDE):
                continue
            dur = self.end[i] - self.start[i]
            row = out[target.label]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if self.outer[i]:
                row["total_s"] += dur
        return out

    def raised(self, exception_name: str, module: str) -> int:
        """Exceptions of one class that escaped a function of ``module``
        into a caller outside it, i.e. counted once per escape."""
        hits = 0
        for index, name in self.errors:
            if name != exception_name or self.targets[self.fn[index]].module != module:
                continue
            p = self.parent[index]
            if p < 0 or self.targets[self.fn[p]].module != module:
                hits += 1
        return hits
