"""In-memory spans around the package's layer boundaries.

A span is (name, start, end, parent).  Spans are appended to flat arrays
while the run executes and written out once it ends.  Wrappers are
installed on module attributes from the outside, so the package itself is
unchanged and pays nothing when the benchmark runs untraced.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (calls are synchronous), so the children of a span
    cover disjoint parts of its interval.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> float:
        now = time.perf_counter()
        self.end[idx] = now
        self._stack.pop()
        return now - self.start[idx]

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def wrap(self, name: str, fn, on_result=None):
        """`fn` with a span per call; `on_result(args, kwargs, result)` counts."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def durations(self, name: str) -> np.ndarray:
        """Inclusive duration of every span called `name`, in order."""
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(0)
        sel = np.asarray(self.name_id) == nid
        return (np.asarray(self.end) - np.asarray(self.start))[sel]

    def calls(self, name: str) -> int:
        return len(self.durations(name))

    def self_seconds(self) -> dict[str, float]:
        """Self time summed per span name."""
        if not self.start:
            return {}
        own = self_times(self.start, self.end, self.parent)
        per_name = np.bincount(np.asarray(self.name_id), weights=own, minlength=len(self.names))
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent),
        )


@contextmanager
def patched(targets):
    """Temporarily replace module attributes: targets is [(module, attr, new)]."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, new in targets:
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)
