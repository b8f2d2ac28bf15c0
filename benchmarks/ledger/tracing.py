"""Spans recorded from the benchmark's side of each layer boundary.

The ledger does not instrument the program: a traced run wraps the
*public* functions of each layer (``Broker.execute``,
``HnswIndex.search_batch``, ``Scorer.score_pairs``, ...) with a timer,
keeps the spans in memory and writes them out when the run ends.  Every
end-to-end number is measured with the wrappers uninstalled; the traced
run reports how much they cost (``trace.overhead_ratio``).

A span is ``[name, start, end, parent, request]``; ``parent`` is the
span object that was open on the same thread when it started.  Work the
broker hands to its fan-out event loop runs on another thread with no
open span, so it is parented to the request in flight (there is exactly
one: the workloads are closed loop, one client).

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (children may overlap: two shard RPCs in
flight at once cover their union, not their sum).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from benchmarks.ledger import estimator

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._local = threading.local()
        self._in_flight: list | None = None
        self._requests = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------------
    def _open(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        is_root = False
        if stack:
            parent = stack[-1]
        elif threading.current_thread() is threading.main_thread():
            parent = None
            is_root = True
            self._requests += 1
        else:
            parent = self._in_flight
        request = self._requests if parent is None else parent[REQUEST]
        span = [name, time.perf_counter(), None, parent, request]
        if is_root:
            self._in_flight = span
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Time every call of ``owner.attribute`` as a span called ``name``."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(span)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def wrap_async(self, owner, attribute: str, name: str) -> None:
        """Coroutine twin of :meth:`wrap`.

        Coroutines of one event loop interleave on one thread, so these
        spans bypass the per-thread stack: their parent is always the
        request in flight and they have no children of their own.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        async def traced(*args, **kwargs):
            if not self.enabled:
                return await original(*args, **kwargs)
            parent = self._in_flight
            span = [
                name,
                time.perf_counter(),
                None,
                parent,
                parent[REQUEST] if parent is not None else 0,
            ]
            self.spans.append(span)
            try:
                return await original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def mark(self) -> int:
        """Position in the span list; pass to the analyses as ``since``."""
        return len(self.spans)

    # -- analysis ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write every span as JSON (parents become span indices)."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        rows = [
            {
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "parent": index.get(id(span[PARENT])),
                "request": span[REQUEST],
            }
            for span in self.spans
        ]
        Path(path).write_text(json.dumps(rows), encoding="utf-8")


def to_reference(
    spans: list[list], calib_times, calib_durations
) -> list[list]:
    """Copies of ``spans`` with every duration in reference time.

    Each request is stretched about its root span's start by the
    calibration level measured around that request, so nesting and
    overlaps keep their proportions.
    """
    roots: dict[int, list] = {}

    def root_of(span: list) -> list:
        found = roots.get(id(span))
        if found is None:
            parent = span[PARENT]
            found = span if parent is None else root_of(parent)
            roots[id(span)] = found
        return found

    finished = [span for span in spans if span[END] is not None]
    tops = {id(root_of(span)): root_of(span) for span in finished}
    mids = [0.5 * (top[START] + top[END]) for top in tops.values()]
    levels = estimator.local_levels(calib_times, calib_durations, mids)
    scale = {
        key: estimator.REFERENCE_S / level
        for key, level in zip(tops, np.atleast_1d(levels))
    }
    copies: dict[int, list] = {}
    out = []
    for span in finished:
        top = root_of(span)
        factor, origin = scale[id(top)], top[START]
        copy = [
            span[NAME],
            origin + (span[START] - origin) * factor,
            origin + (span[END] - origin) * factor,
            None,
            span[REQUEST],
        ]
        copies[id(span)] = copy
        out.append(copy)
    for span, copy in zip(finished, out):
        if span[PARENT] is not None:
            copy[PARENT] = copies.get(id(span[PARENT]))
    return out


def covered(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = low
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, high)
        if end > start:
            total += end - start
            edge = end
    return total


def children_of(spans: list[list]) -> dict[int, list[list]]:
    """``id(parent) -> child spans`` for the given spans."""
    table: dict[int, list[list]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            table[id(span[PARENT])].append(span)
    return table


def self_times(spans: list[list]) -> dict[int, dict[str, float]]:
    """``request -> {span name: self seconds}`` over finished spans."""
    children = children_of(spans)
    table: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span[END] is None:
            continue
        below = covered(
            [
                (child[START], child[END])
                for child in children.get(id(span), ())
                if child[END] is not None
            ],
            span[START],
            span[END],
        )
        table[span[REQUEST]][span[NAME]] += span[END] - span[START] - below
    return table


def durations(spans: list[list], name: str) -> dict[int, float]:
    """``request -> seconds covered by spans called name`` (union)."""
    grouped: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[NAME] == name and span[END] is not None:
            grouped[span[REQUEST]].append((span[START], span[END]))
    return {
        request: covered(intervals, float("-inf"), float("inf"))
        for request, intervals in grouped.items()
    }
