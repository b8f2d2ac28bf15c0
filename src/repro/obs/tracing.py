"""Sampled request tracing with cross-wire span propagation.

A **trace** is a tree of spans covering one request end to end: broker
side (queue wait, cache, routing, every shard RPC with hedge/failover
attempts as children, merge) and searcher side (decode, descend, beam,
rescore, encode).  The trace context travels in the SEARCH frame header;
the searcher's spans come back in the RESULT header and are spliced
under the broker's RPC-attempt span, so one request yields ONE trace
even across process boundaries.

Tracing is **sampled** (:class:`Tracer`, ``sample_rate``, default 0 =
off -- the serving hot path then never touches a clock) and a
**slow-query log** force-keeps any request whose wall time crosses a
threshold, sampled or not.

Spans are plain dicts -- JSON-safe by construction, which is what lets
them ride the wire protocol's JSON headers untouched::

    {"name": "beam", "start_ms": 1.2, "dur_ms": 3.4,
     "annotations": {...}, "children": [...]}

``start_ms`` is relative to the owning recorder's start (the broker's
trace, or the searcher's per-request recorder); :func:`rebase_spans`
shifts a remote recorder's spans onto the local timeline when splicing.

Searcher-side kernels pick up the active recorder ambiently
(:func:`current_recorder` / :func:`activate`); the broker's fan-out
passes span objects explicitly instead, because its RPCs run on a
separate event-loop thread where context variables do not follow.
"""

from __future__ import annotations

import asyncio
import json
import logging
import random
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar

logger = logging.getLogger("repro.obs.slow_query")


def _new_span(name: str, start_ms: float, annotations: dict) -> dict:
    return {
        "name": name,
        "start_ms": start_ms,
        "dur_ms": 0.0,
        "annotations": annotations,
        "children": [],
    }


def failure_annotations(exc: BaseException) -> dict:
    """What a span (or a trace's root) says about the exception that
    ended it: ``outcome=error`` + ``error=<type>``, or
    ``outcome=cancelled`` for an asyncio cancellation."""
    if isinstance(exc, asyncio.CancelledError):
        return {"outcome": "cancelled"}
    return {"outcome": "error", "error": type(exc).__name__}


def rebase_spans(spans: list[dict], base_ms: float) -> list[dict]:
    """Shift remote spans (and their subtrees) onto a local timeline.

    A remote recorder's ``start_ms`` values are relative to *its* start;
    adding the local parent span's start approximates one shared
    timeline (clock skew only shifts, never reorders, a subtree).
    """
    rebased = []
    for span in spans:
        copy = dict(span)
        copy["start_ms"] = float(span.get("start_ms", 0.0)) + base_ms
        copy["children"] = rebase_spans(span.get("children", []), base_ms)
        rebased.append(copy)
    return rebased


class SpanRecorder:
    """Collects a span tree for one request on one side of the wire.

    ``span()`` is the nested context-manager interface (single-threaded
    use: the searcher's request handler, the broker's request thread);
    ``start_span``/``end_span`` are the explicit-parent interface for
    code running off-thread (the broker's fan-out event loop), where
    nesting-by-stack would race.
    """

    def __init__(self, at: float | None = None) -> None:
        """``at``: the caller's own ``perf_counter`` reading of the
        moment the request began, when that was before it knew it
        wanted a recorder."""
        self._t0 = time.perf_counter() if at is None else at
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def _now_ms(self, at: float | None = None) -> float:
        reading = time.perf_counter() if at is None else at
        return (reading - self._t0) * 1e3

    @contextmanager
    def span(self, name: str, **annotations):
        entry = self.start_span(name, **annotations)
        self._stack.append(entry)
        try:
            yield entry
        finally:
            self._stack.pop()
            self.end_span(entry)

    def start_span(
        self,
        name: str,
        parent: dict | None = None,
        at: float | None = None,
        **annotations,
    ) -> dict:
        """Open a span under ``parent`` (or the current nesting level).

        ``at`` is the caller's own ``perf_counter`` reading of the
        opening edge (:mod:`repro.obs.clock` hands the same reading to
        its other consumers); without it the recorder reads the clock.
        """
        entry = _new_span(name, self._now_ms(at), annotations)
        if parent is not None:
            parent["children"].append(entry)
        elif self._stack:
            self._stack[-1]["children"].append(entry)
        else:
            self.spans.append(entry)
        return entry

    def end_span(self, span: dict, seconds: float | None = None) -> dict:
        """Close ``span``: ``seconds`` long when the caller timed it
        itself, else up to the recorder's own reading of the clock."""
        span["dur_ms"] = (
            self._now_ms() - span["start_ms"]
            if seconds is None
            else seconds * 1e3
        )
        return span

    def attach_remote(self, parent: dict, remote_spans: list[dict]) -> None:
        """Splice another process's spans under a local span."""
        parent["children"].extend(
            rebase_spans(remote_spans, parent["start_ms"])
        )

    def export(self) -> list[dict]:
        return self.spans


class Trace(SpanRecorder):
    """A :class:`SpanRecorder` with an identity and a sampling verdict."""

    def __init__(self, trace_id: str, sampled: bool) -> None:
        super().__init__()
        self.trace_id = trace_id
        self.sampled = sampled
        self.duration_ms: float = 0.0
        #: The root's own annotations: ``outcome=error`` + ``error=<type>``
        #: on a request that raised, empty on one that answered.
        self.annotations: dict = {}

    def context(self) -> dict:
        """The wire form propagated in the SEARCH frame header."""
        return {"id": self.trace_id}

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "sampled": self.sampled,
            "duration_ms": self.duration_ms,
            "annotations": self.annotations,
            "spans": self.spans,
        }


class Tracer:
    """Sampling policy + bounded storage for finished traces.

    Parameters
    ----------
    sample_rate:
        Probability a request is traced; ``0.0`` (default) keeps the
        hot path free of any tracing work unless the slow-query log is
        armed.
    slow_query_threshold_s:
        When set, *every* request is recorded, and any whose wall time
        crosses the threshold is kept (and logged) even when the sample
        coin said no -- the slow-query log.
    capacity:
        Ring size for kept traces (oldest evicted first).
    seed:
        Seeds the sampling RNG (tests want deterministic sampling).
    """

    def __init__(
        self,
        sample_rate: float = 0.0,
        slow_query_threshold_s: float | None = None,
        capacity: int = 64,
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if slow_query_threshold_s is not None and slow_query_threshold_s < 0:
            raise ValueError("slow_query_threshold_s must be >= 0")
        self.sample_rate = float(sample_rate)
        self.slow_query_threshold_s = slow_query_threshold_s
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._kept: deque[Trace] = deque(maxlen=max(1, int(capacity)))
        self._slow: deque[Trace] = deque(maxlen=max(1, int(capacity)))
        self.started = 0
        self.kept = 0
        self.slow_queries = 0

    @property
    def enabled(self) -> bool:
        """Whether any request could be recorded at all."""
        return (
            self.sample_rate > 0.0 or self.slow_query_threshold_s is not None
        )

    def begin(self) -> Trace | None:
        """Start a trace for one request, or ``None`` when off.

        Returns a :class:`Trace` whenever recording is worthwhile: the
        sample coin came up, or the slow-query log is armed (the trace
        is then recorded *tentatively* and only kept if it turns out
        slow).
        """
        if not self.enabled:
            return None
        with self._lock:
            sampled = (
                self.sample_rate > 0.0
                and self._rng.random() < self.sample_rate
            )
            if not sampled and self.slow_query_threshold_s is None:
                return None
            self.started += 1
            trace_id = f"{self._rng.getrandbits(64):016x}"
        return Trace(trace_id, sampled)

    def finish(
        self,
        trace: Trace | None,
        duration_s: float,
        error: BaseException | None = None,
    ) -> bool:
        """Close out a request's trace; returns whether it was kept.

        ``error`` is what the request raised instead of answering: the
        trace is judged (sampled / slow) like any other and its root is
        annotated with the failure.
        """
        if trace is None:
            return False
        trace.duration_ms = duration_s * 1e3
        if error is not None:
            trace.annotations.update(failure_annotations(error))
        slow = (
            self.slow_query_threshold_s is not None
            and duration_s >= self.slow_query_threshold_s
        )
        if not (trace.sampled or slow):
            return False
        with self._lock:
            self._kept.append(trace)
            self.kept += 1
            if slow:
                self._slow.append(trace)
                self.slow_queries += 1
        if slow:
            logger.warning(
                "slow query: trace %s took %.1f ms (threshold %.1f ms)",
                trace.trace_id,
                trace.duration_ms,
                self.slow_query_threshold_s * 1e3,
            )
        return True

    def traces(self) -> list[Trace]:
        with self._lock:
            return list(self._kept)

    def slow(self) -> list[Trace]:
        with self._lock:
            return list(self._slow)

    def export(self) -> list[dict]:
        """Kept traces as JSON-safe dicts (newest last)."""
        return [trace.to_dict() for trace in self.traces()]

    def export_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.export(), indent=indent)

    def stats(self) -> dict:
        with self._lock:
            return {
                "sample_rate": self.sample_rate,
                "slow_query_threshold_s": self.slow_query_threshold_s,
                "started": self.started,
                "kept": self.kept,
                "slow_queries": self.slow_queries,
            }


#: The ambient recorder searcher-side kernels report spans into.
_ACTIVE: ContextVar[SpanRecorder | None] = ContextVar(
    "repro_obs_active_recorder", default=None
)


def current_recorder() -> SpanRecorder | None:
    """The recorder activated for the current context, if any."""
    return _ACTIVE.get()


def activate(recorder: SpanRecorder | None):
    """Install ``recorder`` as the ambient recorder; returns the token.

    Must be called *inside* the executing context: ``contextvars`` do
    not propagate into ``run_in_executor`` workers or foreign event
    loops, so whoever runs the work activates explicitly.
    """
    return _ACTIVE.set(recorder)


def deactivate(token) -> None:
    _ACTIVE.reset(token)


def maybe_span(recorder: SpanRecorder | None, name: str, **annotations):
    """A ``recorder.span`` when tracing, a free no-op context otherwise."""
    if recorder is None:
        return nullcontext()
    return recorder.span(name, **annotations)


def format_trace(trace: dict) -> str:
    """Pretty-print one exported trace as an indented span tree."""
    lines = [
        f"trace {trace.get('trace_id', '?')}  "
        f"{trace.get('duration_ms', 0.0):.2f} ms"
        + ("" if trace.get("sampled", True) else "  [slow-query]")
        + "".join(
            f"  {key}={value}"
            for key, value in (trace.get("annotations") or {}).items()
        )
    ]

    def walk(spans: list[dict], depth: int) -> None:
        for span in spans:
            annotations = span.get("annotations") or {}
            extra = (
                "  " + " ".join(
                    f"{key}={value}" for key, value in annotations.items()
                )
                if annotations
                else ""
            )
            lines.append(
                f"{'  ' * depth}- {span['name']:<12} "
                f"@{span.get('start_ms', 0.0):>8.2f} ms  "
                f"{span.get('dur_ms', 0.0):>8.2f} ms{extra}"
            )
            walk(span.get("children", []), depth + 1)

    walk(trace.get("spans", []), 1)
    return "\n".join(lines)
