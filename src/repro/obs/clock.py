"""One clock for the serving tier: a stage is timed once and told to everyone.

:meth:`StageClock.stage` is :func:`~repro.obs.tracing.maybe_span` grown
the other consumers of a duration.  Entering reads :data:`now` once,
leaving reads it once more, and those two readings are all any consumer
sees:

- the **window**: the per-broker sliding window of recent samples behind
  ``Broker.stats()["stages"]`` and adaptive hedging's ``shard_rpc``
  median (:meth:`StageClock.quantile`); the ``request`` window is the
  library's one request timer (``repro.cli bench`` reads its QPS);
- a **histogram** of the metrics registry (``lanns_broker_request_seconds``);
- the **span** of a traced request -- opened at the first reading,
  closed with the difference, under an explicit ``parent`` when the
  stage runs off the request thread;
- ``Stage.seconds``, which the broker copies into
  ``SearchResponse.timings``.

Nothing else under ``repro.online`` reads ``time.perf_counter``
(``tests/test_analysis_lint.py`` pins that); deadline arithmetic is
``time.monotonic`` and lives in :mod:`repro.online.failover`.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque
from contextlib import nullcontext

import numpy as np

from repro.obs.metrics import Histogram
from repro.obs.tracing import SpanRecorder, failure_annotations

#: The duration clock.  Durations come from differences of its readings
#: only, never from a second clock.
now = time.perf_counter


def quantile_summary(latencies_s: np.ndarray) -> dict[str, float]:
    """The shared latency-quantile block: p50/p90/p99/max in milliseconds.

    The broker's per-stage summary and the bench harness report the same
    four quantile keys, so they are computed in exactly one place.  An
    empty sample set reports zeros.
    """
    values = np.asarray(latencies_s, dtype=np.float64)
    if values.size == 0:
        return {"p50_ms": 0.0, "p90_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
    return {
        "p50_ms": float(np.quantile(values, 0.50) * 1e3),
        "p90_ms": float(np.quantile(values, 0.90) * 1e3),
        "p99_ms": float(np.quantile(values, 0.99) * 1e3),
        "max_ms": float(values.max() * 1e3),
    }


class Stage:
    """One timed stage: a context manager made by :meth:`StageClock.stage`.

    ``seconds`` and ``error`` (the exception the body raised, else
    ``None``) are set on exit; ``span`` is the open span dict of a
    traced request (``None`` otherwise) -- the ``parent=`` of child
    stages.  A stage whose body raised closes its span with
    :func:`~repro.obs.tracing.failure_annotations` and still reports its
    duration everywhere: the request that blew its deadline is the one
    the latency record is for.
    """

    __slots__ = (
        "clock", "name", "trace", "parent", "window", "histogram",
        "annotations", "start", "seconds", "span", "error",
    )

    def __init__(
        self,
        clock: StageClock,
        name: str,
        trace: SpanRecorder | None,
        parent: dict | None,
        window: str | None,
        histogram: Histogram | None,
        annotations: dict,
    ) -> None:
        self.clock = clock
        self.name = name
        self.trace = trace
        self.parent = parent
        self.window = window
        self.histogram = histogram
        self.annotations = annotations
        self.span: dict | None = None
        self.seconds = 0.0
        self.error: BaseException | None = None

    def __enter__(self) -> Stage:
        self.start = start = now()
        if self.trace is not None:
            self.span = self.trace.start_span(
                self.name, parent=self.parent, at=start, **self.annotations
            )
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.seconds = seconds = now() - self.start
        self.error = exc
        span = self.span
        if span is not None:
            if exc is not None:
                span["annotations"].update(failure_annotations(exc))
            self.trace.end_span(span, seconds)
        if self.window is not None:
            self.clock.record(self.window, seconds)
        if self.histogram is not None:
            self.histogram.observe(seconds, **self.clock.labels)

    def annotate(self, **annotations) -> None:
        """Add to the span's annotations (a no-op when untraced)."""
        if self.span is not None:
            self.span["annotations"].update(annotations)


#: The stage nobody listens to (:func:`maybe_span`'s ``nullcontext``): a
#: never-entered :class:`Stage`, so ``span`` is ``None`` and ``annotate``
#: does nothing.
_IDLE = nullcontext(Stage(None, "", None, None, None, None, {}))


class StageClock:
    """Sliding windows of stage durations, and the one call that fills them.

    Memory is bounded for long-lived brokers: exact ``count`` and
    ``total`` run forever, while the percentiles come from a sliding
    window of the most recent ``window`` samples per stage.  Recording
    happens under a lock (client and flusher threads, each driving its
    own fan-outs, record concurrently).  ``labels`` (``broker=<name>``) go on every histogram
    observation a stage makes.
    """

    def __init__(self, window: int = 8192, **labels) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self.labels = labels
        self._lock = threading.Lock()
        self._recent: dict[str, deque[float]] = defaultdict(
            lambda: deque(maxlen=self.window)
        )
        self._count: dict[str, int] = defaultdict(int)
        self._total: dict[str, float] = defaultdict(float)

    def stage(
        self,
        name: str,
        trace: SpanRecorder | None = None,
        *,
        parent: dict | None = None,
        window: str | None = None,
        histogram: Histogram | None = None,
        **annotations,
    ) -> Stage | nullcontext:
        """Time the ``with`` body once, for every consumer named here.

        ``trace`` (when not ``None``) gets a span called ``name`` with
        ``annotations``, top-level or under ``parent``; ``window`` names
        the sliding window to add the sample to; ``histogram`` the
        registry histogram to observe.  With no consumer at all (an
        untraced request at a span-only stage) the clock is not read.
        """
        if trace is None and window is None and histogram is None:
            return _IDLE
        return Stage(self, name, trace, parent, window, histogram, annotations)

    def record(self, stage: str, seconds: float) -> None:
        """Append one latency sample (seconds) to ``stage``'s window."""
        seconds = float(seconds)
        with self._lock:
            self._recent[stage].append(seconds)
            self._count[stage] += 1
            self._total[stage] += seconds

    def quantile(self, stage: str, q: float) -> tuple[int, float] | None:
        """``(window_count, value)`` of ``stage``'s recent-window quantile.

        Returns ``None`` when the stage has no samples yet.  This is the
        live read the broker's adaptive hedging uses: the sliding window
        keeps it current, the exact-forever counters are irrelevant to
        it.
        """
        with self._lock:
            recent = self._recent.get(stage)
            if not recent:
                return None
            values = np.asarray(recent, dtype=np.float64)
        return len(values), float(np.quantile(values, q))

    def summary(self) -> dict[str, dict]:
        """Per-stage stats: count, total_ms, mean_ms plus the quantiles.

        ``count``/``total_ms``/``mean_ms`` cover every sample ever
        recorded; the :func:`quantile_summary` block (p50/p90/p99/max)
        covers the recent window.
        """
        with self._lock:
            snapshot = {
                stage: (
                    self._count[stage],
                    self._total[stage],
                    np.asarray(values, dtype=np.float64),
                )
                for stage, values in self._recent.items()
            }
        return {
            stage: {
                "count": int(count),
                "total_ms": float(total * 1e3),
                "mean_ms": float(total / count * 1e3),
                **quantile_summary(recent),
            }
            for stage, (count, total, recent) in snapshot.items()
        }
