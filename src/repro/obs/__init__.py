"""Observability: metrics registry, request tracing, search-cost accounting.

Four small, dependency-free building blocks shared by every serving
layer:

- :mod:`repro.obs.metrics` -- a process-wide registry of labelled
  counters / gauges / fixed-bucket histograms with Prometheus-style text
  exposition and a snapshot format that merges across processes (the
  STATS RPC aggregates a whole fleet into one snapshot).
- :mod:`repro.obs.tracing` -- sampled request traces: span trees that
  cross the wire (the SEARCH frame carries the trace context, the RESULT
  frame carries the searcher's spans back), plus a slow-query log that
  force-keeps any request over a threshold.
- :mod:`repro.obs.clock` -- the stage clock: one timing per pipeline
  stage, handed to the latency window, the histogram, the span and the
  response alike.
- :mod:`repro.obs.cost` -- per-query-batch search-cost counters (hops,
  distance computations, candidates visited, segments probed, rescore
  rows) threaded through the lockstep HNSW kernels.
"""

from repro.obs.cost import SearchCost
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import SpanRecorder, Trace, Tracer

__all__ = [
    "MetricsRegistry",
    "SearchCost",
    "SpanRecorder",
    "Trace",
    "Tracer",
    "get_registry",
]
