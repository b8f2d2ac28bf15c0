"""The two qps definitions ``src/`` itself uses
(:meth:`repro.online.service.OnlineService.measure_qps`, ``repro.cli bench``)."""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from repro.obs.clock import quantile_summary


def measure_qps(
    query_fn: Callable[[np.ndarray], object],
    queries: np.ndarray,
) -> dict:
    """Serve ``queries`` one by one; report throughput/latency stats.

    Returns a dict with ``qps``, ``mean_ms`` and the
    :func:`quantile_summary` block (``p50_ms``/``p90_ms``/``p99_ms``/
    ``max_ms``).
    """
    queries = np.asarray(queries)
    latencies = np.empty(queries.shape[0], dtype=np.float64)
    for row in range(queries.shape[0]):
        start = time.perf_counter()
        query_fn(queries[row])
        latencies[row] = time.perf_counter() - start
    total = float(latencies.sum())
    return {
        "qps": (len(latencies) / total) if total > 0 else float("inf"),
        "mean_ms": float(latencies.mean() * 1e3),
        **quantile_summary(latencies),
    }


def measure_batch_qps(
    batch_fn: Callable[[np.ndarray], object],
    queries: np.ndarray,
    batch_size: int,
) -> dict:
    """Serve ``queries`` in batches of ``batch_size``; report throughput.

    ``batch_fn`` receives a ``(b, d)`` slice per request.  Returns a dict
    with ``qps`` (queries, not batches, per second), ``batch_size``,
    ``batches``, ``mean_batch_ms`` and the per-batch
    :func:`quantile_summary` block (``p50_batch_ms`` ...
    ``max_batch_ms``).
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    queries = np.asarray(queries)
    num_queries = queries.shape[0]
    starts = list(range(0, num_queries, batch_size))
    latencies = np.empty(len(starts), dtype=np.float64)
    for request, start in enumerate(starts):
        tick = time.perf_counter()
        batch_fn(queries[start : start + batch_size])
        latencies[request] = time.perf_counter() - tick
    total = float(latencies.sum())
    return {
        "qps": (num_queries / total) if total > 0 else float("inf"),
        "batch_size": int(batch_size),
        "batches": len(starts),
        "mean_batch_ms": float(latencies.mean() * 1e3),
        **quantile_summary(latencies, infix="_batch"),
    }
