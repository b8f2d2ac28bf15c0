"""Wall-clock measurement helpers."""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

import numpy as np

from repro.obs.clock import quantile_summary


class Timer:
    """Context manager measuring elapsed wall time.

    >>> with Timer() as timer:
    ...     work()
    >>> timer.elapsed  # seconds
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._start


def measure_latency(
    query_fn: Callable[[np.ndarray], object],
    queries: np.ndarray,
) -> np.ndarray:
    """Per-query latencies (seconds) of ``query_fn`` over ``queries``."""
    queries = np.asarray(queries)
    latencies = np.empty(queries.shape[0], dtype=np.float64)
    for row in range(queries.shape[0]):
        start = time.perf_counter()
        query_fn(queries[row])
        latencies[row] = time.perf_counter() - start
    return latencies


def measure_qps(
    query_fn: Callable[[np.ndarray], object],
    queries: np.ndarray,
) -> dict:
    """Serve ``queries`` one by one; report throughput/latency stats.

    Returns a dict with ``qps``, ``mean_ms`` and the
    :func:`quantile_summary` block (``p50_ms``/``p90_ms``/``p99_ms``/
    ``max_ms``).
    """
    latencies = measure_latency(query_fn, queries)
    total = float(latencies.sum())
    return {
        "qps": (len(latencies) / total) if total > 0 else float("inf"),
        "mean_ms": float(latencies.mean() * 1e3),
        **quantile_summary(latencies),
    }


def measure_concurrent_qps(
    query_fn: Callable[[np.ndarray], object],
    queries: np.ndarray,
    num_clients: int,
) -> dict:
    """Serve ``queries`` from ``num_clients`` closed-loop client threads.

    Each client owns a strided slice of the query set and issues its
    queries one at a time (a new request only after the previous answer),
    modelling independent callers rather than an open-loop flood.  All
    clients start together behind a barrier; ``qps`` is total queries
    over the barrier-to-last-finish wall time, and latency stats pool
    every per-call sample.

    Returns a dict with ``qps``, ``wall_s``, ``clients``, ``mean_ms``,
    the :func:`quantile_summary` block and ``results`` -- the per-query
    return values of ``query_fn`` in query order, so callers can assert
    parity against a sequential run without a second serving pass.
    """
    if num_clients <= 0:
        raise ValueError(f"num_clients must be positive, got {num_clients}")
    queries = np.asarray(queries)
    num_queries = queries.shape[0]
    num_clients = min(num_clients, max(num_queries, 1))
    results: list = [None] * num_queries
    latencies = np.zeros(num_queries, dtype=np.float64)
    barrier = threading.Barrier(num_clients + 1)
    errors: list[BaseException] = []

    def client(worker: int) -> None:
        try:
            barrier.wait()
            for row in range(worker, num_queries, num_clients):
                start = time.perf_counter()
                results[row] = query_fn(queries[row])
                latencies[row] = time.perf_counter() - start
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(worker,), daemon=True)
        for worker in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    begin = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - begin
    if errors:
        raise errors[0]
    return {
        "qps": (num_queries / wall) if wall > 0 else float("inf"),
        "wall_s": wall,
        "clients": int(num_clients),
        "mean_ms": float(latencies.mean() * 1e3) if num_queries else 0.0,
        **quantile_summary(latencies),
        "results": results,
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
