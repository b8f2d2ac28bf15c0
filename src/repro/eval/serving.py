"""The two serving load tests behind ``repro.cli bench``.

:func:`serving_throughput` compares single-query and batched serving of
one in-memory index; :func:`concurrent_serving_throughput` (``bench
--clients N``) load-tests the micro-batching broker and its result
cache against a plain broker.  The paper-table experiment flow and the
result-table writer that used to live here are bench code and moved to
``benchmarks/harness.py``.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

import numpy as np

from repro.core.index import LannsIndex
from repro.eval.timing import measure_batch_qps, measure_qps
from repro.obs.clock import quantile_summary


def serving_throughput(
    index: LannsIndex,
    queries: np.ndarray,
    top_k: int,
    *,
    ef: int | None = None,
    batch_size: int = 32,
    collect_ids: bool = False,
) -> dict:
    """Compare sequential single-query QPS to batched QPS on one index.

    Serves the query set twice -- once query-at-a-time through
    :meth:`~repro.core.index.LannsIndex.query` and once in batches of
    ``batch_size`` through
    :meth:`~repro.core.index.LannsIndex.query_batch` -- and reports both
    throughput dicts plus the batched/sequential speedup.  With
    ``collect_ids`` the batched pass's ``(n, top_k)`` result ids are
    returned under ``"ids"`` (e.g. for recall scoring) so callers do not
    need a third serving pass.
    """
    queries = np.asarray(queries, dtype=np.float32)
    if queries.shape[0] == 0:
        raise ValueError("serving_throughput needs at least one query")
    sequential = measure_qps(
        lambda query: index.query(query, top_k, ef=ef), queries
    )
    chunks: list[np.ndarray] = []

    def serve_batch(batch: np.ndarray) -> None:
        ids, _ = index.query_batch(batch, top_k, ef=ef)
        if collect_ids:
            chunks.append(ids)

    batched = measure_batch_qps(serve_batch, queries, batch_size)
    report = {
        "sequential": sequential,
        "batched": batched,
        "speedup": batched["qps"] / sequential["qps"]
        if sequential["qps"] > 0
        else float("inf"),
    }
    if collect_ids:
        report["ids"] = np.concatenate(chunks, axis=0)
    return report


def _measure_concurrent_qps(
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


def concurrent_serving_throughput(
    index: LannsIndex,
    queries: np.ndarray,
    top_k: int,
    *,
    ef: int | None = None,
    clients: int = 8,
    max_batch: int = 32,
    max_wait_ms: float = 2.0,
    cache_size: int | None = None,
    check_parity: bool = True,
) -> dict:
    """Load-test the concurrent serving core against a plain broker.

    Fronts ``index`` with two brokers over one shared searcher fleet:

    - *baseline* -- a plain broker (no admission layer, no cache),
      serving the query set one call at a time (``sequential``);
    - *core* -- the micro-batching broker with a result cache, driven by
      ``clients`` closed-loop threads issuing single-query calls
      (``concurrent``), then re-serving the now-cached query set
      (``cached``).

    With ``check_parity`` every concurrent and cached answer is asserted
    bit-identical (ids and distances) to the baseline's sequential
    answer, so the speedups cannot come from wrong results.  Returns the
    three throughput dicts, the ``concurrent_speedup`` and
    ``cache_speedup`` ratios, and the core broker's ``stats()`` snapshot.
    """
    from repro.online.broker import Broker
    from repro.online.searcher import SearcherNode

    queries = np.asarray(queries, dtype=np.float32)
    if queries.shape[0] == 0:
        raise ValueError("concurrent_serving_throughput needs queries")
    num_shards = index.config.num_shards
    searchers = [SearcherNode(shard_id) for shard_id in range(num_shards)]
    for shard_id, searcher in enumerate(searchers):
        searcher.host("bench", index.shards[shard_id])
    if cache_size is None:
        cache_size = 2 * queries.shape[0]
    baseline = Broker(searchers, index.config)
    core = Broker(
        searchers,
        index.config,
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        cache_size=cache_size,
    )
    try:
        expected = [
            baseline.search("bench", query, top_k, ef=ef)
            for query in queries
        ]
        sequential = measure_qps(
            lambda query: baseline.search("bench", query, top_k, ef=ef),
            queries,
        )
        concurrent = _measure_concurrent_qps(
            lambda query: core.search("bench", query, top_k, ef=ef),
            queries,
            clients,
        )
        # The concurrent pass filled the cache; this pass is all hits.
        cached = measure_qps(
            lambda query: core.search("bench", query, top_k, ef=ef),
            queries,
        )
        # Snapshot before the parity re-serves below, so the reported
        # hit/miss counters reflect the measured traffic only.
        core_stats = core.stats()
        if check_parity:
            # Explicit raises, not bare asserts: parity is the guarantee
            # behind the reported speedups and must survive ``python -O``.
            def require(ok: bool, what: str, row: int) -> None:
                if not ok:
                    raise AssertionError(
                        f"{what} mismatch vs sequential at query {row}"
                    )

            for row, (want_ids, want_dists) in enumerate(expected):
                got_ids, got_dists = concurrent["results"][row]
                require((got_ids == want_ids).all(), "concurrent id", row)
                require(
                    (got_dists == want_dists).all(),
                    "concurrent distance",
                    row,
                )
                hit_ids, hit_dists = core.search(
                    "bench", queries[row], top_k, ef=ef
                )
                require((hit_ids == want_ids).all(), "cached id", row)
                require(
                    (hit_dists == want_dists).all(), "cached distance", row
                )
    finally:
        baseline.close()
        core.close()
    concurrent = {
        key: value for key, value in concurrent.items() if key != "results"
    }
    return {
        "clients": concurrent["clients"],
        "sequential": sequential,
        "concurrent": concurrent,
        "cached": cached,
        "concurrent_speedup": concurrent["qps"] / sequential["qps"]
        if sequential["qps"] > 0
        else float("inf"),
        "cache_speedup": cached["qps"] / sequential["qps"]
        if sequential["qps"] > 0
        else float("inf"),
        "core_stats": core_stats,
    }
