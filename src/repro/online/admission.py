"""Admission: the result cache and the micro-batcher in front of a search.

An unrouted request with the broker's own policy is answered per row
from the LRU **result cache** (:mod:`repro.online.cache`, filled with the
fresh rows that came back fully answered); its misses are one block that
opportunistic **micro-batching** (:mod:`repro.online.microbatch`) may
coalesce with other threads' blocks under the same
:func:`~repro.online.microbatch.admission_key`.  :class:`Admission` is
handed the search to run, ``execute(key, queries, trace)``, and knows
nothing else about who runs it.  Per-query results are identical to a
batch of one regardless of caching or coalescing.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np

from repro.core.merge import empty_part
from repro.obs.clock import StageClock
from repro.obs.tracing import Trace
from repro.online.cache import QueryResultCache, result_cache_key
from repro.online.microbatch import AdmissionKey, MicroBatcher
from repro.online.types import SearchResponse


class Admission:
    """Cache -> micro-batch -> ``execute`` for the default fan-out.

    ``num_shards`` / ``metric`` / ``epoch`` / ``quantize_decimals`` are
    the deployment's share of every cache key (see
    :func:`~repro.online.cache.result_cache_key`); ``max_batch <= 1``
    disables coalescing.  ``clock`` receives the ``cache`` and
    ``queue_wait`` stages.
    """

    def __init__(
        self,
        execute: Callable[[AdmissionKey, np.ndarray, Trace | None], SearchResponse],
        cache: QueryResultCache,
        clock: StageClock,
        *,
        num_shards: int,
        metric: str,
        epoch: int,
        quantize_decimals: int | None,
        max_batch: int,
        max_wait_ms: float,
    ) -> None:
        self._execute = execute
        self.cache = cache
        self.clock = clock
        self.num_shards = int(num_shards)
        self._row_key = partial(
            result_cache_key,
            num_shards=self.num_shards,
            epoch=epoch,
            metric=metric,
            quantize_decimals=quantize_decimals,
        )
        self.batcher: MicroBatcher | None = (
            MicroBatcher(
                lambda key, queries: self._run(key, queries)[:3],
                max_batch=max_batch,
                max_wait_ms=max_wait_ms,
                on_queue_wait=partial(clock.record, "queue_wait"),
            )
            if max_batch > 1
            else None
        )

    def close(self) -> None:
        """Drain the micro-batcher: pending batches execute first."""
        if self.batcher is not None:
            self.batcher.close()

    def serve(
        self, key: AdmissionKey, queries: np.ndarray, trace: Trace | None = None
    ) -> SearchResponse:
        """Answer rows from the cache; admit the rest as one block.

        Cache hits always count as fully answered: degraded rows are
        never cached.  The response carries no ``replicas_used``
        (coalescing makes per-request replica attribution ambiguous).
        """
        num_queries = queries.shape[0]
        cost = None
        if not self.cache.enabled:
            ids, dists, answered, cost = self.admit(key, queries, trace)
        else:
            with self.clock.stage("cache", trace) as stage:
                keys = [
                    self._row_key(key.index_name, row, key.top_k, key.ef)
                    for row in queries
                ]
                ids, dists = empty_part(num_queries, key.top_k)
                miss_rows: list[int] = []
                for row, row_key in enumerate(keys):
                    cached = self.cache.get(row_key)
                    if cached is None:
                        miss_rows.append(row)
                    else:
                        ids[row], dists[row] = cached
                stage.annotate(
                    hits=num_queries - len(miss_rows), misses=len(miss_rows)
                )
            answered = np.full(num_queries, self.num_shards, dtype=np.int64)
            if miss_rows:
                misses = np.asarray(miss_rows, dtype=np.int64)
                fresh_ids, fresh_dists, fresh_answered, cost = self.admit(
                    key, queries[misses], trace
                )
                ids[misses] = fresh_ids
                dists[misses] = fresh_dists
                answered[misses] = fresh_answered
                for slot, row in enumerate(miss_rows):
                    if int(fresh_answered[slot]) == self.num_shards:
                        self.cache.put(
                            keys[row], fresh_ids[slot], fresh_dists[slot]
                        )
        return SearchResponse(
            ids=ids,
            dists=dists,
            shards_answered=answered,
            shards_routed=np.full(num_queries, self.num_shards, dtype=np.int64),
            num_shards=self.num_shards,
            cost=cost,
        )

    def admit(
        self, key: AdmissionKey, queries: np.ndarray, trace: Trace | None = None
    ) -> tuple:
        """``(ids, dists, answered, cost)`` of one block, run through
        micro-batching when on, else directly.

        Traced requests bypass the micro-batcher: the batch kernels are
        batch-composition invariant, so executing the block alone is
        bit-identical, and bypassing keeps the whole span tree -- and
        the cost counters -- attributable to *this* request instead of
        to whichever strangers it would have coalesced with (a coalesced
        block reports no cost: per-request attribution of a shared
        lockstep batch is ambiguous).
        """
        if self.batcher is None or trace is not None:
            with self.clock.stage("queue_wait", trace, coalesced=False):
                pass
            return self._run(key, queries, trace)
        return (*self.batcher.submit(key, queries).result(), None)

    def _run(self, key, queries, trace=None) -> tuple:
        """One search, per-row arrays first: the micro-batcher slices the
        first three back across the requests it coalesced."""
        response = self._execute(key, queries, trace)
        return response.ids, response.dists, response.shards_answered, response.cost
