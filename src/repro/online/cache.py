"""Broker-level LRU query result cache.

Real ANN query streams are highly skewed (TCAM-style LSH serving exploits
exactly this): a small set of heavy-hitter queries repeats often enough
that caching their *exact* merged results buys a large effective QPS at
negligible memory cost.  The broker looks every row up before its
micro-batcher (:meth:`~repro.online.broker.Broker._serve`): hits skip the
whole fan-out, misses are filled after the final merge.

Keys are exact-match tuples ``(index_name, query_bytes, top_k, ef,
num_shards, epoch)`` over the *canonicalised* query's bytes
(C-contiguous float32) on every metric, so a hit is guaranteed to be
bit-identical to the search it replaces.  Any parameter that changes the
answer -- the index, the query vector, the requested ``top_k``, the beam
width, or the shard layout -- changes the key.

Entries are invalidated explicitly per index on ``deploy`` / ``undeploy``
(the only events that change an answer without changing the key).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass

import numpy as np

from repro.obs.metrics import Tally, get_registry

#: What a cache counts: ``events`` labelled hit/miss/eviction/invalidation.
_COUNTERS = get_registry().counters(
    "lanns_cache",
    events="Result-cache events, labelled by event (hit/miss/eviction/invalidation).",
)

#: A cache key: (index_name, query bytes, top_k, ef, num_shards, epoch).
CacheKey = tuple[str, bytes, int, int, int, int]


def result_cache_key(
    index_name: str,
    query_row: np.ndarray,
    top_k: int,
    ef: int,
    num_shards: int,
    epoch: int = 0,
) -> CacheKey:
    """Build the exact-match key for one canonicalised query row.

    ``query_row`` must already be the C-contiguous float32 row the
    serving path searches with (``as_matrix`` output), so equal bytes
    imply an identical search -- on every metric.  (Cosine scores are
    scale-free, but routing is not: a hyperplane segmenter sends ``q``
    and ``2q`` to different segments, so a key folded over the scale
    would serve one the other's answer.)

    ``epoch`` is the broker's deployment generation: a client thread
    descheduled between computing a result and ``put`` can complete its
    insert *after* an undeploy/re-deploy invalidated the name, and
    without the epoch that stale row would be served by the new
    deployment.  Epoch-tagged keys make such late inserts unreachable
    (they age out of the LRU instead).
    """
    return (
        str(index_name),
        query_row.tobytes(),
        int(top_k),
        int(ef),
        int(num_shards),
        int(epoch),
    )


@dataclass(frozen=True)
class CacheStats:
    """One tally snapshot of a cache's hit/miss/eviction/invalidation totals."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict:
        total = self.hits + self.misses
        return {**asdict(self), "hit_rate": (self.hits / total) if total else 0.0}


class QueryResultCache:
    """Thread-safe LRU cache of merged ``(ids, dists, routed)`` result
    rows, ``routed`` being how many shard groups the row was asked of.

    Parameters
    ----------
    capacity:
        Maximum number of cached result rows.  ``0`` disables the cache
        entirely: ``get`` always misses (without counting stats) and
        ``put`` is a no-op, so a disabled cache is free on the hot path.

    Notes
    -----
    Values are stored as *copies* of the padded ``(top_k,)`` id/distance
    rows and copied again on ``get``, so neither the broker's output
    buffers nor caller-side mutation can corrupt cached entries.
    """

    def __init__(self, capacity: int) -> None:
        capacity = int(capacity)
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.tally = Tally(_COUNTERS)
        self._lock = threading.Lock()
        self._entries: OrderedDict[
            CacheKey, tuple[np.ndarray, np.ndarray, int]
        ] = OrderedDict()

    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything at all."""
        return self.capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        """This cache's counts, read in one tally snapshot."""
        events = self.tally.snapshot().get("events", {})
        return CacheStats(
            *(events.get(e, 0) for e in ("hit", "miss", "eviction", "invalidation"))
        )

    def get(self, key: CacheKey) -> tuple[np.ndarray, np.ndarray, int] | None:
        """Look up one result row; refreshes LRU recency on hit."""
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                entry = entry[0].copy(), entry[1].copy(), entry[2]
        self.tally.count("events", event="miss" if entry is None else "hit")
        return entry

    def put(
        self, key: CacheKey, ids: np.ndarray, dists: np.ndarray, routed: int = 0
    ) -> None:
        """Insert (or refresh) one result row, evicting the LRU tail.

        ``routed`` is how many shard groups the row was asked of, what a
        hit reports as its ``shards_routed``.
        """
        if not self.enabled:
            return
        ids = np.array(ids, dtype=np.int64, copy=True)
        dists = np.array(dists, dtype=np.float64, copy=True)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (ids, dists, int(routed))
            evicted = len(self._entries) - self.capacity
            for _ in range(evicted):
                self._entries.popitem(last=False)
        if evicted > 0:
            self.tally.count("events", evicted, event="eviction")

    def invalidate(self, index_name: str) -> int:
        """Drop every entry cached for ``index_name``; returns the count.

        Called on ``deploy`` / ``undeploy``: re-deploying a (possibly
        different) index under a previously used name must never serve
        the old index's results.
        """
        index_name = str(index_name)
        with self._lock:
            stale = [
                key for key in self._entries if key[0] == index_name
            ]
            for key in stale:
                del self._entries[key]
        if stale:
            self.tally.count("events", len(stale), event="invalidation")
        return len(stale)

    def clear(self) -> None:
        """Drop all entries (stats are kept)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
        if dropped:
            self.tally.count("events", dropped, event="invalidation")

    def keys(self) -> list[CacheKey]:
        """Snapshot of cached keys in LRU order (oldest first)."""
        with self._lock:
            return list(self._entries)
