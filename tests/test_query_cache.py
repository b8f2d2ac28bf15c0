"""Tests for the broker-level LRU query result cache.

That a hit answers like the search it replaces -- across a redeploy of
another index under the same name, and beside its own row rescaled -- is
the ``warm`` cell family of ``tests/test_path_matrix.py``; here are the
cache's own rules and counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.online.broker import Broker
from repro.online.cache import QueryResultCache, result_cache_key
from repro.online.service import OnlineService
from repro.online.types import SearchRequest, SearchResponse
from repro.storage.manifest import save_lanns_index
from tests.conftest import LANNS_2X2, host_all


def entry(value: int, k: int = 4):
    ids = np.arange(value, value + k, dtype=np.int64)
    dists = np.linspace(0.0, 1.0, k) + value
    return ids, dists, 2


def key_of(tag: int, index_name: str = "idx") -> tuple:
    query = np.full(8, tag, dtype=np.float32)
    return result_cache_key(index_name, query, 10, 48, 2)


@pytest.fixture(scope="module")
def searchers(lanns):
    return host_all(lanns)


class TestQueryResultCacheUnit:
    def test_roundtrip_is_bit_identical(self):
        cache = QueryResultCache(4)
        ids, dists, routed = entry(7)
        cache.put(key_of(1), ids, dists, routed)
        got = cache.get(key_of(1))
        assert got is not None
        np.testing.assert_array_equal(got[0], ids)
        np.testing.assert_array_equal(got[1], dists)
        assert got[2] == routed

    def test_get_and_put_return_and_store_copies(self):
        cache = QueryResultCache(4)
        ids, dists, routed = entry(7)
        cache.put(key_of(1), ids, dists, routed)
        ids[:] = -999  # caller mutates its own arrays after put...
        first = cache.get(key_of(1))
        first[0][:] = -777  # ...and mutates what get handed back
        second = cache.get(key_of(1))
        np.testing.assert_array_equal(second[0], entry(7)[0])

    def test_lru_eviction_order(self):
        cache = QueryResultCache(3)
        for tag in (1, 2, 3):
            cache.put(key_of(tag), *entry(tag))
        cache.put(key_of(4), *entry(4))  # evicts 1 (oldest)
        assert cache.get(key_of(1)) is None
        assert cache.get(key_of(2)) is not None  # refreshes 2
        cache.put(key_of(5), *entry(5))  # evicts 3, not the refreshed 2
        assert cache.get(key_of(3)) is None
        assert cache.get(key_of(2)) is not None
        assert cache.stats.evictions == 2
        assert len(cache) == 3

    def test_put_refreshes_existing_key(self):
        cache = QueryResultCache(2)
        cache.put(key_of(1), *entry(1))
        cache.put(key_of(2), *entry(2))
        cache.put(key_of(1), *entry(10))  # refresh, not insert
        cache.put(key_of(3), *entry(3))  # evicts 2 (now oldest)
        assert cache.get(key_of(2)) is None
        np.testing.assert_array_equal(cache.get(key_of(1))[0], entry(10)[0])

    def test_capacity_zero_disables_cleanly(self):
        cache = QueryResultCache(0)
        assert not cache.enabled
        cache.put(key_of(1), *entry(1))
        assert cache.get(key_of(1)) is None
        assert len(cache) == 0
        # A disabled cache counts nothing: it is invisible, not "all miss".
        assert cache.stats.misses == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            QueryResultCache(-1)

    def test_invalidate_is_per_index(self):
        cache = QueryResultCache(8)
        cache.put(key_of(1, "a"), *entry(1))
        cache.put(key_of(2, "a"), *entry(2))
        cache.put(key_of(1, "b"), *entry(3))
        assert cache.invalidate("a") == 2
        assert cache.get(key_of(1, "a")) is None
        assert cache.get(key_of(2, "a")) is None
        assert cache.get(key_of(1, "b")) is not None
        assert cache.stats.invalidations == 2

    def test_clear_drops_everything(self):
        cache = QueryResultCache(8)
        cache.put(key_of(1), *entry(1))
        cache.put(key_of(2), *entry(2))
        cache.clear()
        assert len(cache) == 0

    def test_key_separates_all_parameters(self):
        query = np.ones(8, dtype=np.float32)
        base = result_cache_key("idx", query, 10, 48, 2)
        assert result_cache_key("other", query, 10, 48, 2) != base
        assert result_cache_key("idx", query * 2, 10, 48, 2) != base
        assert result_cache_key("idx", query, 11, 48, 2) != base
        assert result_cache_key("idx", query, 10, 64, 2) != base
        assert result_cache_key("idx", query, 10, 48, 4) != base
        assert result_cache_key("idx", query, 10, 48, 2, epoch=1) != base


class TestCosineCacheKeys:
    """A cosine row is keyed by its bytes, like a row of any metric."""

    def test_different_directions_still_differ(self):
        query = np.ones(8, dtype=np.float32)
        other = np.ones(8, dtype=np.float32)
        other[0] = -1.0
        assert result_cache_key("idx", query, 10, 48, 2) != result_cache_key(
            "idx", other, 10, 48, 2
        )

    def test_zero_vector_is_keyable(self):
        zero = np.zeros(8, dtype=np.float32)
        key = result_cache_key("idx", zero, 10, 48, 2)
        assert key == result_cache_key("idx", zero.copy(), 10, 48, 2)
        assert hash(key) == hash(result_cache_key("idx", zero, 10, 48, 2))


class TestBrokerCaching:
    def test_each_row_is_a_hit_or_a_miss(self, searchers, clustered_queries):
        cached = Broker(searchers, LANNS_2X2, cache_size=128)
        try:
            for query in clustered_queries[:10]:
                for _ in range(2):
                    cached.execute(SearchRequest(query, 10, "main", 48))
            stats = cached.stats()["cache"]
            assert (stats["hits"], stats["misses"]) == (10, 10)
            # Rows 0-2 warm at another top_k, then 0-5: 3 hits, 6 misses.
            cached.execute(SearchRequest(clustered_queries[:3], 5, "main", 48))
            cached.execute(SearchRequest(clustered_queries[:6], 5, "main", 48))
            stats = cached.stats()["cache"]
            assert (stats["hits"], stats["misses"]) == (13, 16)
        finally:
            cached.close()

    def test_default_ef_and_explicit_ef_share_entries(
        self, searchers, clustered_queries
    ):
        cached = Broker(searchers, LANNS_2X2, cache_size=32)
        try:
            cached.execute(SearchRequest(clustered_queries[0], 5, "main"))
            cached.execute(SearchRequest(
                clustered_queries[0], 5, "main", LANNS_2X2.hnsw.ef_search
            ))
            stats = cached.stats()["cache"]
            assert stats["hits"] == 1
        finally:
            cached.close()

    def test_capacity_zero_counts_nothing(self, searchers, clustered_queries):
        uncached = Broker(searchers, LANNS_2X2, cache_size=0)
        try:
            for query in clustered_queries[:5]:
                uncached.execute(SearchRequest(query, 5, "main", 48))
            assert uncached.stats()["cache"]["misses"] == 0
        finally:
            uncached.close()


class TestServiceInvalidation:
    def test_undeploy_drains_admitted_requests_before_unhost(
        self, fs, lanns, clustered_queries
    ):
        """Requests already admitted when undeploy starts must be served
        against still-hosted searchers, never KeyError'd mid-drain."""
        import threading
        import time

        save_lanns_index(lanns, fs, "prod/full")
        # A long flush deadline parks admitted requests in the queue, so
        # undeploy provably starts with them still pending; its
        # close()-drain (not the timer) is what must execute them.
        service = OnlineService(max_batch=64, max_wait_ms=2000.0)
        broker = service.deploy(fs, "prod/full", index_name="x")
        results: dict[int, SearchResponse] = {}
        errors: list[BaseException] = []

        def client(worker):
            try:
                results[worker] = service.execute(
                    SearchRequest(clustered_queries[worker], 5, "x")
                )
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(worker,), daemon=True)
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        deadline = time.perf_counter() + 30.0
        tally = broker._batcher.tally
        while (
            tally.snapshot().get("blocks_admitted", 0) < 4
            and time.perf_counter() < deadline
        ):
            time.sleep(0.001)
        assert tally.snapshot()["blocks_admitted"] == 4
        service.undeploy("x")
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, f"admitted request failed mid-drain: {errors[0]}"
        for worker, got in results.items():
            want_ids, want_dists = lanns.query_batch(
                clustered_queries[worker : worker + 1], 5
            )
            np.testing.assert_array_equal(got.ids, want_ids)
            np.testing.assert_array_equal(got.dists, want_dists)

    def test_cache_shared_across_deployed_indices(
        self, fs, lanns, clustered_queries
    ):
        save_lanns_index(lanns, fs, "prod/full")
        service = OnlineService(cache_size=128)
        service.deploy(fs, "prod/full", index_name="a")
        service.deploy(fs, "prod/full", index_name="b")
        query = clustered_queries[0]
        service.execute(SearchRequest(query, 5, "a"))
        service.execute(SearchRequest(query, 5, "b"))  # same bytes, other index
        assert service.cache.stats.hits == 0  # keys carry the index name
        service.execute(SearchRequest(query, 5, "a"))
        assert service.cache.stats.hits == 1
        assert len(service.cache) == 2
        service.close()
