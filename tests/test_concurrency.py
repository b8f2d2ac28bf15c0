"""Concurrency tests: the serving tier must be safe under parallel reads.

The paper's searcher fleet serves thousands of QPS; our in-process
reproduction must at least guarantee that concurrent searches on shared
structures (one HNSW index, one shard, one broker) return exactly what
sequential searches return -- the thread-local visited-table pool is the
piece doing the heavy lifting here.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.hnsw.index import build_hnsw
from repro.online.broker import Broker
from repro.online.searcher import SearcherNode
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def shared_hnsw(clustered_data):
    return build_hnsw(clustered_data, params=FAST_HNSW)


@pytest.fixture(scope="module")
def shared_lanns(clustered_data):
    config = LannsConfig(
        num_shards=2,
        num_segments=2,
        segmenter="rh",
        hnsw=FAST_HNSW,
        segmenter_sample_size=600,
        seed=8,
    )
    return build_lanns_index(clustered_data, config=config)


def parallel_map(fn, items, workers=8):
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


class TestHnswConcurrentSearch:
    def test_parallel_equals_sequential(self, shared_hnsw, clustered_queries):
        sequential = [
            shared_hnsw.search(query, 10, ef=48)[0].tolist()
            for query in clustered_queries
        ]
        parallel = parallel_map(
            lambda query: shared_hnsw.search(query, 10, ef=48)[0].tolist(),
            clustered_queries,
        )
        assert parallel == sequential

    def test_repeated_parallel_runs_are_stable(self, shared_hnsw, clustered_queries):
        def run_once():
            return parallel_map(
                lambda q: shared_hnsw.search(q, 5, ef=32)[0].tolist(),
                clustered_queries[:20],
            )

        assert run_once() == run_once()


class TestLannsConcurrentQuery:
    def test_parallel_equals_sequential(self, shared_lanns, clustered_queries):
        sequential = [
            shared_lanns.query(query, 10, ef=48)[0].tolist()
            for query in clustered_queries
        ]
        parallel = parallel_map(
            lambda query: shared_lanns.query(query, 10, ef=48)[0].tolist(),
            clustered_queries,
        )
        assert parallel == sequential


class TestBrokerConcurrentFanout:
    def test_concurrent_brokers_on_shared_searchers(
        self, shared_lanns, clustered_queries
    ):
        searchers = [SearcherNode(0), SearcherNode(1)]
        for shard_id, searcher in enumerate(searchers):
            searcher.host("main", shared_lanns.shards[shard_id])
        broker = Broker(searchers, shared_lanns.config)
        sequential = [
            broker.search("main", query, 8, ef=48)[0].tolist()
            for query in clustered_queries[:25]
        ]
        parallel = parallel_map(
            lambda query: broker.search("main", query, 8, ef=48)[0].tolist(),
            clustered_queries[:25],
        )
        assert parallel == sequential
