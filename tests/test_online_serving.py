"""Tests for the online tier: searchers, broker, service (Fig 9)."""

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.errors import MetadataMismatchError
from repro.online.broker import Broker
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
from repro.storage.manifest import save_lanns_index
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def config():
    return LannsConfig(
        num_shards=2,
        num_segments=2,
        segmenter="rh",
        hnsw=FAST_HNSW,
        segmenter_sample_size=600,
        seed=6,
    )


@pytest.fixture(scope="module")
def index(clustered_data, config):
    return build_lanns_index(clustered_data, config=config)


@pytest.fixture
def service(index, fs):
    save_lanns_index(index, fs, "prod/main")
    service = OnlineService()
    service.deploy(fs, "prod/main")
    return service


class TestSearcherNode:
    def test_host_and_search(self, index, clustered_queries):
        searcher = SearcherNode(0)
        searcher.host("main", index.shards[0])
        ids, dists = searcher.search_batch("main", clustered_queries[:1], 5)
        assert ids.shape == dists.shape == (1, 5)

    def test_shard_id_must_match(self, index):
        searcher = SearcherNode(1)
        with pytest.raises(ValueError, match="cannot host"):
            searcher.host("main", index.shards[0])

    def test_double_host_rejected(self, index):
        searcher = SearcherNode(0)
        searcher.host("main", index.shards[0])
        with pytest.raises(ValueError, match="already hosts"):
            searcher.host("main", index.shards[0])

    def test_unknown_index_search(self, index, clustered_queries):
        searcher = SearcherNode(0)
        with pytest.raises(KeyError, match="does not host"):
            searcher.search_batch("ghost", clustered_queries[:1], 5)

    def test_ab_hosting_and_unhost(self, index, clustered_data):
        searcher = SearcherNode(0)
        searcher.host("model-a", index.shards[0])
        variant = build_lanns_index(
            clustered_data[:300],
            config=index.config.with_updates(seed=99),
        )
        searcher.host("model-b", variant.shards[0])
        assert searcher.hosted_indices == ["model-a", "model-b"]
        assert searcher.memory_vectors() == len(index.shards[0]) + len(
            variant.shards[0]
        )
        searcher.unhost("model-b")
        assert searcher.hosted_indices == ["model-a"]
        with pytest.raises(KeyError):
            searcher.unhost("model-b")


class TestBroker:
    def test_broker_matches_in_memory_index(self, index, clustered_queries, config):
        searchers = [SearcherNode(0), SearcherNode(1)]
        for shard_id, searcher in enumerate(searchers):
            searcher.host("main", index.shards[shard_id])
        broker = Broker(searchers, config)
        for query in clustered_queries[:10]:
            broker_ids, _ = broker.search("main", query, 10, ef=64)
            index_ids, _ = index.query(query, 10, ef=64)
            np.testing.assert_array_equal(broker_ids, index_ids)

    def test_searcher_order_enforced(self, index, config):
        searchers = [SearcherNode(1), SearcherNode(0)]
        with pytest.raises(ValueError, match="shard order"):
            Broker(searchers, config)

    def test_searcher_count_enforced(self, index, config):
        with pytest.raises(ValueError, match="searchers"):
            Broker([SearcherNode(0)], config)

    def test_budget_passed_to_shards(self, index, config):
        searchers = [SearcherNode(0), SearcherNode(1)]
        for shard_id, searcher in enumerate(searchers):
            searcher.host("main", index.shards[shard_id])
        broker = Broker(searchers, config)
        assert broker.per_shard_budget(100) < 100
        off = Broker(
            searchers, config.with_updates(use_per_shard_topk=False)
        )
        assert off.per_shard_budget(100) == 100

    def test_query_batch_padding(self, index, clustered_queries, config):
        searchers = [SearcherNode(0), SearcherNode(1)]
        for shard_id, searcher in enumerate(searchers):
            searcher.host("main", index.shards[shard_id])
        broker = Broker(searchers, config)
        ids, dists = broker.search_batch("main", clustered_queries[:3], 5)
        assert ids.shape == (3, 5)


class TestBudgetAndPaddingDegenerateCases:
    """perShardTopK and padding sentinels in the shapes micro-batch
    coalescing can produce: top_k beyond the corpus, one shard, and
    empty batches."""

    def make_broker(self, index, config, **kwargs):
        searchers = [SearcherNode(0), SearcherNode(1)]
        for shard_id, searcher in enumerate(searchers):
            searcher.host("main", index.shards[shard_id])
        return Broker(searchers, config, **kwargs)

    def test_single_shard_budget_is_exactly_topk(self, clustered_data):
        config = LannsConfig(
            num_shards=1, hnsw=FAST_HNSW, segmenter_sample_size=600
        )
        index = build_lanns_index(clustered_data[:200], config=config)
        searcher = SearcherNode(0)
        searcher.host("main", index.shards[0])
        broker = Broker([searcher], config)
        for top_k in (1, 7, 100, 1000):
            assert broker.per_shard_budget(top_k) == top_k

    def test_budget_bounds_for_many_shards(self, index, config):
        broker = self.make_broker(index, config)
        for top_k in (1, 2, 10, 100):
            budget = broker.per_shard_budget(top_k)
            assert 1 <= budget <= top_k
            assert budget * config.num_shards >= top_k

    def test_topk_beyond_corpus_pads_with_sentinels(
        self, index, clustered_queries, config
    ):
        broker = self.make_broker(index, config)
        top_k = len(index) + 17  # more than every stored vector
        ids, dists = broker.search_batch(
            "main", clustered_queries[:4], top_k, ef=48
        )
        assert ids.shape == (4, top_k)
        for row in range(4):
            valid = ids[row] >= 0
            count = int(valid.sum())
            assert 0 < count <= len(index)
            # Valid results first, then sentinel padding -- contiguously.
            assert valid[:count].all() and not valid[count:].any()
            assert np.isinf(dists[row][~valid]).all()
            assert (np.diff(dists[row][valid]) >= 0).all()
            row_ids = ids[row][valid]
            assert len(set(row_ids.tolist())) == count  # no duplicates
        # The single-query wrapper strips the same padding.
        single_ids, single_dists = broker.search(
            "main", clustered_queries[0], top_k, ef=48
        )
        assert (single_ids >= 0).all()
        assert np.isfinite(single_dists).all()
        np.testing.assert_array_equal(single_ids, ids[0][ids[0] >= 0])

    def test_topk_beyond_corpus_matches_sequential_under_microbatch(
        self, index, clustered_queries, config
    ):
        plain = self.make_broker(index, config)
        core = self.make_broker(
            index, config, max_batch=4, max_wait_ms=5.0, cache_size=16
        )
        top_k = len(index) + 5
        try:
            for query in clustered_queries[:3]:
                want = plain.search("main", query, top_k, ef=48)
                got_cold = core.search("main", query, top_k, ef=48)
                got_hot = core.search("main", query, top_k, ef=48)
                np.testing.assert_array_equal(got_cold[0], want[0])
                np.testing.assert_array_equal(got_hot[0], want[0])
                np.testing.assert_array_equal(got_hot[1], want[1])
        finally:
            plain.close()
            core.close()

    def test_empty_batch_returns_shaped_sentinels_without_fanout(
        self, index, config
    ):
        broker = self.make_broker(index, config)
        before = sum(s.requests_served for s in broker.searchers)
        ids, dists = broker.search_batch(
            "main", np.empty((0, 16), dtype=np.float32), 9
        )
        assert ids.shape == (0, 9) and dists.shape == (0, 9)
        assert ids.dtype == np.int64 and dists.dtype == np.float64
        after = sum(s.requests_served for s in broker.searchers)
        assert after == before  # no shard was bothered


class TestOnlineService:
    def test_deploy_and_query(self, service, index, clustered_queries):
        for query in clustered_queries[:10]:
            online_ids, _ = service.query(query, 10, ef=64)
            memory_ids, _ = index.query(query, 10, ef=64)
            np.testing.assert_array_equal(online_ids, memory_ids)

    def test_double_deploy_rejected(self, service, fs):
        with pytest.raises(ValueError, match="already deployed"):
            service.deploy(fs, "prod/main")

    def test_config_drift_guard(self, index, fs, config):
        save_lanns_index(index, fs, "prod/main")
        service = OnlineService()
        with pytest.raises(MetadataMismatchError):
            service.deploy(
                fs,
                "prod/main",
                expected_config=config.with_updates(topk_confidence=0.9),
            )

    def test_ab_deployment(self, service, fs, clustered_data, index, clustered_queries):
        variant = build_lanns_index(
            clustered_data,
            config=index.config.with_updates(seed=123),
        )
        save_lanns_index(variant, fs, "prod/variant")
        service.deploy(fs, "prod/variant", index_name="variant")
        assert service.deployed_indices == ["default", "variant"]
        ids_a, _ = service.query(clustered_queries[0], 5, index_name="default")
        ids_b, _ = service.query(clustered_queries[0], 5, index_name="variant")
        assert len(ids_a) == len(ids_b) == 5
        service.undeploy("variant")
        assert service.deployed_indices == ["default"]
        with pytest.raises(KeyError):
            service.query(clustered_queries[0], 5, index_name="variant")

    def test_unknown_index_query(self, service, clustered_queries):
        with pytest.raises(KeyError, match="not deployed"):
            service.query(clustered_queries[0], 5, index_name="nope")

    def test_measure_qps_stats(self, service, clustered_queries):
        stats = service.measure_qps(clustered_queries[:10], 5)
        assert stats["count"] == 10
        assert stats["qps"] > 0
        assert stats["p99_latency_ms"] >= stats["mean_latency_ms"] * 0.5

    def test_shard_count_mismatch_on_shared_fleet(self, service, fs, clustered_data):
        other = build_lanns_index(
            clustered_data[:200],
            config=LannsConfig(num_shards=1, hnsw=FAST_HNSW),
        )
        save_lanns_index(other, fs, "prod/other")
        with pytest.raises(ValueError, match="searchers"):
            service.deploy(fs, "prod/other", index_name="other")
