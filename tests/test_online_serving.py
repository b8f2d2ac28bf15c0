"""Tests for the online tier: searchers, broker, service (Fig 9)."""

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.errors import MetadataMismatchError
from repro.net.server import SearcherServer
from repro.online.broker import Broker
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from repro.storage.manifest import save_lanns_index
from tests.conftest import FAST_HNSW, LANNS_2X2, LANNS_PATH, host_all


@pytest.fixture
def service(lanns, fs):
    save_lanns_index(lanns, fs, "prod/main")
    service = OnlineService()
    service.deploy(fs, "prod/main")
    return service


class TestSearcherNode:
    def test_host_and_search(self, lanns, clustered_queries):
        searcher = SearcherNode(0)
        searcher.host("main", lanns.shards[0])
        ids, dists = searcher.search_batch("main", clustered_queries[:1], 5)
        assert ids.shape == dists.shape == (1, 5)

    def test_shard_id_must_match(self, lanns):
        searcher = SearcherNode(1)
        with pytest.raises(ValueError, match="cannot host"):
            searcher.host("main", lanns.shards[0])

    def test_double_host_rejected(self, lanns):
        searcher = SearcherNode(0)
        searcher.host("main", lanns.shards[0])
        with pytest.raises(ValueError, match="already hosts"):
            searcher.host("main", lanns.shards[0])

    def test_unknown_index_search(self, lanns, clustered_queries):
        searcher = SearcherNode(0)
        with pytest.raises(KeyError, match="does not host"):
            searcher.search_batch("ghost", clustered_queries[:1], 5)

    def test_ab_hosting_and_unhost(self, lanns, clustered_data):
        searcher = SearcherNode(0)
        searcher.host("model-a", lanns.shards[0])
        variant = build_lanns_index(
            clustered_data[:300],
            config=lanns.config.with_updates(seed=99),
        )
        searcher.host("model-b", variant.shards[0])
        assert searcher.hosted_indices == ["model-a", "model-b"]
        assert searcher.stats()["memory_vectors"] == len(lanns.shards[0]) + len(
            variant.shards[0]
        )
        searcher.unhost("model-b")
        assert searcher.hosted_indices == ["model-a"]
        with pytest.raises(KeyError):
            searcher.unhost("model-b")


class TestBroker:
    def test_searcher_order_enforced(self):
        searchers = [SearcherNode(1), SearcherNode(0)]
        with pytest.raises(ValueError, match="shard order"):
            Broker(searchers, LANNS_2X2)

    def test_searcher_count_enforced(self):
        with pytest.raises(ValueError, match="searchers"):
            Broker([SearcherNode(0)], LANNS_2X2)

    def test_budget_passed_to_shards(self, lanns):
        searchers = host_all(lanns)
        broker = Broker(searchers, LANNS_2X2)
        assert broker.per_shard_budget(100) < 100

    def test_query_batch_padding(self, lanns, clustered_queries):
        broker = Broker(host_all(lanns), LANNS_2X2)
        response = broker.execute(SearchRequest(clustered_queries[:3], 5, "main"))
        assert response.ids.shape == (3, 5)


class TestBudgetAndPaddingDegenerateCases:
    """perShardTopK and padding sentinels in the shapes micro-batch
    coalescing can produce: top_k beyond the corpus, one shard, and
    empty batches."""

    def test_single_shard_budget_is_exactly_topk(self, clustered_data):
        config = LannsConfig(
            num_shards=1, hnsw=FAST_HNSW, segmenter_sample_size=600
        )
        index = build_lanns_index(clustered_data[:200], config=config)
        broker = Broker(host_all(index), config)
        for top_k in (1, 7, 100, 1000):
            assert broker.per_shard_budget(top_k) == top_k

    def test_budget_bounds_for_many_shards(self, lanns):
        broker = Broker(host_all(lanns), LANNS_2X2)
        for top_k in (1, 2, 10, 100):
            budget = broker.per_shard_budget(top_k)
            assert 1 <= budget <= top_k
            assert budget * LANNS_2X2.num_shards >= top_k

    def test_topk_beyond_corpus_pads_with_sentinels(
        self, lanns, clustered_queries
    ):
        broker = Broker(host_all(lanns), LANNS_2X2)
        top_k = len(lanns) + 17  # more than every stored vector
        response = broker.execute(
            SearchRequest(clustered_queries[:4], top_k, "main", 48)
        )
        ids, dists = response.ids, response.dists
        assert ids.shape == (4, top_k)
        for row in range(4):
            valid = ids[row] >= 0
            count = int(valid.sum())
            assert 0 < count <= len(lanns)
            # Valid results first, then sentinel padding -- contiguously.
            assert valid[:count].all() and not valid[count:].any()
            assert np.isinf(dists[row][~valid]).all()
            assert (np.diff(dists[row][valid]) >= 0).all()
            row_ids = ids[row][valid]
            assert len(set(row_ids.tolist())) == count  # no duplicates
        # A one-row request pads exactly as its row of the batch.
        single = broker.execute(
            SearchRequest(clustered_queries[0], top_k, "main", 48)
        )
        np.testing.assert_array_equal(single.ids, ids[:1])
        np.testing.assert_array_equal(single.dists, dists[:1])

    def test_empty_batch_returns_shaped_sentinels_without_fanout(self, lanns):
        nodes = host_all(lanns)
        broker = Broker(nodes, LANNS_2X2)
        before = [searcher.tally.snapshot() for searcher in nodes]
        response = broker.execute(
            SearchRequest(np.empty((0, 16), dtype=np.float32), 9, "main")
        )
        ids, dists = response.ids, response.dists
        assert ids.shape == (0, 9) and dists.shape == (0, 9)
        assert ids.dtype == np.int64 and dists.dtype == np.float64
        after = [searcher.tally.snapshot() for searcher in nodes]
        assert after == before  # no shard was bothered


class TestNonFiniteQueries:
    """A query row holding NaN or inf is refused with the same
    ``ValueError`` by the shard, an inline broker and a remote one --
    the brokers before any shard is asked."""

    MESSAGE = "queries hold NaN or infinite values"

    @pytest.fixture(scope="class")
    def remote(self, lanns_fs):
        servers = [
            SearcherServer(SearcherNode(shard), root=str(lanns_fs.root)).start_in_thread()
            for shard in range(LANNS_2X2.num_shards)
        ]
        service = OnlineService(searchers=[server.address for server in servers])
        service.deploy(lanns_fs, LANNS_PATH)
        yield service, servers
        service.close()
        for server in servers:
            server.stop()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_every_venue_refuses_it(self, lanns, clustered_queries, remote, bad):
        service, servers = remote
        queries = clustered_queries[:3].copy()
        queries[0, 0] = bad
        nodes = host_all(lanns)
        inline = Broker(nodes, LANNS_2X2)
        served = [server.stats()["counts"].get("requests_served", 0) for server in servers]
        for search in (
            lambda: lanns.shards[0].search_batch(queries, 5),
            lambda: inline.execute(SearchRequest(queries, 5, "main")),
            lambda: service.execute(SearchRequest(queries, 5)),
        ):
            with pytest.raises(ValueError, match=self.MESSAGE) as refused:
                search()
            assert type(refused.value) is ValueError
        assert [node.stats()["counts"] for node in nodes] == [{}, {}]
        assert [
            server.stats()["counts"].get("requests_served", 0) for server in servers
        ] == served

class TestOnlineService:
    def test_double_deploy_rejected(self, service, fs):
        with pytest.raises(ValueError, match="already deployed"):
            service.deploy(fs, "prod/main")

    def test_config_drift_guard(self, lanns, fs):
        save_lanns_index(lanns, fs, "prod/main")
        service = OnlineService()
        with pytest.raises(MetadataMismatchError):
            service.deploy(
                fs,
                "prod/main",
                expected_config=LANNS_2X2.with_updates(topk_confidence=0.9),
            )

    def test_ab_deployment(self, service, fs, clustered_data, lanns, clustered_queries):
        variant = build_lanns_index(
            clustered_data,
            config=lanns.config.with_updates(seed=123),
        )
        save_lanns_index(variant, fs, "prod/variant")
        service.deploy(fs, "prod/variant", index_name="variant")
        assert service.deployed_indices == ["default", "variant"]
        a = service.execute(SearchRequest(clustered_queries[0], 5, "default"))
        b = service.execute(SearchRequest(clustered_queries[0], 5, "variant"))
        assert (a.ids >= 0).sum() == (b.ids >= 0).sum() == 5
        service.undeploy("variant")
        assert service.deployed_indices == ["default"]
        with pytest.raises(KeyError):
            service.execute(SearchRequest(clustered_queries[0], 5, "variant"))

    def test_unknown_index_query(self, service, clustered_queries):
        with pytest.raises(KeyError, match="not deployed"):
            service.execute(SearchRequest(clustered_queries[0], 5, "nope"))

    def test_shard_count_mismatch_on_shared_fleet(self, service, fs, clustered_data):
        other = build_lanns_index(
            clustered_data[:200],
            config=LannsConfig(num_shards=1, hnsw=FAST_HNSW),
        )
        save_lanns_index(other, fs, "prod/other")
        with pytest.raises(ValueError, match="searchers"):
            service.deploy(fs, "prod/other", index_name="other")
