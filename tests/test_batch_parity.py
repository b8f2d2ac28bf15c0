"""Equivalence tests for the batched query engine.

The batched path must be a pure throughput optimisation: every layer's
``search_batch`` has to return *identical* ids and distances to looping
the single-query ``search`` over the same queries, because both run the
same lockstep kernel and the scoring primitives are batch-composition
invariant.  These tests pin that contract at the HNSW, shard, index,
broker and service levels, plus the batch-merge primitive underneath.
(Per-scorer, per-metric and lockstep-group-boundary cells of the HNSW
level live in ``test_search_body.py``.)
"""

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.core.topk import batch_top_k
from repro.distance.scorer import Scorer
from repro.hnsw.index import build_hnsw
from repro.online.broker import Broker
from repro.online.searcher import SearcherNode
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def hnsw(clustered_data):
    return build_hnsw(clustered_data, params=FAST_HNSW)


@pytest.fixture(scope="module")
def lanns(clustered_data):
    config = LannsConfig(
        num_shards=2,
        num_segments=2,
        segmenter="rh",
        hnsw=FAST_HNSW,
        segmenter_sample_size=600,
        seed=11,
    )
    return build_lanns_index(clustered_data, config=config)


@pytest.fixture(scope="module")
def broker(lanns):
    searchers = [SearcherNode(0), SearcherNode(1)]
    for shard_id, searcher in enumerate(searchers):
        searcher.host("main", lanns.shards[shard_id])
    return Broker(searchers, lanns.config)


class TestScorerBatchKernels:
    def test_prepare_queries_is_batch_invariant(self, clustered_data):
        for metric in ("euclidean", "cosine", "inner_product"):
            scorer = Scorer(metric, clustered_data.shape[1])
            scorer.add(clustered_data[:50])
            batch = scorer.prepare_queries(clustered_data[50:60])
            for row in range(10):
                (alone,) = scorer.prepare_queries(
                    clustered_data[50 + row : 51 + row]
                )
                np.testing.assert_array_equal(batch[row], alone)

    def test_score_pairs_is_batch_invariant(self, clustered_data):
        """The same (query, id) pair scores identically in any batch."""
        rng = np.random.default_rng(0)
        for metric in ("euclidean", "cosine", "inner_product"):
            scorer = Scorer(metric, clustered_data.shape[1])
            scorer.add(clustered_data[:100])
            queries = scorer.prepare_queries(clustered_data[100:108])
            query_sq = scorer.query_sq_norms(queries)
            query_rows = rng.integers(0, 8, size=40)
            ids = rng.integers(0, 100, size=40)
            full = scorer.score_pairs(queries, query_rows, ids, query_sq)
            for pair in range(40):
                one_query = queries[query_rows[pair]][np.newaxis, :]
                alone = scorer.score_pairs(
                    one_query,
                    np.zeros(1, dtype=np.int64),
                    ids[pair : pair + 1],
                    scorer.query_sq_norms(one_query),
                )
                assert alone[0] == full[pair], (metric, pair)

    def test_score_all_batch_rows_match_a_batch_of_one(self, clustered_data):
        for metric in ("euclidean", "cosine", "inner_product"):
            scorer = Scorer(metric, clustered_data.shape[1])
            scorer.add(clustered_data[:80])
            queries = scorer.prepare_queries(clustered_data[80:85])
            block = scorer.score_all_batch(queries)
            assert block.shape == (5, 80)
            for row in range(5):
                np.testing.assert_allclose(
                    block[row],
                    scorer.score_all_batch(queries[row : row + 1])[0],
                    rtol=1e-5,
                    atol=1e-4,
                )


class TestBatchTopK:
    def test_sorts_and_pads(self):
        ids = np.array([[3, 1, 2], [7, -1, -1]], dtype=np.int64)
        dists = np.array([[0.3, 0.1, 0.2], [0.5, np.inf, np.inf]])
        out_ids, out_dists = batch_top_k(dists, ids, 2)
        np.testing.assert_array_equal(out_ids, [[1, 2], [7, -1]])
        np.testing.assert_array_equal(out_dists, [[0.1, 0.2], [0.5, np.inf]])

    def test_dedupe_keeps_best_distance(self):
        ids = np.array([[4, 4, 9]], dtype=np.int64)
        dists = np.array([[0.8, 0.2, 0.5]])
        out_ids, out_dists = batch_top_k(dists, ids, 3)
        np.testing.assert_array_equal(out_ids, [[4, 9, -1]])
        np.testing.assert_array_equal(out_dists, [[0.2, 0.5, np.inf]])

    def test_tie_break_by_id(self):
        ids = np.array([[9, 2, 5]], dtype=np.int64)
        dists = np.array([[0.5, 0.5, 0.5]])
        out_ids, _ = batch_top_k(dists, ids, 3)
        np.testing.assert_array_equal(out_ids, [[2, 5, 9]])

    def test_no_cross_row_dedupe(self):
        """The same id in different rows must survive in both."""
        ids = np.array([[6, -1], [6, -1]], dtype=np.int64)
        dists = np.array([[0.4, np.inf], [0.9, np.inf]])
        out_ids, out_dists = batch_top_k(dists, ids, 1)
        np.testing.assert_array_equal(out_ids, [[6], [6]])
        np.testing.assert_array_equal(out_dists, [[0.4], [0.9]])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            batch_top_k(np.zeros((1, 1)), np.zeros((1, 1), np.int64), 0)

    def test_no_cross_row_key_collision_with_negative_ids(self):
        """Arbitrary int ids must not alias across rows in the dedupe."""
        ids = np.array([[3, 1], [-2, 0]], dtype=np.int64)
        dists = np.array([[0.1, 0.2], [0.3, 0.1]])
        out_ids, out_dists = batch_top_k(dists, ids, 2)
        np.testing.assert_array_equal(out_ids, [[3, 1], [0, -2]])
        np.testing.assert_array_equal(out_dists, [[0.1, 0.2], [0.1, 0.3]])

    def test_huge_ids_no_overflow(self):
        """Snowflake-scale int64 ids must dedupe without key overflow."""
        huge = 2**62 - 1
        ids = np.tile(np.array([[huge, 0, -1]], dtype=np.int64), (5, 1))
        dists = np.tile(np.array([[0.2, 0.3, np.inf]]), (5, 1))
        out_ids, out_dists = batch_top_k(dists, ids, 2)
        np.testing.assert_array_equal(out_ids, np.tile([[huge, 0]], (5, 1)))
        np.testing.assert_array_equal(out_dists, np.tile([[0.2, 0.3]], (5, 1)))


class TestHnswBatchParity:
    @pytest.mark.parametrize("k,ef", [(1, None), (5, 32), (10, 64)])
    def test_batch_equals_single_loop(self, hnsw, clustered_queries, k, ef):
        batch_ids, batch_dists = hnsw.search_batch(clustered_queries, k, ef=ef)
        for row, query in enumerate(clustered_queries):
            single_ids, single_dists = hnsw.search(query, k, ef=ef)
            count = len(single_ids)
            np.testing.assert_array_equal(batch_ids[row, :count], single_ids)
            np.testing.assert_array_equal(
                batch_dists[row, :count], single_dists
            )
            assert (batch_ids[row, count:] == -1).all()

    def test_batch_composition_invariant(self, hnsw, clustered_queries):
        """Chunking the stream differently must not change any result."""
        whole_ids, whole_dists = hnsw.search_batch(clustered_queries, 8, ef=48)
        chunked_ids = np.concatenate(
            [
                hnsw.search_batch(clustered_queries[start : start + 7], 8, ef=48)[0]
                for start in range(0, len(clustered_queries), 7)
            ]
        )
        np.testing.assert_array_equal(whole_ids, chunked_ids)
        assert whole_dists.shape == (len(clustered_queries), 8)

    def test_empty_batch(self, hnsw):
        ids, dists = hnsw.search_batch(
            np.empty((0, hnsw.dim), dtype=np.float32), 5
        )
        assert ids.shape == (0, 5)
        assert dists.shape == (0, 5)

    def test_negative_external_ids_rejected(self, clustered_data):
        """-1 is the batch padding sentinel, so ids must be >= 0."""
        from repro.hnsw.index import HnswIndex

        index = HnswIndex(dim=clustered_data.shape[1], params=FAST_HNSW)
        with pytest.raises(ValueError, match="non-negative"):
            index.add(clustered_data[:2], ids=np.array([-1, 4]))

    def test_negative_ids_rejected_on_load(self, clustered_data):
        """from_arrays enforces the same id invariant as add()."""
        from repro.hnsw.index import HnswIndex

        index = build_hnsw(clustered_data[:20], params=FAST_HNSW)
        payload = index.to_arrays()
        payload["external_ids"] = payload["external_ids"] - 5
        with pytest.raises(ValueError, match="negative external ids"):
            HnswIndex.from_arrays(payload)


class TestLannsIndexBatchParity:
    def test_query_batch_equals_query_loop(self, lanns, clustered_queries):
        batch_ids, batch_dists = lanns.query_batch(
            clustered_queries, 10, ef=48
        )
        for row, query in enumerate(clustered_queries):
            single_ids, single_dists = lanns.query(query, 10, ef=48)
            count = len(single_ids)
            np.testing.assert_array_equal(batch_ids[row, :count], single_ids)
            np.testing.assert_array_equal(
                batch_dists[row, :count], single_dists
            )

    def test_shard_search_batch_matches_search(self, lanns, clustered_queries):
        shard = lanns.shards[0]
        batch_ids, batch_dists = shard.search_batch(
            clustered_queries[:15], 7, ef=48
        )
        for row in range(15):
            single = shard.search(clustered_queries[row], 7, ef=48)
            pairs = [
                (float(dist), int(item))
                for dist, item in zip(batch_dists[row], batch_ids[row])
                if item >= 0
            ]
            assert pairs == single

    def test_empty_batch(self, lanns):
        ids, dists = lanns.query_batch(
            np.empty((0, lanns.dim), dtype=np.float32), 4
        )
        assert ids.shape == (0, 4)
        assert dists.shape == (0, 4)


class TestBrokerBatchParity:
    def test_search_batch_equals_search_loop(self, broker, clustered_queries):
        batch_ids, batch_dists = broker.search_batch(
            "main", clustered_queries, 10, ef=48
        )
        for row, query in enumerate(clustered_queries):
            single_ids, single_dists = broker.search("main", query, 10, ef=48)
            count = len(single_ids)
            np.testing.assert_array_equal(batch_ids[row, :count], single_ids)
            np.testing.assert_array_equal(
                batch_dists[row, :count], single_dists
            )

    def test_batch_matches_in_memory_index(
        self, lanns, broker, clustered_queries
    ):
        broker_ids, _ = broker.search_batch("main", clustered_queries, 10)
        index_ids, _ = lanns.query_batch(clustered_queries, 10)
        np.testing.assert_array_equal(broker_ids, index_ids)

    def test_empty_batch(self, lanns, broker):
        ids, dists = broker.search_batch(
            "main", np.empty((0, lanns.dim), dtype=np.float32), 3
        )
        assert ids.shape == (0, 3)
        assert dists.shape == (0, 3)


class TestServiceBatchServing:
    @pytest.fixture
    def service(self, lanns, fs):
        from repro.online.service import OnlineService
        from repro.storage.manifest import save_lanns_index

        save_lanns_index(lanns, fs, "prod/batch")
        service = OnlineService()
        service.deploy(fs, "prod/batch")
        return service

    def test_query_batch_parity(self, service, clustered_queries):
        batch_ids, _ = service.query_batch(clustered_queries[:10], 5)
        for row in range(10):
            single_ids, _ = service.query(clustered_queries[row], 5)
            count = len(single_ids)
            np.testing.assert_array_equal(batch_ids[row, :count], single_ids)

    def test_measure_qps_batch_mode(self, service, clustered_queries):
        stats = service.measure_qps(clustered_queries[:16], 5, batch_size=8)
        assert stats["count"] == 16
        assert stats["batch_size"] == 8
        assert stats["qps"] > 0

    def test_measure_qps_invalid_batch_size(self, service, clustered_queries):
        with pytest.raises(ValueError, match="batch_size"):
            service.measure_qps(clustered_queries[:4], 5, batch_size=0)
