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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.core.topk import batch_top_k
from repro.distance import scorer as scorer_module
from repro.distance.scorer import QuantizedStore, Scorer
from repro.errors import SerializationError
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


def check_one_row_parity(kind, metric, dim, pairs, lattice, seed):
    """``score_pairs(q[None], <not read>, ids, q_sq)`` is, bit for bit,
    the same pairs scored from wherever ``q`` sits in a 2-, 7- or 64-row
    batch -- for the float scorer and both compressed views, with and
    without ``query_sq``.  ``lattice`` draws small integers, so equal
    distances (and exact zeros) are the common case, not the rare one."""
    rng = np.random.default_rng(seed)

    def draw(rows):
        if lattice:
            return rng.integers(-2, 3, size=(rows, dim)).astype(np.float32)
        return rng.standard_normal((rows, dim)).astype(np.float32)

    scorer = Scorer(metric, dim)
    scorer.add(draw(48))
    store = None if kind == "float" else QuantizedStore(scorer, kind)
    prepared = scorer.prepare_queries(draw(64))
    ids = rng.integers(0, len(scorer), size=pairs)

    def score(batch, query_rows, some_ids, with_sq):
        who = scorer if store is None else store.view(batch)
        query_sq = scorer.query_sq_norms(batch) if with_sq else None
        return who.score_pairs(batch, query_rows, some_ids, query_sq)

    for batch_rows in (2, 7, 64):
        batch = prepared[:batch_rows]
        query_rows = rng.integers(0, batch_rows, size=pairs)
        for with_sq in (True, False):
            full = score(batch, query_rows, ids, with_sq)
            assert full.dtype == np.float32
            for row in np.unique(query_rows):
                mine = query_rows == row
                zeros = np.zeros(int(mine.sum()), dtype=np.int64)
                for unread in (None, zeros):  # the kernels' / the ledger's
                    alone = score(
                        batch[row : row + 1], unread, ids[mine], with_sq
                    )
                    assert alone.tobytes() == full[mine].tobytes(), (
                        kind, metric, dim, pairs, batch_rows, int(row), with_sq,
                    )


class TestOneRowEqualsItsPlaceInAnyBatch:
    """The serving path scores a lockstep group of one row through its
    own branch of ``scorer._gather_dot``; micro-batching decides at run
    time whether a query is that row or one of many."""

    @given(
        st.sampled_from(["float", "int8", "pq"]),
        st.sampled_from(["euclidean", "cosine", "inner_product"]),
        st.integers(1, 130),
        st.integers(1, 80),
        st.booleans(),
        st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_score_pairs(self, kind, metric, dim, pairs, lattice, seed):
        check_one_row_parity(kind, metric, dim, pairs, lattice, seed)

    @pytest.mark.parametrize("kind", ["float", "int8"])
    @pytest.mark.parametrize("dim", [33, 64, 129])
    def test_a_blas_reduction_in_the_one_row_branch_is_caught(
        self, monkeypatch, kind, dim
    ):
        """``rows @ q`` (gemv) accumulates in another order than the
        ``einsum`` the other rows of a batch are reduced with: planted in
        the one-row branch, the property above must fail."""
        gather_dot = scorer_module._gather_dot

        def planted(data, ids, query_side, query_rows, query_const=None):
            if query_side.shape[0] != 1:
                return gather_dot(data, ids, query_side, query_rows, query_const)
            rows = data.take(ids, axis=0).astype(np.float32)
            return rows @ query_side[0], query_const

        check_one_row_parity(kind, "inner_product", dim, 77, False, 3)
        monkeypatch.setattr(scorer_module, "_gather_dot", planted)
        with pytest.raises(AssertionError):
            check_one_row_parity(kind, "inner_product", dim, 77, False, 3)


class TestBatchTopK:
    def test_a_canonical_block_re_merges_to_itself(self):
        """What a one-shard broker does on every request: merging the
        output of a merge is the identity, padding included."""
        rng = np.random.default_rng(4)
        for rows, cols, k in ((1, 10, 10), (3, 7, 10), (5, 30, 4)):
            dists = rng.integers(0, 6, size=(rows, cols)).astype(np.float64)
            ids = rng.integers(-1, 12, size=(rows, cols))
            dists[ids < 0] = np.inf
            merged = batch_top_k(dists, ids, k)
            again = batch_top_k(*merged[::-1], k)
            for want, got in zip(merged, again):
                assert want.dtype == got.dtype
                np.testing.assert_array_equal(want, got)

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
        with pytest.raises(SerializationError, match="'external_ids'"):
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
