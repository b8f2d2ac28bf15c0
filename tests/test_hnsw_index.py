"""End-to-end tests for the HnswIndex: recall, invariants, API contract."""

import numpy as np
import pytest

from repro.errors import IndexNotBuiltError, SerializationError
from repro.hnsw.index import HnswIndex, build_hnsw
from repro.offline.brute_force import exact_top_k
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def built(clustered_data):
    return build_hnsw(clustered_data, params=FAST_HNSW)


class TestConstruction:
    def test_empty_index(self):
        index = HnswIndex(dim=8)
        assert len(index) == 0
        assert index.max_level == -1
        with pytest.raises(IndexNotBuiltError):
            index.search(np.zeros(8, dtype=np.float32), 1)

    def test_incremental_equals_bulk_size(self, clustered_data):
        bulk = build_hnsw(clustered_data[:100], params=FAST_HNSW)
        incremental = HnswIndex(dim=clustered_data.shape[1], params=FAST_HNSW)
        for start in range(0, 100, 10):
            incremental.add(clustered_data[start : start + 10])
        assert len(bulk) == len(incremental) == 100

    def test_duplicate_ids_rejected(self, clustered_data):
        index = HnswIndex(dim=clustered_data.shape[1], params=FAST_HNSW)
        index.add(clustered_data[:5], ids=np.arange(5))
        with pytest.raises(ValueError, match="already present"):
            index.add(clustered_data[5:6], ids=np.array([3]))

    def test_duplicate_ids_within_batch_rejected(self, clustered_data):
        index = HnswIndex(dim=clustered_data.shape[1], params=FAST_HNSW)
        with pytest.raises(ValueError, match="duplicate ids"):
            index.add(clustered_data[:2], ids=np.array([1, 1]))

    def test_auto_ids_continue_after_custom(self, clustered_data):
        index = HnswIndex(dim=clustered_data.shape[1], params=FAST_HNSW)
        index.add(clustered_data[:3], ids=np.array([10, 20, 30]))
        index.add(clustered_data[3:5])
        assert set(index.external_ids.tolist()) == {10, 20, 30, 31, 32}

    def test_auto_ids_follow_the_largest_id_ever_added(self, clustered_data):
        """Mixed explicit / implicit adds: the running next id is one past
        the maximum, not one past the last."""
        index = HnswIndex(dim=clustered_data.shape[1], params=FAST_HNSW)
        index.add(clustered_data[:2], ids=np.array([10, 3]))
        index.add(clustered_data[2])
        index.add(clustered_data[3:5], ids=np.array([4, 7]))
        index.add(clustered_data[5:7])
        assert index.external_ids.tolist() == [10, 3, 11, 4, 7, 12, 13]

    def test_id_shape_mismatch_rejected(self, clustered_data):
        index = HnswIndex(dim=clustered_data.shape[1], params=FAST_HNSW)
        with pytest.raises(ValueError, match="shape"):
            index.add(clustered_data[:3], ids=np.arange(4))

    def test_dimension_mismatch_rejected(self):
        index = HnswIndex(dim=4, params=FAST_HNSW)
        with pytest.raises(ValueError):
            index.add(np.ones((2, 5), dtype=np.float32))

    def test_graph_invariants_hold(self, built):
        built.graph.check_invariants(built.params.M, 2 * built.params.M)

    def test_level_distribution_is_geometric_ish(self, built):
        """Most nodes live only on the base layer (power-law levels)."""
        levels = np.asarray(built.graph.levels)
        assert (levels == 0).mean() > 0.8
        assert levels.max() >= 1

    def test_deterministic_given_seed(self, clustered_data):
        first = build_hnsw(clustered_data[:150], params=FAST_HNSW)
        second = build_hnsw(clustered_data[:150], params=FAST_HNSW)
        assert first.graph.levels == second.graph.levels
        query = clustered_data[0]
        np.testing.assert_array_equal(
            first.search(query, 5)[0], second.search(query, 5)[0]
        )


class TestSearch:
    def test_high_recall_vs_exact(self, built, clustered_data, clustered_queries, clustered_truth):
        hits = 0
        for query, truth in zip(clustered_queries, clustered_truth):
            ids, _ = built.search(query, 10, ef=64)
            hits += len(set(ids.tolist()) & set(truth[:10].tolist()))
        recall = hits / (len(clustered_queries) * 10)
        assert recall >= 0.95

    def test_nearest_point_to_itself(self, built, clustered_data):
        for row in (0, 17, 311):
            ids, dists = built.search(clustered_data[row], 1, ef=32)
            assert ids[0] == row
            assert dists[0] == pytest.approx(0.0, abs=1e-3)

    def test_distances_ascending_and_true_scale(self, built, clustered_data, clustered_queries):
        query = clustered_queries[0]
        ids, dists = built.search(query, 10)
        assert np.all(np.diff(dists) >= -1e-9)
        direct = np.linalg.norm(clustered_data[ids[0]] - query)
        assert dists[0] == pytest.approx(direct, rel=1e-3)

    def test_k_larger_than_index(self, clustered_data):
        index = build_hnsw(clustered_data[:7], params=FAST_HNSW)
        ids, dists = index.search(clustered_data[0], 20)
        assert len(ids) == 7

    def test_invalid_k(self, built, clustered_queries):
        with pytest.raises(ValueError):
            built.search(clustered_queries[0], 0)

    def test_search_batch_padding(self, clustered_data, clustered_queries):
        index = build_hnsw(clustered_data[:5], params=FAST_HNSW)
        ids, dists = index.search_batch(clustered_queries[:3], 8)
        assert ids.shape == (3, 8)
        assert (ids[:, 5:] == -1).all()
        assert np.isinf(dists[:, 5:]).all()

    def test_empty_batch(self, built):
        ids, dists = built.search_batch(np.empty((0, built.dim), dtype=np.float32), 5)
        assert ids.shape == dists.shape == (0, 5)

    def test_negative_external_ids_rejected(self, clustered_data):
        """-1 is the batch padding sentinel, so ids must be >= 0 -- on
        ``add()`` and, the same invariant, in ``from_arrays``."""
        index = HnswIndex(dim=clustered_data.shape[1], params=FAST_HNSW)
        with pytest.raises(ValueError, match="non-negative"):
            index.add(clustered_data[:2], ids=np.array([-1, 4]))
        payload = build_hnsw(clustered_data[:20], params=FAST_HNSW).to_arrays()
        payload["external_ids"] = payload["external_ids"] - 5
        with pytest.raises(SerializationError, match="'external_ids'"):
            HnswIndex.from_arrays(payload)

    def test_higher_ef_never_lowers_recall_much(self, built, clustered_queries, clustered_truth):
        """ef is the accuracy knob: ef=96 must beat ef=4 on average."""
        def recall(ef):
            hits = 0
            for query, truth in zip(clustered_queries, clustered_truth):
                ids, _ = built.search(query, 10, ef=ef)
                hits += len(set(ids.tolist()) & set(truth[:10].tolist()))
            return hits / (len(clustered_queries) * 10)

        assert recall(96) >= recall(4)

    def test_external_ids_returned(self, clustered_data):
        offset_ids = np.arange(100) + 5000
        index = HnswIndex(dim=clustered_data.shape[1], params=FAST_HNSW)
        index.add(clustered_data[:100], ids=offset_ids)
        ids, _ = index.search(clustered_data[3], 5)
        assert ids[0] == 5003
        assert all(item >= 5000 for item in ids)

    def test_vector_accessor(self, clustered_data):
        index = build_hnsw(clustered_data[:10], params=FAST_HNSW)
        np.testing.assert_array_equal(index.vector(4), clustered_data[4])


class TestMetrics:
    @pytest.mark.parametrize("metric", ["cosine", "inner_product"])
    def test_alternative_metrics_agree_with_exact(self, metric, clustered_data, clustered_queries):
        index = build_hnsw(
            clustered_data[:300], metric=metric, params=FAST_HNSW
        )
        truth, _ = exact_top_k(
            clustered_data[:300], clustered_queries[:10], 5, metric=metric
        )
        hits = 0
        for row in range(10):
            ids, _ = index.search(clustered_queries[row], 5, ef=64)
            hits += len(set(ids.tolist()) & set(truth[row].tolist()))
        assert hits / 50 >= 0.9


class TestBruteForceFallback:
    """`min_graph_size`: tiny indices answer by an exact per-row scan."""

    def make_params(self, threshold: int):
        from dataclasses import replace

        return replace(FAST_HNSW, min_graph_size=threshold)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "inner_product"])
    def test_fallback_matches_exact_scan(
        self, metric, clustered_data, clustered_queries
    ):
        data = clustered_data[:120]
        index = build_hnsw(
            data, metric=metric, params=self.make_params(10_000)
        )
        got_ids, got_dists = index.search_batch(clustered_queries, 7)
        want_ids, want_dists = exact_top_k(
            data, clustered_queries, 7, metric=metric
        )
        np.testing.assert_array_equal(got_ids, want_ids)
        # Same math, different float32 accumulation orders (blocked scan
        # vs one GEMM): distances agree to float32 precision, not bits.
        np.testing.assert_allclose(got_dists, want_dists, rtol=1e-4, atol=1e-4)

    def test_threshold_boundary_switches_paths(self, clustered_data):
        """At exactly `min_graph_size` vectors the graph path serves; one
        below, the scan does.  Both are exact on well-separated data, so
        the boundary is observed through the distance-op counters."""
        data = clustered_data[:64]
        index = build_hnsw(data, params=self.make_params(len(data)))
        built_ops = index.distance_ops
        index.search(data[0], 3)
        graph_ops = index.distance_ops - built_ops
        fallback = build_hnsw(data, params=self.make_params(len(data) + 1))
        built_ops = fallback.distance_ops
        fallback.search(data[0], 3)
        # The scan scores every row exactly once per query.
        assert fallback.distance_ops - built_ops == len(data)
        assert graph_ops != len(data)

    def test_k_larger_than_corpus_pads(self, clustered_data):
        index = build_hnsw(clustered_data[:6], params=self.make_params(100))
        ids, dists = index.search_batch(clustered_data[:2], 10)
        assert ids.shape == (2, 10)
        assert (ids[:, 6:] == -1).all()
        assert np.isinf(dists[:, 6:]).all()
        assert (ids[:, :6] >= 0).all()

    def test_params_round_trip_preserves_threshold(self, clustered_data):
        from repro.hnsw.params import HnswParams

        params = self.make_params(37)
        assert HnswParams.from_dict(params.to_dict()) == params
        index = build_hnsw(clustered_data[:20], params=params)
        restored = HnswIndex.from_arrays(index.to_arrays())
        assert restored.params.min_graph_size == 37

    def test_shard_routes_tiny_segments_through_scan(
        self, clustered_data, clustered_queries
    ):
        """End to end through a LANNS index: tiny segments served by the
        scan give the same answers as the graph (exact >= approximate,
        and on this corpus both are exact)."""
        from repro.core.builder import build_lanns_index
        from repro.core.config import LannsConfig

        graph_config = LannsConfig(
            num_shards=1,
            num_segments=4,
            segmenter="rh",
            hnsw=FAST_HNSW,
            segmenter_sample_size=600,
            seed=29,
        )
        scan_config = graph_config.with_updates(
            hnsw=self.make_params(10_000)
        )
        graph_index = build_lanns_index(clustered_data, config=graph_config)
        scan_index = build_lanns_index(clustered_data, config=scan_config)
        truth, _ = exact_top_k(clustered_data, clustered_queries, 10)
        scan_ids, _ = scan_index.query_batch(clustered_queries, 10)
        graph_ids, _ = graph_index.query_batch(clustered_queries, 10)
        scan_recall = np.mean(
            [
                len(set(scan_ids[row].tolist()) & set(truth[row].tolist()))
                for row in range(truth.shape[0])
            ]
        ) / 10.0
        graph_recall = np.mean(
            [
                len(set(graph_ids[row].tolist()) & set(truth[row].tolist()))
                for row in range(truth.shape[0])
            ]
        ) / 10.0
        assert scan_recall >= graph_recall
        # Residual misses come from segment *routing* (virtual spill
        # probes 1-2 segments), which the exact scan cannot fix.
        assert scan_recall >= 0.9
