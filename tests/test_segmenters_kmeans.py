"""Tests for the k-means segmenter (extensibility demonstration)."""

import numpy as np
import pytest

from repro.errors import SegmenterNotFittedError
from repro.segmenters.base import segmenter_from_dict
from repro.segmenters.kmeans_segmenter import KMeansSegmenter
from tests.conftest import make_clustered


@pytest.fixture(scope="module")
def data():
    # Overlapping clusters (small center scale): boundary traffic exists,
    # so the spill machinery has something to do.
    return make_clustered(800, 10, num_clusters=6, seed=51, scale=2.0)


@pytest.fixture(scope="module")
def fitted(data):
    return KMeansSegmenter(6, spill_threshold=0.7, seed=0).fit(data)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            KMeansSegmenter(0)
        with pytest.raises(ValueError):
            KMeansSegmenter(4, spill_threshold=0.0)
        with pytest.raises(ValueError):
            KMeansSegmenter(4, spill_threshold=1.5)
        with pytest.raises(ValueError):
            KMeansSegmenter(4, spill_mode="none")
        with pytest.raises(ValueError):
            KMeansSegmenter(4, kmeans_iters=0)

    def test_non_power_of_two_allowed(self, data):
        segmenter = KMeansSegmenter(5, seed=0).fit(data)
        routes = segmenter.route_data_batch(data)
        assert {route[0] for route in routes} <= set(range(5))

    def test_unfitted_routing_rejected(self, data):
        with pytest.raises(SegmenterNotFittedError):
            KMeansSegmenter(4).route_data_batch(data)

    def test_fit_requires_enough_points(self):
        with pytest.raises(ValueError, match="training points"):
            KMeansSegmenter(10).fit(np.ones((5, 3), dtype=np.float32))

    def test_registered(self):
        from repro.segmenters.base import registered_kinds

        assert "kmeans" in registered_kinds()


class TestRouting:
    def test_data_routes_to_nearest_cell(self, fitted, data):
        routes = fitted.route_data_batch(data)
        dists = np.linalg.norm(
            data[:, np.newaxis, :] - fitted.centers[np.newaxis], axis=2
        )
        nearest = np.argmin(dists, axis=1)
        for route, cell in zip(routes, nearest):
            assert route[0] == cell

    def test_virtual_spill_fans_out_boundary_queries(self, fitted, data):
        fanout = np.array(
            [len(route) for route in fitted.route_query_batch(data)]
        )
        assert fanout.max() <= 2
        # On clustered data, a minority of queries are near a boundary.
        assert 0.0 < (fanout == 2).mean() < 0.6

    def test_cluster_members_stay_together(self, data):
        """Points generated from the same Gaussian should mostly share a
        segment -- the locality property segmentation exists for."""
        segmenter = KMeansSegmenter(6, seed=1).fit(data)
        routes = segmenter.route_data_batch(data)
        base = data[:200]
        nudged = base + np.random.default_rng(0).normal(
            scale=1e-4, size=base.shape
        ).astype(np.float32)
        nudged_routes = segmenter.route_data_batch(nudged)
        same = sum(
            a[0] == b[0] for a, b in zip(routes[:200], nudged_routes)
        )
        assert same / 200 > 0.97

    def test_physical_spill_duplicates_data(self, data):
        physical = KMeansSegmenter(
            6, spill_threshold=0.6, spill_mode="physical", seed=0
        ).fit(data)
        total = sum(len(route) for route in physical.route_data_batch(data))
        assert total > len(data)
        # And its queries probe exactly one segment.
        query_routes = physical.route_query_batch(data[:50])
        assert all(len(route) == 1 for route in query_routes)

    def test_threshold_one_disables_spill(self, data):
        segmenter = KMeansSegmenter(6, spill_threshold=1.0, seed=0).fit(data)
        assert all(
            len(route) == 1 for route in segmenter.route_query_batch(data)
        )

    def test_single_segment(self, data):
        segmenter = KMeansSegmenter(1, seed=0).fit(data)
        assert segmenter.route_data_batch(data[:5]) == [(0,)] * 5
        assert segmenter.route_query_batch(data[:5]) == [(0,)] * 5


class TestSerialization:
    def test_roundtrip(self, fitted, data):
        restored = segmenter_from_dict(fitted.to_dict())
        assert isinstance(restored, KMeansSegmenter)
        assert restored.route_data_batch(data[:100]) == (
            fitted.route_data_batch(data[:100])
        )
        assert restored.route_query_batch(data[:100]) == (
            fitted.route_query_batch(data[:100])
        )

    def test_unfitted_roundtrip(self):
        restored = segmenter_from_dict(KMeansSegmenter(3).to_dict())
        assert not restored.is_fitted


class TestEndToEnd:
    def test_high_recall_in_shard_index(self, data):
        """KMeansSegmenter plugs into ShardIndex like any other."""
        from repro.core.index import ShardIndex
        from repro.hnsw.index import HnswIndex
        from repro.offline.brute_force import exact_top_k
        from tests.conftest import FAST_HNSW

        segmenter = KMeansSegmenter(4, spill_threshold=0.9, seed=2).fit(data)
        routes = segmenter.route_data_batch(data)
        segments = []
        for segment_id in range(4):
            rows = np.asarray(
                [i for i, route in enumerate(routes) if segment_id in route]
            )
            index = HnswIndex(dim=data.shape[1], params=FAST_HNSW)
            if rows.size:
                index.add(data[rows], ids=rows)
            segments.append(index)
        shard = ShardIndex(0, segments, segmenter)
        queries = data[:40]
        truth, _ = exact_top_k(data, queries, 5)
        hits = 0
        for row in range(len(queries)):
            ids, _ = shard.search_batch(queries[row : row + 1], 5, ef=48)
            hits += len(set(ids[0].tolist()) & set(truth[row].tolist()))
        assert hits / (len(queries) * 5) >= 0.85
