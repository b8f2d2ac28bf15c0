"""Tests for the Random Segmenter and the segmenter registry."""

import numpy as np
import pytest

from repro.segmenters.base import (
    get_segmenter_class,
    registered_kinds,
    segmenter_from_dict,
)
from repro.segmenters.random_segmenter import RandomSegmenter


class TestRegistry:
    def test_all_kinds_registered(self):
        assert registered_kinds() == ["apd", "kmeans", "rh", "rs"]

    def test_lookup(self):
        assert get_segmenter_class("rs") is RandomSegmenter

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown segmenter"):
            get_segmenter_class("nope")

    def test_from_dict_requires_kind(self):
        with pytest.raises(ValueError, match="kind"):
            segmenter_from_dict({"num_segments": 4})


class TestRandomSegmenter:
    def test_always_fitted(self):
        segmenter = RandomSegmenter(4)
        assert segmenter.is_fitted
        assert segmenter.fit(np.ones((2, 3))) is segmenter

    def test_invalid_num_segments(self):
        with pytest.raises(ValueError):
            RandomSegmenter(0)

    def test_data_routed_to_single_segment(self, clustered_data):
        segmenter = RandomSegmenter(8, seed=1)
        routes = segmenter.route_data_batch(clustered_data)
        assert all(len(route) == 1 for route in routes)
        assert all(0 <= route[0] < 8 for route in routes)

    def test_assignment_roughly_uniform(self, clustered_data):
        segmenter = RandomSegmenter(4, seed=2)
        routes = segmenter.route_data_batch(clustered_data)
        counts = np.bincount([route[0] for route in routes], minlength=4)
        expected = len(clustered_data) / 4
        assert (np.abs(counts - expected) < 4 * np.sqrt(expected)).all()

    def test_queries_fan_out_to_all_segments(self, clustered_queries):
        segmenter = RandomSegmenter(5, seed=0)
        routes = segmenter.route_query_batch(clustered_queries)
        assert all(route == (0, 1, 2, 3, 4) for route in routes)

    def test_single_point_routing(self, clustered_data):
        segmenter = RandomSegmenter(4, seed=3)
        (route,) = segmenter.route_data_batch(clustered_data[:1])
        assert len(route) == 1

    def test_serialization_roundtrip_preserves_stream(self, clustered_data):
        segmenter = RandomSegmenter(4, seed=5)
        segmenter.route_data_batch(clustered_data[:10])
        payload = segmenter.to_dict()
        restored = segmenter_from_dict(payload)
        # Both should produce the identical *next* batch of assignments.
        original_next = segmenter.route_data_batch(clustered_data[10:20])
        restored_next = restored.route_data_batch(clustered_data[10:20])
        assert original_next == restored_next

    def test_determinism_across_instances(self, clustered_data):
        a = RandomSegmenter(4, seed=7)
        b = RandomSegmenter(4, seed=7)
        assert a.route_data_batch(clustered_data[:50]) == (
            b.route_data_batch(clustered_data[:50])
        )

    def test_different_seeds_differ(self, clustered_data):
        a = RandomSegmenter(4, seed=1)
        b = RandomSegmenter(4, seed=2)
        assert a.route_data_batch(clustered_data[:50]) != (
            b.route_data_batch(clustered_data[:50])
        )
