"""Tests for the hyperplane-tree segmenters (routing + spill mechanics)."""

import numpy as np
import pytest

from repro.errors import SegmenterNotFittedError
from repro.segmenters.base import segmenter_from_dict
from repro.segmenters.rh import RandomHyperplaneSegmenter
from tests.conftest import make_clustered


@pytest.fixture(scope="module")
def data():
    return make_clustered(800, 12, seed=3)


def fitted(num_segments, *, alpha=0.15, spill_mode="virtual", seed=0, data=None):
    segmenter = RandomHyperplaneSegmenter(
        num_segments, alpha=alpha, spill_mode=spill_mode, seed=seed
    )
    return segmenter.fit(data)


class TestConstruction:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="power of two"):
            RandomHyperplaneSegmenter(6)

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            RandomHyperplaneSegmenter(4, alpha=0.5)
        with pytest.raises(ValueError, match="alpha"):
            RandomHyperplaneSegmenter(4, alpha=-0.01)

    def test_spill_mode_validated(self):
        with pytest.raises(ValueError, match="spill_mode"):
            RandomHyperplaneSegmenter(4, spill_mode="both")

    def test_depth(self):
        assert RandomHyperplaneSegmenter(1).depth == 0
        assert RandomHyperplaneSegmenter(2).depth == 1
        assert RandomHyperplaneSegmenter(8).depth == 3

    def test_unfitted_routing_rejected(self, data):
        segmenter = RandomHyperplaneSegmenter(4)
        assert not segmenter.is_fitted
        with pytest.raises(SegmenterNotFittedError):
            segmenter.route_data_batch(data)

    def test_fit_requires_enough_points(self):
        with pytest.raises(ValueError, match="training points"):
            RandomHyperplaneSegmenter(8).fit(np.ones((4, 3), dtype=np.float32))

    def test_single_segment_tree_is_trivially_fitted(self, data):
        segmenter = RandomHyperplaneSegmenter(1).fit(data)
        assert segmenter.route_data_batch(data[:5]) == [(0,)] * 5
        assert segmenter.route_query_batch(data[:5]) == [(0,)] * 5


class TestDataRouting:
    def test_virtual_spill_routes_data_to_one_segment(self, data):
        segmenter = fitted(8, data=data)
        routes = segmenter.route_data_batch(data)
        assert all(len(route) == 1 for route in routes)

    def test_median_split_balances_segments(self, data):
        segmenter = fitted(4, data=data)
        counts = np.zeros(4, dtype=int)
        for route in segmenter.route_data_batch(data):
            counts[route[0]] += 1
        # Median splits on the training data itself: near-perfect balance.
        assert counts.min() >= 0.6 * counts.max()

    def test_physical_spill_duplicates_boundary_points(self, data):
        alpha = 0.15
        virtual = fitted(2, alpha=alpha, data=data)
        physical = fitted(2, alpha=alpha, spill_mode="physical", data=data)
        virtual_total = sum(len(r) for r in virtual.route_data_batch(data))
        physical_total = sum(len(r) for r in physical.route_data_batch(data))
        assert virtual_total == len(data)
        # One level at alpha=0.15 duplicates ~30% of the data.
        duplication = physical_total / len(data) - 1.0
        assert 0.15 <= duplication <= 0.45

    def test_zero_alpha_means_no_duplication(self, data):
        physical = fitted(4, alpha=0.0, spill_mode="physical", data=data)
        routes = physical.route_data_batch(data)
        assert sum(len(r) for r in routes) <= len(data) * 1.02


class TestQueryRouting:
    def test_virtual_spill_fans_out_boundary_queries(self, data):
        segmenter = fitted(2, alpha=0.15, data=data)
        routes = segmenter.route_query_batch(data)
        fanout = np.array([len(route) for route in routes])
        spilled_fraction = (fanout == 2).mean()
        # ~2*alpha = 30% of in-distribution queries straddle the boundary.
        assert 0.2 <= spilled_fraction <= 0.42

    def test_physical_spill_queries_probe_one_segment(self, data):
        segmenter = fitted(8, spill_mode="physical", data=data)
        routes = segmenter.route_query_batch(data)
        assert all(len(route) == 1 for route in routes)

    def test_fanout_bounded_by_2_to_depth(self, data):
        segmenter = fitted(8, alpha=0.3, data=data)
        routes = segmenter.route_query_batch(data)
        assert all(1 <= len(route) <= 8 for route in routes)

    def test_point_and_its_query_route_consistently(self, data):
        """A stored point's query route must include its data segment."""
        segmenter = fitted(8, alpha=0.1, data=data)
        data_routes = segmenter.route_data_batch(data[:200])
        query_routes = segmenter.route_query_batch(data[:200])
        for data_route, query_route in zip(data_routes, query_routes):
            assert data_route[0] in query_route

    def test_routes_are_sorted_unique(self, data):
        segmenter = fitted(8, alpha=0.25, data=data)
        for route in segmenter.route_query_batch(data[:100]):
            assert list(route) == sorted(set(route))

    def test_dimension_mismatch_rejected(self, data):
        segmenter = fitted(4, data=data)
        with pytest.raises(ValueError):
            segmenter.route_query_batch(np.ones((3, 5), dtype=np.float32))


class TestLocality:
    def test_near_points_usually_share_a_segment(self, data):
        """The RH locality premise: tiny perturbations rarely cross splits."""
        segmenter = fitted(4, data=data)
        rng = np.random.default_rng(0)
        base = data[:300]
        nudged = base + rng.normal(scale=1e-4, size=base.shape).astype(
            np.float32
        )
        base_routes = segmenter.route_data_batch(base)
        nudged_routes = segmenter.route_data_batch(nudged)
        same = sum(
            a == b for a, b in zip(base_routes, nudged_routes)
        )
        assert same / len(base) > 0.97

    def test_far_points_split_by_first_hyperplane(self, data):
        """Antipodal points along the split direction land apart."""
        segmenter = fitted(2, alpha=0.0, data=data)
        node = segmenter._nodes[0]
        direction = node.hyperplane
        center = np.median(data @ direction)
        far_left = (direction * (center - 50.0)).astype(np.float32)
        far_right = (direction * (center + 50.0)).astype(np.float32)
        left, right = segmenter.route_data_batch(np.stack([far_left, far_right]))
        assert left != right


class TestSerialization:
    def test_roundtrip_routes_identically(self, data):
        segmenter = fitted(8, alpha=0.2, data=data)
        restored = segmenter_from_dict(segmenter.to_dict())
        assert restored.route_data_batch(data[:100]) == (
            segmenter.route_data_batch(data[:100])
        )
        assert restored.route_query_batch(data[:100]) == (
            segmenter.route_query_batch(data[:100])
        )

    def test_roundtrip_preserves_parameters(self, data):
        segmenter = fitted(4, alpha=0.05, spill_mode="physical", data=data)
        restored = segmenter_from_dict(segmenter.to_dict())
        assert restored.alpha == 0.05
        assert restored.spill_mode == "physical"
        assert restored.num_segments == 4
        assert restored.dim == data.shape[1]

    def test_unfitted_roundtrip(self):
        segmenter = RandomHyperplaneSegmenter(4)
        restored = segmenter_from_dict(segmenter.to_dict())
        assert not restored.is_fitted


class TestDeterminism:
    def test_same_seed_same_tree(self, data):
        a = fitted(8, seed=5, data=data)
        b = fitted(8, seed=5, data=data)
        assert a.route_data_batch(data[:50]) == b.route_data_batch(data[:50])

    def test_different_seed_different_tree(self, data):
        a = fitted(8, seed=5, data=data)
        b = fitted(8, seed=6, data=data)
        assert a.route_data_batch(data) != b.route_data_batch(data)

    def test_alpha_does_not_change_data_placement_virtual(self, data):
        """Key reuse property for the Table 7 sweep: under virtual spill,
        data placement depends only on the medians, not on alpha."""
        narrow = fitted(8, alpha=0.05, seed=4, data=data)
        wide = fitted(8, alpha=0.25, seed=4, data=data)
        assert narrow.route_data_batch(data) == wide.route_data_batch(data)
