"""Tests for the HNSW search primitives on hand-built graphs.

Every case drives the lockstep heap kernels with a batch of one: a
single query is a group of one, so these are the kernels' single-query
semantics.  The kernels take and return the array venue's ``(ids,
dists)`` arrays; ``descend`` / ``beam`` below (unchanged names, same
tests) read the one row back as ``(node, distance)`` / ``(dist, node)``
pairs.  ``TestBeamKeys`` holds the array venue's packed key on its own:
every array-venue parity test passes through it, none looked at it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.scorer import Scorer
from repro.hnsw.graph import HnswGraph, VisitedTable
from repro.hnsw.search import (
    _PAD,
    _pack,
    _unpack,
    descend_to_levels_batch,
    search_layer_batch,
    sort_candidates,
)
from tests.conftest import as_pairs, as_stack, prepare_one, score_one


def line_graph(num_points: int, level: int = 0):
    """Points at x=0..n-1 on a line, chained bidirectionally at ``level``
    (every node participates in layers ``0..level``; lower layers stay
    unlinked)."""
    scorer = Scorer("euclidean", 2)
    points = np.zeros((num_points, 2), dtype=np.float32)
    points[:, 0] = np.arange(num_points)
    scorer.add(points)
    graph = HnswGraph(2)
    for _index in range(num_points):
        graph.add_node(level)
    for index in range(num_points - 1):
        graph.add_link(index, level, index + 1)
        graph.add_link(index + 1, level, index)
    graph.entry_point = 0
    graph.max_level = level
    return graph, scorer


def descend(graph, scorer, point, target_level=0):
    """Greedy descent of one query to ``target_level``: (node, distance)."""
    nodes, dists = descend_to_levels_batch(
        graph, scorer, prepare_one(scorer, point)[np.newaxis, :],
        np.array([target_level]),
    )
    assert (nodes.dtype, dists.dtype) == (np.int64, np.float32)
    return nodes[0], dists[0]


def beam(graph, scorer, point, entry, ef):
    """Base-layer beam search of one query seeded at ``entry``."""
    query = prepare_one(scorer, point)
    table = VisitedTable(len(graph))
    table.reset(len(graph))
    ids, dists = search_layer_batch(
        graph, scorer, query[np.newaxis, :],
        np.array([[entry]]), score_one(scorer, query, [entry])[np.newaxis, :],
        ef, 0, [table],
    )
    assert ids.shape == dists.shape == (1, ef)
    (results,) = as_pairs(ids, dists)
    return results


class TestGreedyDescent:
    def test_walks_to_local_minimum(self):
        # The chain lives on layer 1, so descending to layer 0 walks it.
        graph, scorer = line_graph(10, level=1)
        node, dist = descend(graph, scorer, [7.2, 0.0])
        assert node == 7
        assert dist == pytest.approx((7.2 - 7.0) ** 2, abs=1e-4)

    def test_stays_put_when_no_improvement(self):
        graph, scorer = line_graph(5, level=1)
        node, _ = descend(graph, scorer, [0.0, 0.0])
        assert node == 0

    def test_isolated_node_returns_itself(self):
        scorer = Scorer("euclidean", 2)
        scorer.add(np.zeros((1, 2), dtype=np.float32))
        graph = HnswGraph(2)
        graph.add_node(1)
        graph.entry_point = 0
        graph.max_level = 1
        node, dist = descend(graph, scorer, [1.0, 1.0])
        assert node == 0
        assert dist == pytest.approx(2.0)


class TestSearchLayer:
    def test_finds_all_near_neighbors_on_line(self):
        graph, scorer = line_graph(20)
        results = beam(graph, scorer, [10.0, 0.0], entry=0, ef=5)
        found = [node for _, node in results]
        assert found[0] == 10
        assert set(found) == {8, 9, 10, 11, 12}

    def test_results_sorted_ascending(self):
        graph, scorer = line_graph(15)
        results = beam(graph, scorer, [3.4, 0.0], entry=14, ef=6)
        dists = [dist for dist, _ in results]
        assert dists == sorted(dists)

    def test_beam_width_bounds_results(self):
        graph, scorer = line_graph(30)
        for ef in (1, 3, 8):
            results = beam(graph, scorer, [15.0, 0.0], entry=0, ef=ef)
            assert len(results) <= ef

    def test_respects_pre_visited_entries(self):
        graph, scorer = line_graph(6)
        results = beam(graph, scorer, [0.0, 0.0], entry=0, ef=10)
        # Every reachable node fits in the beam, the seed exactly once.
        assert sorted(node for _, node in results) == list(range(6))


class TestDescendToLevel:
    def test_multi_layer_descent(self):
        # Two levels: level-1 long edges 0 <-> 9, level-0 chain.
        scorer = Scorer("euclidean", 2)
        points = np.zeros((10, 2), dtype=np.float32)
        points[:, 0] = np.arange(10)
        scorer.add(points)
        graph = HnswGraph(2)
        graph.add_node(1)  # node 0 on levels 0 and 1
        for _ in range(8):
            graph.add_node(0)
        graph.add_node(1)  # node 9 on levels 0 and 1
        for index in range(9):
            graph.add_link(index, 0, index + 1)
            graph.add_link(index + 1, 0, index)
        graph.add_link(0, 1, 9)
        graph.add_link(9, 1, 0)
        graph.entry_point = 0
        graph.max_level = 1
        entry, _ = descend(graph, scorer, [8.6, 0.0])
        # Level-1 descent should jump to node 9 (closer than node 0).
        assert entry == 9


#: Reduced distances a scorer can hand the array venue: any float32 but
#: NaN -- negative (inner product, cosine rounding), both zeros,
#: subnormal, infinite -- and the ids around the half-word's edges.
DISTS = st.floats(width=32, allow_nan=False) | st.sampled_from(
    [-0.0, 0.0, 1e-45, -1e-45, float("inf"), float("-inf")]
)
IDS = st.integers(0, 2**31 - 1) | st.sampled_from(
    [0, 1, 2**30 - 1, 2**30, 2**31 - 2, 2**31 - 1]
)
PAIRS = st.lists(st.tuples(DISTS, IDS), min_size=1, max_size=24)


class TestBeamKeys:
    """``_pack`` / ``_unpack`` / ``sort_candidates``: the array venue's
    ``[distance 32][node 31][expanded 1]`` key."""

    @settings(max_examples=300, deadline=None)
    @given(PAIRS)
    def test_round_trip_and_order(self, pairs):
        dists = np.array([dist for dist, _ in pairs], dtype=np.float32)
        ids = np.array([node for _, node in pairs], dtype=np.int64)
        keys = _pack(dists, ids)
        assert keys.dtype == np.int64 and keys.shape == ids.shape
        assert not (keys & 1).any() and (keys < _PAD).all()  # unexpanded, real
        # int32 ids (what a table gather yields) into a caller's buffer:
        # the same keys -- the node word neither sign-extends nor overflows.
        buffer = np.full(ids.size + 3, -1, dtype=np.int64)
        into = _pack(dists, ids.astype(np.int32), buffer[: ids.size])
        assert into.base is buffer and (buffer[ids.size :] == -1).all()
        np.testing.assert_array_equal(into, keys)
        back_ids, back_dists = _unpack(keys | 1)  # the flag is not the node
        np.testing.assert_array_equal(back_ids, ids)
        # Equal as floats, and the two zeros share the key of +0.0.
        np.testing.assert_array_equal(back_dists, dists)
        assert not np.signbit(back_dists[dists == 0]).any()
        # Integer order is (distance, node) order, pair against pair.
        want = [(float(dist), int(node)) for dist, node in zip(dists, ids)]
        for i, key in enumerate(keys.tolist()):
            for j, other in enumerate(keys.tolist()):
                assert (key < other) == (want[i] < want[j])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(PAIRS, min_size=1, max_size=4))
    def test_sort_candidates_is_sorted_pairs_then_padding(self, rows):
        ids, dists = sort_candidates(*as_stack(rows))
        assert (ids.dtype, dists.dtype) == (np.int64, np.float32)
        want = [
            sorted((float(np.float32(dist)), node) for dist, node in row) for row in rows
        ]
        assert as_pairs(ids, dists) == want
        unused = ids < 0
        assert (ids[unused] == -1).all() and np.isposinf(dists[unused]).all()
        # Padding is last: no real slot to the right of an unused one.
        assert not (unused[:, :-1] & ~unused[:, 1:]).any()

    def test_only_float32_distances_pack(self):
        ids = np.arange(3)
        for dtype in (np.float64, np.float16, np.int32):
            with pytest.raises(TypeError, match="float32"):
                _pack(np.zeros(3, dtype=dtype), ids)
        with pytest.raises(TypeError, match="float32"):
            sort_candidates(ids[np.newaxis], np.zeros((1, 3)))
