"""Tests for HNSW neighbor selection (simple and heuristic)."""

import numpy as np

from repro.distance.scorer import Scorer
from repro.hnsw.heuristic import (
    select_neighbors_heuristic_batch,
    select_neighbors_simple,
)
from tests.conftest import prepare_one, score_one


def scorer_with(points):
    points = np.asarray(points, dtype=np.float32)
    scorer = Scorer("euclidean", points.shape[1])
    scorer.add(points)
    return scorer


def candidates_for(scorer, query, ids):
    dists = score_one(scorer, prepare_one(scorer, query), ids)
    return list(zip(dists.tolist(), ids))


def select_one(scorer, candidates, m, **options):
    """One selection problem: a batch of one."""
    (selected,) = select_neighbors_heuristic_batch(
        scorer, [candidates], m, **options
    )
    return selected


class TestSimpleSelection:
    def test_takes_closest_m(self):
        result = select_neighbors_simple(
            [(3.0, 3), (1.0, 1), (2.0, 2)], 2
        )
        assert result == [(1.0, 1), (2.0, 2)]

    def test_handles_short_input(self):
        assert select_neighbors_simple([(1.0, 1)], 5) == [(1.0, 1)]


class TestHeuristicSelection:
    def test_zero_m(self):
        assert select_one(scorer_with([[0.0, 0.0]]), [(1.0, 0)], 0) == []

    def test_short_input_passthrough(self):
        scorer = scorer_with([[0.0, 0.0], [1.0, 0.0]])
        candidates = [(1.0, 1), (0.5, 0)]
        assert select_one(scorer, candidates, 5) == sorted(
            candidates
        )

    def test_prefers_directional_diversity(self):
        """A tight cluster on one side must not monopolise the links.

        Query at origin; three nearly-identical points to the east and one
        point to the west.  Closest-m would pick the three east points;
        the heuristic must keep the west point because east points 2 and 3
        are closer to east point 1 than to the query.
        """
        points = [
            [1.0, 0.0],     # 0: east
            [1.05, 0.01],   # 1: east, redundant with 0
            [1.1, -0.01],   # 2: east, redundant with 0
            [-1.5, 0.0],    # 3: west, farther but unique direction
        ]
        scorer = scorer_with(points)
        candidates = candidates_for(scorer, [0.0, 0.0], [0, 1, 2, 3])
        selected = select_one(
            scorer, candidates, 2, keep_pruned=False
        )
        selected_ids = {node for _, node in selected}
        assert 0 in selected_ids  # the closest point always survives
        assert 3 in selected_ids  # diversity beats redundancy
        simple_ids = {
            node for _, node in select_neighbors_simple(candidates, 2)
        }
        assert 3 not in simple_ids  # and simple selection would miss it

    def test_keep_pruned_pads_to_m(self):
        points = [
            [1.0, 0.0],
            [1.01, 0.0],
            [1.02, 0.0],
            [1.03, 0.0],
        ]
        scorer = scorer_with(points)
        candidates = candidates_for(scorer, [0.0, 0.0], [0, 1, 2, 3])
        padded = select_one(
            scorer, candidates, 3, keep_pruned=True
        )
        unpadded = select_one(
            scorer, candidates, 3, keep_pruned=False
        )
        assert len(padded) == 3
        assert len(unpadded) < 3  # collinear points all prune each other

    def test_result_bounded_by_m(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(50, 4)).astype(np.float32)
        scorer = scorer_with(points)
        candidates = candidates_for(scorer, rng.normal(size=4), list(range(50)))
        for m in (1, 5, 20):
            assert len(select_one(scorer, candidates, m)) <= m

    def test_selected_are_subset_of_candidates(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(30, 3)).astype(np.float32)
        scorer = scorer_with(points)
        ids = list(range(0, 30, 2))
        candidates = candidates_for(scorer, rng.normal(size=3), ids)
        selected = select_one(scorer, candidates, 5)
        assert {node for _, node in selected} <= set(ids)
