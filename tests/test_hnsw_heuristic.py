"""Tests for HNSW neighbor selection (simple and heuristic).

Selection takes and returns the kernels' padded ``(ids, dists)`` arrays.
:func:`reference_select` is Algorithm 4 written literally over ``(dist,
node)`` tuples -- the form the selection functions themselves had until
they moved onto arrays -- and the property at the bottom holds the array
code to it.  Every test of the tuple signature has a successor here:

=====================================================  ==========================
tuple-list test                                        successor (same class)
=====================================================  ==========================
``TestSimpleSelection.test_takes_closest_m``           same name, array stack
``TestSimpleSelection.test_handles_short_input``       same name, array stack
``TestHeuristicSelection.test_zero_m``                 same name, ``(1, 0)`` out
``TestHeuristicSelection.test_short_input_passthrough``  same name, array stack
``...test_prefers_directional_diversity``              same name, array stack
``...test_keep_pruned_pads_to_m``                      same name, array stack
``...test_result_bounded_by_m``                        same name, array stack
``...test_selected_are_subset_of_candidates``          same name, array stack
=====================================================  ==========================
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.scorer import Scorer
from repro.hnsw.heuristic import (
    select_neighbors_heuristic_batch,
    select_neighbors_simple,
)
from tests.conftest import as_pairs, as_stack, prepare_one, score_one


def scorer_with(points, metric="euclidean"):
    points = np.asarray(points, dtype=np.float32)
    scorer = Scorer(metric, points.shape[1])
    scorer.add(points)
    return scorer


def candidates_for(scorer, query, ids):
    dists = score_one(scorer, prepare_one(scorer, query), ids)
    return list(zip(dists.tolist(), ids))


def select_one(scorer, candidates, m, **options):
    """One selection problem -- a stack of one -- as ``(dist, node)`` pairs."""
    (selected,) = as_pairs(
        *select_neighbors_heuristic_batch(
            scorer, *as_stack([candidates]), m, **options
        )
    )
    return selected


def simple_one(candidates, m):
    (selected,) = as_pairs(*select_neighbors_simple(*as_stack([candidates]), m))
    return selected


def reference_select(candidates, m, keep_pruned, distance):
    """``SELECT-NEIGHBORS-HEURISTIC`` (Algorithm 4 of Malkov & Yashunin),
    literally: work through the candidates nearest first; link one iff it
    is not closer to an already linked neighbor than to the query;
    ``keepPrunedConnections`` tops the links up from the discarded,
    nearest first.  ``distance(a, b)`` is the node-to-node reduced
    distance.  As in hnswlib, a candidate set that fits ``m`` is linked
    whole."""
    if m <= 0:
        return []
    queue = sorted(candidates)
    if len(queue) <= m:
        return queue
    linked, discarded = [], []
    for dist, node in queue:
        if len(linked) >= m:
            break
        if any(distance(node, other) < dist for _, other in linked):
            discarded.append((dist, node))
        else:
            linked.append((dist, node))
    if keep_pruned:
        linked += discarded[: m - len(linked)]
    return sorted(linked)


def stack_distances(scorer):
    """Node-to-node ``distance(a, b)`` for every problem of a stack, one
    pair at a time: ``score_pairs`` with the linked node ``b`` as a
    prepared batch of one (a stored row is already prepared) -- the bits
    the selection must compare, measured without calling it."""

    def distance(a, b):
        return scorer.score_pairs(scorer.data[[b]], None, np.array([a]))[0]

    return distance


def random_stack(seed, metric, lattice, m, width):
    """A scorer and a ``(P, width)`` stack mixing every row shape: full
    width, ``<= m``, exactly ``m + 1`` and a single candidate among
    padding, real slots scattered between unused ones.  On the
    ``lattice`` corpus -- integer coordinates, repeated points -- query
    and cross distances tie exactly."""
    rng = np.random.default_rng(seed)
    if lattice:
        points = rng.integers(-1, 2, size=(48, 4)).astype(np.float32)
        queries = rng.integers(-2, 3, size=(6, 4)) / 2.0
    else:
        points = rng.standard_normal((48, 4)).astype(np.float32)
        queries = rng.standard_normal((6, 4))
    scorer = scorer_with(points, metric)
    prepared = scorer.prepare_queries(queries.astype(np.float32))
    sizes = [width, min(m, width), min(m + 1, width), 1]
    sizes += rng.integers(1, width + 1, size=2).tolist()
    ids = np.full((len(sizes), width), -1, dtype=np.int64)
    for row, size in enumerate(sizes):
        slots = rng.choice(width, size=size, replace=False)
        ids[row, slots] = rng.choice(len(points), size=size, replace=False)
    dists = np.full(ids.shape, np.inf, dtype=np.float32)
    real = ids >= 0
    dists[real] = scorer.score_pairs(prepared, np.nonzero(real)[0], ids[real])
    return scorer, ids, dists


STACKS = dict(
    seed=st.integers(0, 2**16),
    metric=st.sampled_from(["euclidean", "cosine", "inner_product"]),
    lattice=st.booleans(),
    keep_pruned=st.booleans(),
    m=st.integers(1, 13),
    width=st.integers(1, 40),
)


class TestSimpleSelection:
    def test_takes_closest_m(self):
        result = simple_one([(3.0, 3), (1.0, 1), (2.0, 2)], 2)
        assert result == [(1.0, 1), (2.0, 2)]

    def test_handles_short_input(self):
        assert simple_one([(1.0, 1)], 5) == [(1.0, 1)]


class TestHeuristicSelection:
    def test_zero_m(self):
        ids, dists = select_neighbors_heuristic_batch(
            scorer_with([[0.0, 0.0]]), *as_stack([[(1.0, 0)]]), 0
        )
        assert ids.shape == dists.shape == (1, 0)

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
        simple_ids = {node for _, node in simple_one(candidates, 2)}
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


class TestAgainstTheReference:
    @given(**STACKS)
    @settings(max_examples=150, deadline=None)
    def test_array_selection_is_algorithm_4(
        self, seed, metric, lattice, keep_pruned, m, width
    ):
        """Both array selections equal the tuple reference on every row
        shape of :func:`random_stack`.  On the lattice the ``(distance,
        node)`` order and the strict ``<`` of the discard rule both
        decide."""
        scorer, ids, dists = random_stack(seed, metric, lattice, m, width)
        problems = as_pairs(ids, dists)
        distance = stack_distances(scorer)
        got = select_neighbors_heuristic_batch(
            scorer, ids, dists, m, keep_pruned=keep_pruned
        )
        assert got[0].shape == got[1].shape == (ids.shape[0], min(m, width))
        assert as_pairs(*got) == [
            reference_select(problem, m, keep_pruned, distance)
            for problem in problems
        ]
        assert as_pairs(*select_neighbors_simple(ids, dists, m)) == [
            sorted(problem)[:m] for problem in problems
        ]

    @given(**STACKS)
    @settings(max_examples=60, deadline=None)
    def test_every_compared_distance_is_score_pairs(
        self, seed, metric, lattice, keep_pruned, m, width
    ):
        """Each cross distance a selection round compares -- padding
        columns included -- is ``score_pairs`` of the same ``(pick,
        candidate)`` pair, bit for bit: one scoring kernel decides
        traversal and selection alike."""
        scorer, ids, dists = random_stack(seed, metric, lattice, m, width)
        rounds = []
        score_gathered = Scorer.score_gathered

        def spying(self, block, cut, picks):
            cross = score_gathered(self, block, cut, picks)
            rounds.append((cut.copy(), picks.copy(), cross.copy()))
            return cross

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Scorer, "score_gathered", spying)
            select_neighbors_heuristic_batch(
                scorer, ids, dists, m, keep_pruned=keep_pruned
            )
        if m > 1 and np.count_nonzero(ids >= 0, axis=1).max() > m:
            assert rounds  # (an m-th pick is never scored)
        for cut, picks, cross in rounds:
            want = scorer.score_pairs(
                scorer.data[picks], np.arange(picks.size).repeat(cut.shape[1]),
                cut.ravel(),
            )  # fmt: skip
            assert cross.tobytes() == want.reshape(cross.shape).tobytes()

    @given(**STACKS)
    @settings(max_examples=60, deadline=None)
    def test_a_stack_selects_what_its_rows_select_alone(
        self, seed, metric, lattice, keep_pruned, m, width
    ):
        """Grouping problems never changes any problem's answer: a stack
        selects, row for row and bit for bit, what each of its rows
        selects as a stack of one."""
        scorer, ids, dists = random_stack(seed, metric, lattice, m, width)
        stacked = select_neighbors_heuristic_batch(
            scorer, ids, dists, m, keep_pruned=keep_pruned
        )
        for row in range(ids.shape[0]):
            alone = select_neighbors_heuristic_batch(
                scorer, ids[row : row + 1], dists[row : row + 1], m,
                keep_pruned=keep_pruned,
            )  # fmt: skip
            assert alone[0].tobytes() == stacked[0][row : row + 1].tobytes()
            assert alone[1].tobytes() == stacked[1][row : row + 1].tobytes()


@pytest.mark.parametrize("metric", ["euclidean", "inner_product"])
def test_exact_lattice_needs_no_shared_gemm(metric):
    """Integer coordinates make every distance exact in float32 whatever
    the summation order, so here the reference can measure node-to-node
    distances pair by pair, sharing nothing with the code under test."""
    rng = np.random.default_rng(5)
    points = rng.integers(-2, 3, size=(60, 5)).astype(np.float32)
    scorer = scorer_with(points, metric)

    def distance(a, b):
        return scorer.pairwise_ids(np.array([a, b]))[0, 1]

    for m in (1, 3, 8):
        problems = [
            candidates_for(
                scorer, rng.integers(-2, 3, size=5), rng.permutation(60)[:size].tolist()
            )
            for size in (60, 25, m + 1, m, 1)
        ]
        for keep_pruned in (True, False):
            got = select_neighbors_heuristic_batch(
                scorer, *as_stack(problems), m, keep_pruned=keep_pruned
            )
            assert as_pairs(*got) == [
                reference_select(problem, m, keep_pruned, distance)
                for problem in problems
            ]
