"""Tests for the HNSW search primitives on hand-built graphs.

Every case drives the lockstep heap kernels with a batch of one: a
single query is a group of one, so these are the kernels' single-query
semantics.  The kernels take and return the array venue's ``(ids,
dists)`` arrays; ``descend`` / ``beam`` below (unchanged names, same
tests) read the one row back as ``(node, distance)`` / ``(dist, node)``
pairs.  ``TestBeamKeys`` holds the array venue's packed key on its own:
every array-venue parity test passes through it, none looked at it.
``TestStepRule`` holds both beam kernels, on lockstep groups of built
indices, to :func:`reference_beam` at every step width, and
``TestDescentRule`` both descent kernels to :func:`reference_descent`
wherever the heap descent's one-call budget falls.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hnsw.index as hnsw_index
import repro.hnsw.search as hnsw_search
from repro.distance.scorer import Scorer
from repro.hnsw.graph import HnswGraph, VisitedPool, VisitedTable
from repro.hnsw.index import _STEP_WIDTH, HnswIndex, build_hnsw
from repro.hnsw.search import (
    _PAD,
    _pack,
    _unpack,
    descend_to_levels_batch,
    search_arrays,
    search_layer_batch,
    sort_candidates,
)
from repro.obs.cost import SearchCost
from repro.obs.tracing import SpanRecorder, activate, deactivate
from tests.conftest import (
    FAST_HNSW,
    as_pairs,
    as_stack,
    make_clustered,
    make_lattice,
    prepare_one,
    score_one,
)


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


def reference_beam(seeds, ef, expand, neighbors, score):
    """``SEARCH-LAYER`` (Algorithm 2) with a step width, literally, over
    ``(distance, node)`` tuples: the beam is the ``ef`` smallest pairs
    seen; a step takes the ``expand`` smallest unexpanded members and
    expands them in that order -- a neighbor an earlier expansion of the
    step found is not new to a later one -- then merges everything found
    at once; stop when no member is unexpanded.  ``neighbors(node)``
    lists a node's links, ``score(nodes)`` their distances.  Returns the
    beam, the expansions that found a new node (hops) and the nodes
    scored (candidates)."""
    seen = {node for _, node in seeds}
    beam = sorted(seeds)[:ef]
    expanded: set[int] = set()
    hops = candidates = 0
    while True:
        step = [(dist, node) for dist, node in beam if node not in expanded]
        if not step:
            return beam, hops, candidates
        found = []
        for _, node in step[:expand]:
            expanded.add(node)
            new = [other for other in neighbors(node) if other not in seen]
            seen.update(new)
            hops += bool(new)
            candidates += len(new)
            found += zip(score(new), new)
        beam = sorted(beam + found)[:ef]


def reference_descent(entry, top, target, neighbors, score):
    """Greedy descent, literally, over ``(distance, node)`` pairs: from
    ``entry`` down through levels ``top .. target + 1``, at each level
    move to the first closest of the current node's links while it is
    strictly closer.  ``neighbors(node, level)`` lists a node's links,
    ``score(nodes)`` their distances.  Returns the pair it stops at, its
    moves (hops), the pairs it read, the entry included, and its scoring
    steps per level."""
    (dist,) = score([entry])
    here = (dist, entry)
    hops, pairs, steps = 0, 1, {}
    for level in range(top, target, -1):
        steps[level] = 0
        while links := neighbors(here[1], level):
            steps[level] += 1
            pairs += len(links)
            found = list(zip(score(links), links))
            best = found[0]
            for pair in found[1:]:
                if pair[0] < best[0]:
                    best = pair
            if not best[0] < here[0]:
                break
            here = best
            hops += 1
    return here, hops, pairs, steps


#: The W values both kernels are held to: Algorithm 2 itself, two
#: widths, and the one every beam runs at.
EXPANDS = sorted({1, 2, 3, _STEP_WIDTH})
SCORERS = {
    "float": {},
    "int8": {"quantize": "int8"},
    "pq": {"quantize": "pq", "pq_subspaces": 4},
}


@pytest.fixture(scope="module")
def step_indices():
    """One index per corpus (clustered, tie lattice) and scorer tier."""
    corpora = {"clustered": make_clustered(600, 16, seed=1), "lattice": make_lattice()}
    return {
        (corpus, scorer): build_hnsw(data, params=replace(FAST_HNSW, **extra))
        for corpus, data in corpora.items()
        for scorer, extra in SCORERS.items()
    }


class TestStepRule:
    """Both beam kernels are :func:`reference_beam` at every step width:
    beams, hops and candidates, row by row of one lockstep group."""

    @settings(max_examples=60, deadline=None)
    @given(
        corpus=st.sampled_from(["clustered", "lattice"]),
        scorer=st.sampled_from(list(SCORERS)),
        expand=st.sampled_from(EXPANDS),
        level=st.sampled_from([0, 0, 1]),
        ef=st.sampled_from([3, 8, 20]),
        draw=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 12),
        seeds=st.integers(1, 3),
    )
    def test_both_kernels_are_the_step_rule(
        self, step_indices, corpus, scorer, expand, level, ef, draw, rows, seeds
    ):
        index = step_indices[corpus, scorer]
        graph, exact = index.graph, index._scorer
        rng = np.random.default_rng(draw)
        data = exact.data
        queries = data[rng.integers(0, len(data), size=rows)] + rng.normal(
            scale=0.3, size=(rows, data.shape[1])
        ).astype(np.float32)
        prepared = exact.prepare_queries(queries)
        query_sq = exact.query_sq_norms(prepared)
        traversal = exact
        if index._quantized is not None:
            traversal = index._quantized.view(prepared)
        members = np.flatnonzero(np.asarray(graph.levels) >= level)
        entries = np.stack(
            [rng.choice(members, size=seeds, replace=False) for _ in range(rows)]
        )
        entry_dists = traversal.score_pairs(
            prepared, np.arange(rows).repeat(seeds), entries.reshape(-1), query_sq
        ).reshape(rows, seeds)
        if seeds > 1:
            entries[1::2, -1], entry_dists[1::2, -1] = -1, np.inf  # a seed short

        def neighbors(node):
            links = graph.neighbor_rows(np.array([node]), level)[0].tolist()
            return [other for other in links if other != node]  # padding

        want, hops, candidates = [], 0, 0
        for row in range(rows):

            def score(nodes, row=row):
                return traversal.score_pairs(
                    prepared, np.full(len(nodes), row), np.array(nodes, dtype=np.int64),
                    query_sq,
                ).tolist()

            seeded = [
                (dist, node)
                for dist, node in zip(entry_dists[row].tolist(), entries[row].tolist())
                if node >= 0
            ]
            beam, row_hops, row_candidates = reference_beam(
                seeded, ef, expand, neighbors, score
            )
            want.append(beam)
            hops += row_hops
            candidates += row_candidates

        pool = VisitedPool()
        for kernel, visited in (
            (search_layer_batch, pool.get_many(len(graph), rows)),
            (search_arrays, pool.get_epochs(graph.capacity, rows)),
        ):
            cost = SearchCost()
            found = kernel(
                graph, traversal, prepared, entries, entry_dists, ef, level,
                visited, query_sq, cost, None, expand,
            )
            assert as_pairs(*found) == want, kernel.__name__
            assert (cost.hops, cost.candidates_visited) == (hops, candidates)


@pytest.mark.parametrize("scorer", list(SCORERS))
@pytest.mark.parametrize("rows", [1, 12])
def test_a_beam_wider_than_the_segment_is_the_segment(step_indices, scorer, rows):
    """``ef`` beyond the node count answers as ``ef = len(index)`` does --
    ids, distances and cost -- instead of sizing a beam by it."""
    index = step_indices["clustered", scorer]
    queries = make_clustered(rows, 16, seed=7)
    answers = []
    for ef in (len(index), 10**12):
        cost = SearchCost()
        ids, dists = index.search_batch(queries, 10, ef=ef, cost=cost)
        answers.append((ids.tobytes(), dists.tobytes(), cost.as_dict()))
    assert answers[0] == answers[1]


def upper_recomputed(levels) -> list[list[int]]:
    """``HnswGraph.upper`` from ``levels`` alone."""
    return [[]] + [
        [node for node, top in enumerate(levels) if top == level]
        for level in range(1, max(levels, default=0) + 1)
    ]


class TestDescentRule:
    """Both descent kernels are :func:`reference_descent` -- entry
    nodes, entry-distance bits, hops, ``distance_comps`` and the
    ``descend`` span's rounds and pairs -- with the heap descent's
    one-call budget covering no level, the top levels only, or all; for
    rows descended alone (the one-call walk) and as one group (rounds)."""

    @pytest.mark.parametrize("budget", ["none", "split", "all"])
    @pytest.mark.parametrize("group", ["alone", "together"])
    @pytest.mark.parametrize("scorer", list(SCORERS))
    @pytest.mark.parametrize("corpus", ["clustered", "lattice"])
    def test_both_kernels_are_the_greedy_walk(
        self, step_indices, monkeypatch, corpus, scorer, group, budget
    ):
        index = step_indices[corpus, scorer]
        graph, exact = index.graph, index._scorer
        levels = np.asarray(graph.levels)
        top = graph.max_level
        assert top >= 2, "the split budget needs two upper levels"
        monkeypatch.setattr(
            hnsw_search,
            "_DENSE_UPPER",
            {
                "none": 0,
                "split": int(np.count_nonzero(levels >= 2)),
                "all": hnsw_search._DENSE_UPPER,
            }[budget],
        )
        counts = graph.upper_prefix(hnsw_search._DENSE_UPPER)[2]
        assert min(counts, default=None) == {"none": None, "split": 2, "all": 1}[
            budget
        ]
        rows = 32
        rng = np.random.default_rng(rows + 7 * len(graph))
        data = exact.data
        shape = (rows, data.shape[1])
        # Half steps off the lattice tie distances at every level.
        noise = (
            rng.normal(scale=0.3, size=shape)
            if corpus == "clustered"
            else rng.choice([-0.5, 0.0, 0.5], size=shape)
        )
        queries = data[rng.integers(0, len(data), size=rows)] + noise.astype(
            np.float32
        )
        targets = rng.integers(0, top + 1, size=rows)
        targets[0] = 0
        prepared = exact.prepare_queries(queries)
        query_sq = exact.query_sq_norms(prepared)

        def traversal(batch):
            if index._quantized is None:
                return exact, "float"
            return index._quantized.view(batch), scorer

        walks = []
        for row in range(rows):
            view = traversal(prepared[row : row + 1])[0]

            def score(nodes, view=view, row=row):
                return view.score_pairs(
                    prepared[row : row + 1],
                    None,
                    np.array(nodes, dtype=np.int64),
                    query_sq[row : row + 1],
                ).tolist()

            walks.append(
                reference_descent(
                    graph.entry_point, top, int(targets[row]), graph.neighbors, score
                )
            )

        groups = [[row] for row in range(rows)] if group == "alone" else [range(rows)]
        for members in groups:
            members = list(members)
            want = [walks[row] for row in members]
            busiest = {}
            for _, _, _, steps in want:
                for level, count in steps.items():
                    busiest[level] = max(busiest.get(level, 0), count)
            batch = prepared[members]
            view, arm = traversal(batch)
            for floor in (sys.maxsize, 1):  # heap, then array
                monkeypatch.setattr(hnsw_index, "_ARRAY_MIN_ROWS", floor)
                cost, recorder = SearchCost(), SpanRecorder()
                token = activate(recorder)
                try:
                    nodes, dists = index._descend(
                        view, arm, batch, query_sq[members], targets[members], cost
                    )
                finally:
                    deactivate(token)
                (span,) = [s for s in recorder.export() if s["name"] == "descend"]
                notes = span["annotations"]
                assert notes["kernel"] == ("heap" if floor > 1 else "array")
                assert nodes.tolist() == [here[1] for here, *_ in want]
                assert dists.tobytes() == np.array(
                    [here[0] for here, *_ in want], dtype=np.float32
                ).tobytes()
                pairs = sum(walk[2] for walk in want)
                assert (cost.hops, cost.distance_comps) == (
                    sum(walk[1] for walk in want),
                    pairs,
                )
                assert (notes["rounds"], notes["pairs"]) == (
                    sum(busiest.values()),
                    pairs,
                )


@pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan])
def test_a_non_finite_query_descends_alike_on_both_kernels(monkeypatch, poison):
    """A non-finite coordinate makes a row mix NaN with infinities, on
    which Python's ``min`` is not ``argmin``: the one-call walk must
    still stop where the array kernel stops.  Inner product, because
    ``-<q, x>`` there is ``-inf``, ``+inf`` or NaN by the sign of
    ``x_0`` and a walk can move; under Euclidean every score of such a
    row is ``inf`` or NaN and no walk leaves the entry point."""
    index = build_hnsw(make_lattice(), metric="inner_product", params=FAST_HNSW)
    assert hnsw_search._DENSE_UPPER >= len(index.graph.upper_prefix(10**9)[0])
    scorer = index._scorer
    prepared = scorer.prepare_queries(make_lattice()[:64])
    prepared[:, 0] = poison
    zeros = np.zeros(1, dtype=np.int64)
    answers = {}
    with np.errstate(invalid="ignore"):
        for floor in (sys.maxsize, 1):  # heap, then array
            monkeypatch.setattr(hnsw_index, "_ARRAY_MIN_ROWS", floor)
            answers[floor] = [
                index._descend(scorer, "float", row[np.newaxis], None, zeros, None)
                for row in prepared
            ]
    for (heap_nodes, heap_dists), (array_nodes, array_dists) in zip(
        answers[sys.maxsize], answers[1]
    ):
        assert heap_nodes.tolist() == array_nodes.tolist()
        assert heap_dists.tobytes() == array_dists.tobytes()


@pytest.mark.parametrize("corpus", ["clustered", "lattice"])
def test_the_upper_levels_are_kept_through_build_load_and_add(corpus):
    data = make_clustered(600, 16, seed=1) if corpus == "clustered" else make_lattice()
    index = build_hnsw(data[:-40], params=FAST_HNSW)
    assert index.graph.upper == upper_recomputed(index.graph.levels)
    loaded = HnswIndex.from_arrays(index.to_arrays())
    assert loaded.graph.upper == upper_recomputed(loaded.graph.levels)
    for vectors in (data[-40:-1], data[-1:]):  # a wave, then a row
        loaded.add(vectors)
        assert loaded.graph.upper == upper_recomputed(loaded.graph.levels)
    assert len(loaded.graph.upper) > 2
