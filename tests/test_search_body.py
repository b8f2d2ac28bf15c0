"""The one HNSW search body, as one matrix of cells.

``HnswIndex._search_many`` is candidates -> exact rescore iff the
candidates were scored approximately -> gather; float / int8 / PQ-ADC /
flat scan differ only in who scores the candidates.  Every cell of
scorer x metric x batch size checks two promises:

(a) every returned distance is the exact float kernel's score of the
    returned row, bit for bit, in ``(distance, row)`` order;
(b) a batch's ``SearchCost`` is the merged cost of its rows run singly.

A single row always runs the heap kernels and a group of
``_ARRAY_MIN_ROWS`` or more the array kernels, so with the batch sizes
straddling that constant (b) is also a heap-vs-array differential.  The
``lattice`` corpus makes it bite: integer coordinates and duplicated
rows put an exact distance tie at every beam boundary, where only one
shared tie rule keeps two kernels equal.  (That ``search`` is a row of
``search_batch`` is the ``call`` factor of ``tests/test_path_matrix.py``,
on the same two corpora.)

The ``flat`` arm is built with ``quantize="int8"`` *and* a
``min_graph_size`` above the segment size: the flat scan wins and
distances stay exact.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.core.index import ShardIndex
from repro.core.merge import merge_segment_results_batch
from repro.distance.scorer import Scorer
from repro.hnsw.graph import VisitedPool
from repro.hnsw.index import (
    _ARRAY_MIN_ROWS,
    _MAX_LOCKSTEP,
    _STEP_WIDTH,
    HnswIndex,
    build_hnsw,
)
from repro.hnsw.search import descend_arrays, search_arrays, search_layer_batch
from repro.obs.cost import FIELDS, SearchCost
from repro.obs.tracing import SpanRecorder, activate, deactivate
from repro.online.microbatch import MicroBatcher
from repro.segmenters.random_segmenter import RandomSegmenter
from tests.conftest import FAST_HNSW, make_lattice

ARMS = {
    "float": {},
    "int8": {"quantize": "int8", "rescore_k": 64},
    "pq": {"quantize": "pq", "rescore_k": 64, "pq_subspaces": 4},
    "flat": {"quantize": "int8", "min_graph_size": 10_000},
}
METRICS = ("euclidean", "cosine", "inner_product")
CORPORA = ("clustered", "lattice")
BATCHES = (
    1,
    7,
    _ARRAY_MIN_ROWS - 1,
    _ARRAY_MIN_ROWS,
    _MAX_LOCKSTEP,
    _MAX_LOCKSTEP + 1,
)
K = 10
#: Step widths the two beam kernels are compared at: Algorithm 2, two
#: wider steps, and the one every beam runs at.
EXPANDS = sorted({1, 2, 3, _STEP_WIDTH})
#: Beam width per corpus: on the lattice the beam is no wider than the
#: result, so a tie decided differently at the beam boundary shows in
#: the returned ids, not only in the cost.
EF = {"clustered": None, "lattice": K}
#: External id of internal row ``r`` is ``3 r + 7``: a gather that
#: returned rows instead of ids cannot pass.
ID_STRIDE, ID_BASE = 3, 7


@pytest.fixture(scope="module")
def corpora(clustered_data) -> dict[str, np.ndarray]:
    return {"clustered": clustered_data, "lattice": make_lattice()}


@pytest.fixture(scope="module")
def query_sets(corpora) -> dict[str, np.ndarray]:
    """``_MAX_LOCKSTEP + 1`` queries per corpus: noisy rows of the
    clustered one, on- and half-lattice points of the lattice.  They are
    drawn in blocks of 65, the first exactly as when 65 was the whole
    set, so the pinned digests read the same rows whatever
    ``_MAX_LOCKSTEP`` is."""
    rng = np.random.default_rng(5)
    count, block = _MAX_LOCKSTEP + 1, 65
    data = corpora["clustered"]
    clustered, lattice = [], []
    for _ in range(-(-count // block)):
        rows = rng.integers(0, data.shape[0], size=block)
        noise = rng.normal(scale=0.2, size=(block, data.shape[1]))
        clustered.append(data[rows] + noise)
        lattice.append(rng.integers(-2, 3, size=(block, 6)) / 2.0)
    return {
        "clustered": np.concatenate(clustered)[:count].astype(np.float32),
        "lattice": np.concatenate(lattice)[:count].astype(np.float32),
    }


@pytest.fixture(scope="module")
def queries(query_sets) -> np.ndarray:
    return query_sets["clustered"]


@pytest.fixture(scope="module")
def all_indices(corpora) -> dict[tuple[str, str, str], HnswIndex]:
    return {
        (corpus, arm, metric): build_hnsw(
            data,
            ids=np.arange(data.shape[0]) * ID_STRIDE + ID_BASE,
            metric=metric,
            params=replace(FAST_HNSW, **extra),
        )
        for corpus, data in corpora.items()
        for arm, extra in ARMS.items()
        for metric in METRICS
    }


@pytest.fixture(scope="module")
def indices(all_indices) -> dict[tuple[str, str], HnswIndex]:
    """The clustered corpus's indices, keyed ``(arm, metric)``."""
    return {
        key[1:]: index
        for key, index in all_indices.items()
        if key[0] == "clustered"
    }


@pytest.fixture(scope="module")
def references(corpora) -> dict[tuple[str, str], Scorer]:
    """One independent float scorer per corpus and metric."""
    scorers = {}
    for corpus, data in corpora.items():
        for metric in METRICS:
            scorer = Scorer(metric, data.shape[1])
            scorer.add(data)
            scorers[corpus, metric] = scorer
    return scorers


def _single_cost(index: HnswIndex, query: np.ndarray, ef=None) -> SearchCost:
    cost = SearchCost()
    index.search_batch(query[np.newaxis, :], K, ef, cost=cost)
    return cost


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("arm", ARMS)
@pytest.mark.parametrize("corpus", CORPORA)
class TestCell:
    def test_distances_are_the_exact_kernel_in_order(
        self, all_indices, references, query_sets, corpus, arm, metric, batch
    ):
        index, queries = all_indices[corpus, arm, metric], query_sets[corpus]
        scorer = references[corpus, metric]
        ids, dists = index.search_batch(queries[:batch], K, EF[corpus])
        rows = (ids - ID_BASE) // ID_STRIDE
        np.testing.assert_array_equal(rows * ID_STRIDE + ID_BASE, ids)
        prepared = scorer.prepare_queries(queries[:batch])
        for row in range(batch):
            reduced = scorer.score_pairs(prepared, np.full(K, row), rows[row])
            if arm == "flat":
                # The flat scan's exact kernel is the row-at-a-time GEMM;
                # its bits need not match score_pairs' einsum.  Whatever
                # the batch, a row's answer is that kernel's stable top-k.
                pairs = reduced
                scores = scorer.score_all_batch(prepared[row : row + 1])[0]
                reduced = scores[rows[row]]
                np.testing.assert_allclose(reduced, pairs, rtol=1e-4, atol=1e-4)
                top = np.argsort(scores, kind="stable")[:K]
                np.testing.assert_array_equal(rows[row], top)
            np.testing.assert_array_equal(
                dists[row], scorer.to_true(reduced.astype(np.float64))
            )
            order = list(zip(reduced.tolist(), rows[row].tolist()))
            assert order == sorted(order)

    def test_batch_cost_is_the_merged_single_costs(
        self, all_indices, query_sets, corpus, arm, metric, batch
    ):
        index, queries = all_indices[corpus, arm, metric], query_sets[corpus]
        batch_cost = SearchCost()
        index.search_batch(queries[:batch], K, EF[corpus], cost=batch_cost)
        singles = [
            _single_cost(index, queries[row], EF[corpus]).as_dict()
            for row in range(batch)
        ]
        assert batch_cost.as_dict() == {
            field: sum(single[field] for single in singles) for field in FIELDS
        }
        assert (batch_cost.rescore_rows > 0) == (arm in ("int8", "pq"))
        if arm == "flat":
            assert batch_cost.hops == 0
            assert batch_cost.candidates_visited == 0
            assert batch_cost.distance_comps == batch * len(index)
        else:
            assert batch_cost.hops > 0
            assert batch_cost.distance_comps > batch_cost.candidates_visited


@pytest.mark.parametrize("batch", (3, _ARRAY_MIN_ROWS))
@pytest.mark.parametrize("arm", ARMS)
def test_every_candidate_source_records_its_stage(indices, queries, arm, batch):
    """A traced request shows the searcher subtree whichever arm serves
    it, every stage tagged with who scored the candidates and the graph
    stages with the venue that ran them (that tracing changes no answer
    is the ``trace`` factor of ``tests/test_path_matrix.py``)."""
    index = indices[arm, "euclidean"]
    recorder, cost = SpanRecorder(), SearchCost()
    token = activate(recorder)
    try:
        index.search_batch(queries[:batch], K, cost=cost)
    finally:
        deactivate(token)
    spans = {span["name"]: span["annotations"] for span in recorder.export()}
    want = {
        "flat": ["scan"],
        "float": ["descend", "beam"],
        "int8": ["descend", "beam", "rescore"],
        "pq": ["descend", "beam", "rescore"],
    }[arm]
    assert list(spans) == want
    assert all(notes["scorer"] == arm for notes in spans.values())
    if arm == "flat":
        assert spans["scan"]["rows"] == len(index)
        assert spans["scan"]["num_queries"] == batch
    else:
        assert spans["beam"]["num_queries"] == batch
        assert spans["beam"]["ef"] >= K
        kernel = "array" if batch >= _ARRAY_MIN_ROWS else "heap"
        for stage in ("descend", "beam"):
            assert spans[stage]["kernel"] == kernel
            assert spans[stage]["rounds"] >= 0
        # No beam settles in fewer rounds than it takes to fill up.
        widest = 2 * index.params.M
        assert spans["beam"]["rounds"] > spans["beam"]["ef"] // widest
    if "rescore" in spans:
        assert spans["rescore"]["rows"] == cost.rescore_rows


#: Shards a request spans as one lockstep group of (query, segment)
#: pairs: the group of one segment; two segments routed by hyperplanes;
#: twelve segments behind a random segmenter, which probes them all, so
#: that one query alone is a twelve-row, array-venue group; and two
#: segments every query probes, one of them empty, below
#: ``min_graph_size`` (the flat arm beside a graph arm) or of 100 rows
#: (PQ codebooks of 256 and 100 codewords do not stack: two beams).
SHARD_SHAPES = ("one", "two", "twelve", "empty", "flat", "uneven")


def _shard(data: np.ndarray, shape: str, params) -> ShardIndex:
    ids = np.arange(data.shape[0]) * ID_STRIDE + ID_BASE
    if shape in ("one", "two"):
        config = LannsConfig(
            num_shards=1, num_segments={"one": 1, "two": 2}[shape], segmenter="rh",
            hnsw=params, seed=3,
        )
        return build_lanns_index(data, config=config, ids=ids).shards[0]
    if shape == "twelve":
        segments = [
            build_hnsw(data[s::12], ids=ids[s::12], params=params) for s in range(12)
        ]
        return ShardIndex(0, segments, RandomSegmenter(12))
    if shape == "empty":
        other = HnswIndex(data.shape[1], params=params)
    elif shape == "flat":
        params = replace(params, min_graph_size=100)
        other = build_hnsw(data[500:560], ids=ids[500:560], params=params)
    else:
        other = build_hnsw(data[500:600], ids=ids[500:600], params=params)
    big = build_hnsw(data[:500], ids=ids[:500], params=params)
    return ShardIndex(0, [big, other], RandomSegmenter(2))


@pytest.fixture(scope="module")
def shards(corpora) -> dict[tuple[str, str], ShardIndex]:
    data = corpora["clustered"]
    return {
        (arm, shape): _shard(data, shape, replace(FAST_HNSW, **ARMS[arm]))
        for arm in ("float", "int8", "pq")
        for shape in SHARD_SHAPES
    }


@pytest.mark.parametrize("shape", SHARD_SHAPES)
@pytest.mark.parametrize("arm", ("float", "int8", "pq"))
def test_a_shard_request_is_its_pairs_searched_alone(shards, queries, arm, shape):
    """``ShardIndex.search_batch`` is one lockstep group over every
    (query, probed segment) pair -- each segment descends its own rows,
    one beam and one rescore serve them all.  Each row must answer, and
    the request be charged, as that row searched alone in each of its
    probed segments and merged: ids, distances and ``SearchCost``."""
    shard = shards[arm, shape]
    rows = queries[: 2 * _ARRAY_MIN_ROWS]
    cost = SearchCost()
    ids, dists = shard.search_batch(rows, K, cost=cost)
    alone_cost = SearchCost()
    for row, probed in enumerate(shard.segmenter.route_query_batch(rows)):
        cand_ids, cand_dists = [], []
        for segment in [shard.segments[s] for s in sorted(probed)]:
            if len(segment) == 0:
                continue
            alone_cost.segments_probed += 1
            found_ids, found_dists = segment.search_batch(
                rows[row : row + 1], K, cost=alone_cost
            )
            cand_ids.append(found_ids)
            cand_dists.append(found_dists)
        want_ids, want_dists = merge_segment_results_batch(
            np.hstack(cand_ids), np.hstack(cand_dists), K
        )
        assert ids[row].tobytes() == want_ids[0].tobytes()
        assert dists[row].tobytes() == want_dists[0].tobytes()
    assert cost == alone_cost
    # One query alone: a twelve-row group on the array venue; a graph
    # arm and a flat arm sharing the request; one beam, or two for PQ.
    recorder = SpanRecorder()
    token = activate(recorder)
    try:
        one = shard.search_batch(rows[:1], K)
    finally:
        deactivate(token)
    assert one[0].tobytes() == ids[:1].tobytes()
    spans = recorder.export()
    beams = [span["annotations"] for span in spans if span["name"] == "beam"]
    if shape == "twelve":
        assert [(beam["num_queries"], beam["kernel"]) for beam in beams] == [
            (12, "array")
        ]
    if shape == "flat":
        assert [span["name"] for span in spans].count("scan") == 1
    if shape == "uneven":
        assert len(beams) == (2 if arm == "pq" else 1)


class TestVenues:
    """What only the array venue has: a coalescing caller upstream and a
    per-thread scratch."""

    @staticmethod
    def both_kernels(index, queries, entries, entry_dists, level, expand):
        """Run the heap and the array beam kernel from the same ``(rows,
        s)`` seeds at ``level`` and step width ``expand``: each one's
        ``(ids, dists)`` beams, and what each charged."""
        graph, scorer = index.graph, index._scorer
        query_sq = scorer.query_sq_norms(queries)
        rows = queries.shape[0]
        pool = VisitedPool()
        heap_cost, array_cost = SearchCost(), SearchCost()
        lockstep = search_layer_batch(
            graph, scorer, queries, entries, entry_dists, K, level,
            pool.get_many(len(graph), rows), query_sq, heap_cost, None, expand,
        )
        arrays = search_arrays(
            graph, scorer, queries, entries, entry_dists, K, level,
            pool.get_epochs(graph.capacity, rows), query_sq, array_cost, None,
            expand,
        )
        return lockstep, arrays, heap_cost, array_cost

    @staticmethod
    def assert_same_beams(lockstep, arrays):
        """Ids, distances, padding and dtypes: the two kernels' whole
        output."""
        for heap, array in zip(lockstep, arrays):
            assert heap.dtype == array.dtype
            np.testing.assert_array_equal(heap, array)

    @pytest.mark.parametrize("expand", EXPANDS)
    @pytest.mark.parametrize("metric", METRICS)
    def test_two_kernels_one_beam_rule(
        self, all_indices, query_sets, metric, expand
    ):
        """Both beam kernels search the tied corpus from the same seed,
        below the index's venue choice: heap vs array, kernel to kernel,
        at every step width."""
        index = all_indices["lattice", "float", metric]
        graph, scorer = index.graph, index._scorer
        queries = scorer.prepare_queries(query_sets["lattice"][:_ARRAY_MIN_ROWS])
        rows = queries.shape[0]
        entries = np.full(rows, graph.entry_point, dtype=np.int64)
        entry_dists = scorer.score_pairs(queries, np.arange(rows), entries)
        lockstep, arrays, heap_cost, array_cost = self.both_kernels(
            index, queries, entries[:, np.newaxis], entry_dists[:, np.newaxis], 0,
            expand,
        )
        self.assert_same_beams(lockstep, arrays)
        assert heap_cost == array_cost
        # The corpus does what it is for: beams end inside a tie.
        assert (lockstep[1][:, -1] == lockstep[1][:, -2]).any()

    @pytest.mark.parametrize("expand", EXPANDS)
    @pytest.mark.parametrize("metric", METRICS)
    def test_one_beam_rule_above_the_base_layer_from_many_seeds(
        self, all_indices, query_sets, metric, expand
    ):
        """What a construction wave asks of the kernels and a query never
        does: ``level > 0`` and a whole seed beam per row -- unsorted
        here, some rows a seed short -- on the tied corpus."""
        index = all_indices["lattice", "float", metric]
        graph, scorer = index.graph, index._scorer
        level, seeds = 1, K // 2
        members = np.flatnonzero(np.asarray(graph.levels) >= level)
        assert members.size > 4 * K
        queries = scorer.prepare_queries(query_sets["lattice"][:_ARRAY_MIN_ROWS])
        rows = queries.shape[0]
        rng = np.random.default_rng(17)
        entries = np.stack(
            [rng.choice(members, size=seeds, replace=False) for _ in range(rows)]
        )
        entry_dists = scorer.score_pairs(
            queries, np.arange(rows).repeat(seeds), entries.reshape(-1)
        ).reshape(rows, seeds)
        entries[::3, -1], entry_dists[::3, -1] = -1, np.inf
        lockstep, arrays, heap_cost, array_cost = self.both_kernels(
            index, queries, entries, entry_dists, level, expand
        )
        self.assert_same_beams(lockstep, arrays)
        assert heap_cost == array_cost and heap_cost.hops > 0
        found = arrays[0][arrays[0] >= 0]
        assert (np.asarray(graph.levels)[found] >= level).all()
        assert (lockstep[1][:, -1] == lockstep[1][:, -2]).any()

    def test_a_coalesced_query_equals_the_same_query_alone(self, corpora):
        """Micro-batching decides a query's group size by arrival timing;
        through ``ShardIndex.search_batch`` the bits must not care."""
        data = corpora["lattice"]
        shard = build_lanns_index(
            data,
            config=LannsConfig(
                num_shards=1, num_segments=2, segmenter="rh",
                hnsw=replace(FAST_HNSW, ef_search=K), seed=3,
            ),
        ).shards[0]
        rows = 2 * _ARRAY_MIN_ROWS
        queries = data[:rows] + np.float32(0.5)
        # Segment-level groups really are on both sides of the constant.
        probes = shard.segmenter.route_query_batch(queries)
        routed = np.bincount([segment for probe in probes for segment in probe])
        assert routed.max() >= _ARRAY_MIN_ROWS
        batcher = MicroBatcher(
            lambda _key, block: shard.search_batch(block, K),
            max_batch=rows,
            max_wait_ms=60_000.0,
        )
        try:
            futures = [
                batcher.submit("k", queries[row : row + 1]) for row in range(rows)
            ]
            coalesced = [future.result(timeout=60) for future in futures]
        finally:
            batcher.close()
        assert batcher.largest_batch == rows
        for row, (ids, dists) in enumerate(coalesced):
            alone_ids, alone_dists = shard.search_batch(queries[row : row + 1], K)
            assert ids.tobytes() == alone_ids.tobytes()
            assert dists.tobytes() == alone_dists.tobytes()

    def test_visited_epochs_wrap_around(self, all_indices, query_sets):
        """The array venue's visited tags are one byte, so the 255th
        later group search on a thread draws the same epoch again: it
        must not take the first search's marks for its own."""
        index = all_indices["lattice", "float", "euclidean"]
        queries = query_sets["lattice"]
        first = queries[:_ARRAY_MIN_ROWS]
        others = queries[_ARRAY_MIN_ROWS : 2 * _ARRAY_MIN_ROWS]
        want = index.search_batch(first, K)
        for _ in range(254):
            index.search_batch(others, K)
        got = index.search_batch(first, K)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_two_threads_search_one_segment(self, all_indices, query_sets):
        """Graph shared, scratch per thread: concurrent groups on one
        segment return what they return alone, and each is charged what
        it costs alone -- the pairs it scored, not a share of the
        segment's running count."""
        index = all_indices["lattice", "int8", "euclidean"]
        queries = query_sets["lattice"]
        groups = [
            queries[:_ARRAY_MIN_ROWS],
            queries[_ARRAY_MIN_ROWS : 3 * _ARRAY_MIN_ROWS],
        ]
        want = []
        for group in groups:
            cost = SearchCost()
            want.append((*index.search_batch(group, K, cost=cost), cost))
        wrong: list[int] = []

        def hammer(which: int) -> None:
            for _ in range(60):
                cost = SearchCost()
                ids, dists = index.search_batch(groups[which], K, cost=cost)
                if (
                    ids.tobytes() != want[which][0].tobytes()
                    or dists.tobytes() != want[which][1].tobytes()
                    or cost != want[which][2]
                ):
                    wrong.append(which)

        threads = [threading.Thread(target=hammer, args=(which,)) for which in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


def array_venue_digest(index: HnswIndex, queries: np.ndarray) -> str:
    """sha256 over everything the two array kernels hand back -- ids,
    distances, ``SearchCost``, ``rounds`` -- for groups of 12 and 41 rows
    in both shapes they are called in.  *Query*: descend to layer 0, one
    seed, one beam.  *Construction wave*: mixed per-row descent targets,
    then a beam above the base layer whose (partly blanked) result seeds
    the base-layer beam -- many seeds per row, rows short of seeds."""
    graph, scorer = index.graph, index._scorer
    assert graph.max_level >= 2
    pool, cost, digest = VisitedPool(), SearchCost(), hashlib.sha256()

    def absorb(found, notes):
        for array in found:
            digest.update(array.tobytes())
        # Plain ints: a numpy integer here does not survive the wire's JSON.
        assert {type(value) for value in cost.as_dict().values()} == {int}
        digest.update(f"{cost!r} {notes['rounds']}".encode())

    for rows in (12, 41):
        prepared = scorer.prepare_queries(queries[:rows])
        query_sq = scorer.query_sq_norms(prepared)
        traversal = scorer
        if index._quantized is not None:
            traversal = index._quantized.view(prepared)

        def descend(targets):
            notes: dict = {}
            found = descend_arrays(
                graph, traversal, prepared, targets, query_sq, cost, notes
            )
            absorb(found, notes)
            return found

        def beam(seeds, seed_dists, ef, level):
            notes: dict = {}
            found = search_arrays(
                graph, traversal, prepared, seeds, seed_dists, ef, level,
                pool.get_epochs(graph.capacity, rows), query_sq, cost, notes,
            )
            absorb(found, notes)
            return found

        entries, entry_dists = descend(np.zeros(rows, dtype=np.int64))
        beam(entries[:, np.newaxis], entry_dists[:, np.newaxis], 2 * K, 0)
        descend(np.arange(rows) % 3)
        entries, entry_dists = descend(np.ones(rows, dtype=np.int64))
        seeds, seed_dists = beam(
            entries[:, np.newaxis], entry_dists[:, np.newaxis], K, 1
        )
        seeds[::3, -2:], seed_dists[::3, -2:] = -1, np.inf
        beam(seeds, seed_dists, K, 0)
    return digest.hexdigest()[:16]


#: :func:`array_venue_digest` of every graph-searching index of this
#: module, computed at d0dc44a -- the commit before the array round was
#: rebuilt around flat ``take`` gathers (PR 30) -- so the rebuilt kernels
#: answer, charge and count rounds as the ones they replaced, bit for bit.
#: Cosine and inner product reach negative reduced distances (the key's
#: sign path), the lattice an exact tie at every beam boundary.  To add
#: a pin, compute it in a ``git clone`` of the parent, never here.  The
#: three lattice-cosine pins were re-recorded once, with their values at
#: the parent 9823991 beside them: the graph they search moved when
#: neighbor selection switched from a stacked GEMM to the ``einsum`` of
#: every other pair, which flipped a ulp-level ``cross < dist``.
ARRAY_VENUE_PINS = {
    ("clustered", "float", "euclidean"): "887c073fe5ab6b56",
    ("clustered", "float", "cosine"): "6255f0332693aa22",
    ("clustered", "float", "inner_product"): "6a249f86777d8848",
    ("clustered", "int8", "euclidean"): "cf39f8b1b928ad98",
    ("clustered", "int8", "cosine"): "99b6a1e7eac7beb4",
    ("clustered", "int8", "inner_product"): "5835b545161e2e28",
    ("clustered", "pq", "euclidean"): "0a9a7547eb8d6d17",
    ("clustered", "pq", "cosine"): "9eda799a1a1a824c",
    ("clustered", "pq", "inner_product"): "46adfc35064c491c",
    ("lattice", "float", "euclidean"): "931f7980c0b6731e",
    ("lattice", "float", "cosine"): "5d031a2a0aa9447a",  # 9823991: a15bf95f390eeb82
    ("lattice", "float", "inner_product"): "172b88a86ea2e861",
    ("lattice", "int8", "euclidean"): "e841b6f8d4b426be",
    ("lattice", "int8", "cosine"): "856f177611e35599",  # 9823991: 0661e7936681c99d
    ("lattice", "int8", "inner_product"): "f55d2fa9c1e8f80e",
    ("lattice", "pq", "euclidean"): "931f7980c0b6731e",
    ("lattice", "pq", "cosine"): "f05e6c501e8bad2e",  # 9823991: 1def75efeb015271
    ("lattice", "pq", "inner_product"): "172b88a86ea2e861",
}


@pytest.mark.parametrize("corpus, arm, metric", ARRAY_VENUE_PINS)
def test_array_venue_is_pinned(all_indices, query_sets, corpus, arm, metric):
    digest = array_venue_digest(all_indices[corpus, arm, metric], query_sets[corpus])
    assert digest == ARRAY_VENUE_PINS[corpus, arm, metric]


class TestExternalIdGather:
    """The tail gathers through a private row -> external-id array."""

    def test_public_property_stays_a_fresh_array(self, indices, queries):
        index = indices["float", "euclidean"]
        before = index.search_batch(queries[:5], K)
        index.external_ids[:] = -5  # a caller scribbling on its own copy
        after = index.search_batch(queries[:5], K)
        np.testing.assert_array_equal(before[0], after[0])
        assert index.external_ids is not index.external_ids

    @pytest.mark.parametrize("arm", ARMS)
    def test_add_and_reload_invalidate_it(self, clustered_data, arm):
        """search -> add() -> search: the id gather is rebuilt, and both
        venues read the graph add() wrote -- there is no adjacency copy
        for an array-venue group to have kept."""
        params = replace(FAST_HNSW, **ARMS[arm])
        index = build_hnsw(clustered_data[:200], params=params)
        index.search(clustered_data[0], K)  # the array now exists
        # ... and the array venue has searched the pre-add graph.
        index.search_batch(clustered_data[:_ARRAY_MIN_ROWS], K)
        index.add(clustered_data[200:260], ids=np.arange(5000, 5060))
        ids, _ = index.search(clustered_data[230], 1, ef=64)
        assert ids.tolist() == [5030]
        ids, _ = index.search_batch(
            clustered_data[200 : 200 + _ARRAY_MIN_ROWS], 1, ef=64
        )
        assert ids[:, 0].tolist() == list(range(5000, 5000 + _ARRAY_MIN_ROWS))
        restored = HnswIndex.from_arrays(index.to_arrays())
        want = index.search_batch(clustered_data[195:205], K)
        got = restored.search_batch(clustered_data[195:205], K)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
