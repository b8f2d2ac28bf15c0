"""Tests for the lockstep construction path (the only one).

Covers the wave kernels (per-target batched descent, multi-problem
neighbor selection), the wave insert's determinism and graph invariants
at every wave size down to one row, recall across wave sizes, and the
vectorised serialization / id-validation paths.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import clustered_gaussians
from repro.distance.scorer import Scorer
from repro.hnsw.graph import HnswGraph, VisitedEpochs
from repro.hnsw.heuristic import select_neighbors_heuristic_batch
from repro.hnsw.index import HnswIndex, build_hnsw
from repro.hnsw.params import HnswParams
from repro.hnsw.search import descend_to_levels_batch
from repro.offline.brute_force import exact_top_k
from repro.offline.recall import recall_at_k
from tests.conftest import make_clustered


def fast_params(**overrides) -> HnswParams:
    defaults = dict(M=8, ef_construction=48, ef_search=48, seed=0)
    defaults.update(overrides)
    return HnswParams(**defaults)


def payloads_equal(a: dict, b: dict, *, ignore: tuple[str, ...] = ()) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[key], b[key]) for key in a if key not in ignore
    )


class TestDescendToLevelsBatch:
    """Array signature (was lists in, lists out); same two tests."""

    def test_a_batch_equals_its_rows_alone(self, clustered_data):
        index = build_hnsw(clustered_data, params=fast_params())
        graph, scorer = index.graph, index._scorer
        rng = np.random.default_rng(7)
        queries = scorer.prepare_queries(
            clustered_data[rng.integers(0, len(clustered_data), 24)]
        )
        targets = rng.integers(0, max(graph.max_level, 1), 24)
        entries, dists = descend_to_levels_batch(
            graph, scorer, queries, targets, scorer.query_sq_norms(queries)
        )
        assert (entries.dtype, dists.dtype) == (np.int64, np.float32)
        for row in range(queries.shape[0]):
            entry, dist = descend_to_levels_batch(
                graph, scorer, queries[row : row + 1], targets[row : row + 1]
            )
            # score_pairs is batch-composition invariant: same walk,
            # same bits, whoever shares the rounds.
            assert (entries[row], dists[row]) == (entry[0], dist[0])

    def test_empty_batch(self, clustered_data):
        index = build_hnsw(clustered_data[:50], params=fast_params())
        entries, dists = descend_to_levels_batch(
            index.graph,
            index._scorer,
            np.empty((0, clustered_data.shape[1]), dtype=np.float32),
            np.empty(0, dtype=np.int64),
        )
        assert entries.shape == dists.shape == (0,)


class TestHeuristicBatch:
    """Array signature (was tuple lists); same two tests."""

    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "inner_product"])
    @pytest.mark.parametrize("keep_pruned", [True, False])
    def test_a_stack_of_one_equals_any_larger_stack(self, metric, keep_pruned):
        """A problem's result must not depend on its stack-mates (was
        ``test_a_batch_equals_its_problems_alone``)."""
        rng = np.random.default_rng(3)
        scorer = Scorer(metric, 12)
        scorer.add(rng.standard_normal((200, 12)).astype(np.float32))
        ids = np.full((5, 40), -1, dtype=np.int64)
        dists = np.full((5, 40), np.inf, dtype=np.float32)
        for row, size in enumerate((1, 3, 8, 20, 40)):
            ids[row, :size] = rng.choice(200, size=size, replace=False)
            dists[row, :size] = rng.random(size)
        for m in (1, 4, 10):
            stacked = select_neighbors_heuristic_batch(
                scorer, ids, dists, m, keep_pruned=keep_pruned
            )
            for row in range(5):
                alone = select_neighbors_heuristic_batch(
                    scorer, ids[row : row + 1], dists[row : row + 1], m,
                    keep_pruned=keep_pruned,
                )
                for got, want in zip(stacked, alone):
                    assert got[row].tobytes() == want[0].tobytes()

    def test_zero_m(self):
        scorer = Scorer("euclidean", 4)
        scorer.add(np.eye(4, dtype=np.float32))
        ids, dists = select_neighbors_heuristic_batch(
            scorer,
            np.array([[0], [1]]),
            np.array([[0.5], [0.1]], dtype=np.float32),
            0,
        )
        assert ids.shape == dists.shape == (2, 0)


class TestBatchedBuildDeterminism:
    @pytest.mark.parametrize("wave", [4, 16, 64])
    def test_same_seed_same_graph(self, wave):
        base = make_clustered(300, 12, seed=3)
        params = fast_params(build_batch=wave)
        first = build_hnsw(base, params=params).to_arrays()
        second = build_hnsw(base, params=params).to_arrays()
        assert payloads_equal(first, second)

    def test_seed_changes_graph(self):
        base = make_clustered(300, 12, seed=3)
        a = build_hnsw(base, params=fast_params(build_batch=16)).to_arrays()
        b = build_hnsw(
            base, params=fast_params(build_batch=16, seed=9)
        ).to_arrays()
        assert not payloads_equal(a, b)

    def test_incremental_adds_deterministic(self):
        base = make_clustered(240, 10, seed=4)

        def build():
            index = HnswIndex(dim=10, params=fast_params(build_batch=32))
            for start in range(0, 240, 80):
                index.add(base[start : start + 80])
            return index.to_arrays()

        assert payloads_equal(build(), build())

    def test_level_stream_ignores_wave_size(self):
        """One level per row from the same RNG stream, whatever the wave."""
        base = make_clustered(200, 10, seed=6)
        one_by_one = build_hnsw(base, params=fast_params(build_batch=1))
        batched = build_hnsw(base, params=fast_params(build_batch=32))
        assert one_by_one.graph.levels == batched.graph.levels

    def test_wave_sizes_zero_and_one_build_the_same_graph(self):
        """``build_batch`` is only the wave stride: 0 and 1 both mean one
        row per wave (``params_json`` records the value given)."""
        base = make_clustered(200, 10, seed=6)
        zero = build_hnsw(base, params=fast_params(build_batch=0))
        one = build_hnsw(base, params=fast_params(build_batch=1))
        assert payloads_equal(
            zero.to_arrays(), one.to_arrays(), ignore=("params_json",)
        )

    @pytest.mark.parametrize("wave", [1, 64])
    def test_single_row_adds_are_waves_of_one(self, wave):
        """A stream of one-row ``add`` calls is an ordinary run of waves:
        invariants hold, the same seed gives the same graph, and the wave
        size -- never filled -- does not matter."""
        base = make_clustered(120, 8, seed=10)

        def build(build_batch):
            index = HnswIndex(dim=8, params=fast_params(build_batch=build_batch))
            for row in base:
                index.add(row)
            return index

        index = build(wave)
        assert len(index) == 120
        index.graph.check_invariants(
            index.params.effective_max_m, index.params.effective_max_m0
        )
        assert payloads_equal(index.to_arrays(), build(wave).to_arrays())
        assert payloads_equal(
            index.to_arrays(), build(1).to_arrays(), ignore=("params_json",)
        )
        ids, _ = index.search_batch(base, 1, ef=48)
        assert recall_at_k(ids, np.arange(120)[:, None], 1) > 0.95

    @pytest.mark.parametrize("rows_before", [0, 30])
    def test_adding_zero_rows_is_a_no_op(self, rows_before):
        base = make_clustered(30, 6, seed=11)
        index = HnswIndex(dim=6, params=fast_params())
        index.add(base[:rows_before])
        before = index.to_arrays()
        index.add(np.empty((0, 6), dtype=np.float32))
        index.add(
            np.empty((0, 6), dtype=np.float32), ids=np.empty(0, dtype=np.int64)
        )
        assert len(index) == rows_before
        assert payloads_equal(before, index.to_arrays())
        index.add(base[rows_before:] if rows_before == 0 else base[:1] + 1.0)
        assert index.external_ids[-1] == len(index) - 1


class TestBatchedBuildStructure:
    @pytest.mark.parametrize(
        "metric", ["euclidean", "cosine", "inner_product"]
    )
    def test_invariants_hold(self, metric):
        base = make_clustered(400, 12, seed=5)
        index = build_hnsw(
            base, metric=metric, params=fast_params(build_batch=32)
        )
        index.graph.check_invariants(
            index.params.effective_max_m, index.params.effective_max_m0
        )

    def test_simple_selection_ablation(self):
        """use_heuristic=False flows through the wave path too."""
        base = make_clustered(300, 10, seed=7)
        params = fast_params(build_batch=32, use_heuristic=False)
        index = build_hnsw(base, params=params)
        index.graph.check_invariants(
            index.params.effective_max_m, index.params.effective_max_m0
        )
        repeat = build_hnsw(base, params=params)
        assert payloads_equal(index.to_arrays(), repeat.to_arrays())

    def test_small_adds_and_bootstrap(self):
        index = HnswIndex(dim=6, params=fast_params(build_batch=64))
        rng = np.random.default_rng(0)
        index.add(rng.standard_normal(6).astype(np.float32))  # single row
        index.add(rng.standard_normal((3, 6)).astype(np.float32))
        index.add(rng.standard_normal((70, 6)).astype(np.float32))
        assert len(index) == 74
        index.graph.check_invariants(
            index.params.effective_max_m, index.params.effective_max_m0
        )
        ids, dists = index.search_batch(
            rng.standard_normal((5, 6)).astype(np.float32), 3
        )
        assert (ids >= 0).all()

    def test_every_node_reachable(self):
        """Wave members must end up linked into the graph, not orphaned."""
        base = make_clustered(500, 8, seed=8)
        index = build_hnsw(base, params=fast_params(build_batch=64))
        ids, _ = index.search_batch(base, 1, ef=64)
        assert recall_at_k(ids, np.arange(500)[:, None], 1) > 0.95

    def test_serialization_roundtrip(self, tmp_path):
        base = make_clustered(300, 12, seed=9)
        index = build_hnsw(base, params=fast_params(build_batch=32))
        path = str(tmp_path / "index.npz")
        index.save(path)
        loaded = HnswIndex.load(path)
        assert payloads_equal(index.to_arrays(), loaded.to_arrays())
        queries = base[:10]
        a = index.search_batch(queries, 5)
        b = loaded.search_batch(queries, 5)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


def graph_digest(index: HnswIndex) -> str:
    """sha256 over entry point, max level and every neighbor list in
    (node, level) order -- through the public accessor, so the value does
    not depend on how the graph stores them."""
    graph = index.graph
    digest = hashlib.sha256(f"{graph.entry_point}/{graph.max_level}/".encode())
    for node in range(len(graph)):
        for level in range(graph.levels[node] + 1):
            digest.update(
                np.asarray(graph.neighbors(node, level), dtype=np.int64).tobytes()
            )
            digest.update(b"|")
    return digest.hexdigest()[:16]


def payload_digest(payload: dict) -> str:
    """sha256 over every ``to_arrays()`` member: name, dtype, shape, bytes."""
    digest = hashlib.sha256()
    for key in sorted(payload):
        array = np.asarray(payload[key])
        digest.update(f"{key}:{array.dtype.str}:{array.shape}:".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


#: ``(seed, rows, build_batch) -> (graph digest, to_arrays digest)`` of
#: ``make_clustered(rows, 16, seed=seed + 10)`` under ``fast_params``.
#: The *graph* column was recorded at commit 727d78d (list-of-lists
#: adjacency, every wave on the heap kernels) and may not move.  The
#: *export* column (here and in ``PINNED_MODE_GRAPHS``) was re-recorded
#: once, at PR 26, for format_version 2 -- ``table`` / ``degrees`` as the
#: graph holds them in place of per-level ``indptr_<l>`` / ``indices_<l>``
#: -- and checked against a clone of the parent, 4d00302: the same 18
#: values come from its builds with those members swapped by hand.
PINNED_GRAPHS = {
    (0, 250, 1): ("29d74e8db615eebc", "8a6e7014aa1053c9"),
    (0, 250, 64): ("f2aad883f1e76b78", "6e3ed99c844e92b3"),
    (0, 4000, 1): ("0662f307bf1990ff", "0c7987df3421faf1"),
    (0, 4000, 64): ("38f81053ce4f5029", "4bbde6efdefcb967"),
    (1, 250, 1): ("4f445d71ad2d8cf2", "0f23abdfa8dbf635"),
    (1, 250, 64): ("efc2ae0373cd2e04", "199fc555e4496c30"),
    (1, 4000, 1): ("29bb3b2b18829395", "335cab38c81372b9"),
    (1, 4000, 64): ("11c217c2e6766894", "ed535bd910e07c76"),
    (2, 250, 1): ("d7fd724c8f8b2ead", "871482a916a90558"),
    (2, 250, 64): ("1d4a73ed22ac7743", "aad8fbda10ec7deb"),
    (2, 4000, 1): ("f35e86f6f2e4f777", "f713a1219a121742"),
    (2, 4000, 64): ("b914e3d4ae976b19", "a6fb3d02df5f6e8f"),
}


#: The selection modes the pins above never reach -- closest-``M``
#: selection, no ``keepPrunedConnections`` padding, cosine -- as
#: ``(mode, rows) -> digests`` of ``make_clustered(rows, 16, seed=10)``
#: under ``fast_params(seed=0)`` plus the mode's overrides, recorded at
#: commit a219e4e (selection over ``(dist, node)`` tuple lists).
PINNED_MODES = {
    "simple": {"params": {"use_heuristic": False}},
    "no_keep_pruned": {"params": {"keep_pruned_connections": False}},
    "cosine": {"metric": "cosine"},
}
PINNED_MODE_GRAPHS = {
    ("simple", 250): ("ecd4709462eecce0", "0b2a7bab33de68f3"),
    ("simple", 4000): ("2c047431bf1b0e76", "7ec4beb63abbc3a0"),
    ("no_keep_pruned", 250): ("4b35da1d40a08372", "6616735f46afebe5"),
    ("no_keep_pruned", 4000): ("f624bbb019146d8d", "aaa8cc99e8722905"),
    ("cosine", 250): ("d0405283ddcd7bcb", "186432f740b42974"),
    ("cosine", 4000): ("ce5610896922227d", "6adcbbc67eb63f4e"),
}


class TestPinnedGraphs:
    @pytest.mark.parametrize("seed, rows, build_batch", list(PINNED_GRAPHS))
    def test_graph_and_export_digests(self, seed, rows, build_batch):
        index = build_hnsw(
            make_clustered(rows, 16, seed=seed + 10),
            params=fast_params(seed=seed, build_batch=build_batch),
        )
        assert (
            graph_digest(index), payload_digest(index.to_arrays())
        ) == PINNED_GRAPHS[seed, rows, build_batch]

    def test_a_lone_upper_layer_row_of_a_wide_wave_scores_as_a_batch_of_one(
        self, monkeypatch
    ):
        """A row that is alone on an upper layer of its 64-row wave searches
        that layer as a lockstep group of one: the heap kernels build no
        ``query_rows`` for it, ``score_pairs`` takes its one-row branch,
        and the graph is still the pinned one."""
        score_pairs = Scorer.score_pairs
        lone = []

        def spying(self, queries, query_rows, ids, query_sq=None):
            if queries.shape[0] == 1:
                lone.append(query_rows)
            return score_pairs(self, queries, query_rows, ids, query_sq)

        monkeypatch.setattr(Scorer, "score_pairs", spying)
        index = build_hnsw(
            make_clustered(250, 16, seed=10),
            params=fast_params(seed=0, build_batch=64),
        )
        # Every wave of this build is wide (249 = 3 x 64 + 57), so a
        # one-row call can only be an upper-layer group.
        assert lone and all(rows is None for rows in lone)
        assert (
            graph_digest(index), payload_digest(index.to_arrays())
        ) == PINNED_GRAPHS[0, 250, 64]

    @pytest.mark.parametrize("mode, rows", list(PINNED_MODE_GRAPHS))
    def test_selection_mode_digests(self, mode, rows):
        spec = PINNED_MODES[mode]
        index = build_hnsw(
            make_clustered(rows, 16, seed=10),
            metric=spec.get("metric", "euclidean"),
            params=fast_params(seed=0, **spec.get("params", {})),
        )
        assert (
            graph_digest(index), payload_digest(index.to_arrays())
        ) == PINNED_MODE_GRAPHS[mode, rows]


class TestTableUnderRandomAdds:
    @given(
        st.integers(0, 2**16),
        st.sampled_from([1, 3, 16, 64]),
        st.lists(st.integers(1, 90), min_size=1, max_size=5),
        st.sampled_from(["euclidean", "cosine"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_invariants_every_wave_and_an_exact_round_trip(
        self, seed, build_batch, splits, metric
    ):
        """However ``add()`` calls cut the rows into waves (one-row heap
        waves, wide array waves, a wave that reallocates the table), the
        table satisfies ``check_invariants`` after every wave and
        ``from_arrays(to_arrays())`` rebuilds it cell for cell."""
        params = fast_params(M=4, ef_construction=12, seed=seed, build_batch=build_batch)
        index = HnswIndex(dim=6, metric=metric, params=params)
        data = make_clustered(sum(splits), 6, seed=seed)
        insert_wave = index._insert_wave
        waves = []

        def checked_wave(rows, levels):
            insert_wave(rows, levels)
            index.graph.check_invariants(
                params.effective_max_m, params.effective_max_m0
            )
            waves.append(len(rows))

        index._insert_wave = checked_wave
        start = 0
        for size in splits:
            index.add(data[start : start + size])
            start += size
        assert sum(waves) == len(index) - 1  # the first row is placed inline
        graph = index.graph
        graph.check_invariants(params.effective_max_m, params.effective_max_m0)

        restored = HnswIndex.from_arrays(index.to_arrays()).graph
        slots = sum(graph.levels) + len(graph)
        assert restored.levels == graph.levels
        assert (restored.entry_point, restored.max_level) == (
            graph.entry_point, graph.max_level,
        )
        for name in ("table", "degrees"):
            np.testing.assert_array_equal(
                getattr(restored, name)[:slots], getattr(graph, name)[:slots]
            )
        np.testing.assert_array_equal(
            restored.base[: len(graph)], graph.base[: len(graph)]
        )
        assert restored.table.dtype == graph.table.dtype == np.int32


class TestVisitedScratchDuringBuild:
    def test_the_array_venue_scratch_is_reallocated_per_doubling_not_per_wave(
        self, monkeypatch
    ):
        """Every wave searches a larger graph than the last; sized from the
        node count the ``rows x n`` visited bytes would be reallocated and
        zeroed every wave (O(n^2) bytes over a build).  Sized from the
        table's capacity they move only when the table doubles."""
        reallocations = []
        reset = VisitedEpochs.reset

        def counting_reset(self, capacity, rows):
            before = self.tags
            reset(self, capacity, rows)
            if self.tags is not before:
                reallocations.append((capacity, rows))

        monkeypatch.setattr(VisitedEpochs, "reset", counting_reset)
        index = build_hnsw(make_clustered(2000, 8, seed=2), params=fast_params())
        waves = -(-1999 // index.params.build_batch)
        doublings = len({capacity for capacity, _ in reallocations})
        assert 4 <= doublings <= 8  # ~log2(2000 / 64)
        # One per doubling, plus the odd narrower-then-wider group.
        assert len(reallocations) <= 2 * doublings < waves
        assert index.graph.capacity >= len(index)


class TestBatchedBuildRecall:
    def test_recall_across_wave_sizes(self):
        base = clustered_gaussians(2000, 16, seed=0)
        queries = clustered_gaussians(100, 16, seed=1)
        truth, _ = exact_top_k(base, queries, 10)
        recalls = {}
        for wave in (1, 64):
            index = build_hnsw(base, params=fast_params(build_batch=wave))
            ids, _ = index.search_batch(queries, 10, ef=64)
            recalls[wave] = recall_at_k(ids, truth, 10)
        assert recalls[64] >= recalls[1] - 0.05
        assert recalls[64] > 0.8

    def test_cosine_recall(self):
        base = clustered_gaussians(1000, 16, seed=2)
        queries = clustered_gaussians(50, 16, seed=3)
        truth, _ = exact_top_k(base, queries, 10, metric="cosine")
        index = build_hnsw(
            base, metric="cosine", params=fast_params(build_batch=32)
        )
        ids, _ = index.search_batch(queries, 10, ef=64)
        assert recall_at_k(ids, truth, 10) > 0.8


class TestVectorisedValidation:
    def test_duplicate_within_call(self):
        index = HnswIndex(dim=4, params=fast_params())
        with pytest.raises(ValueError, match="duplicate ids"):
            index.add(np.eye(4, dtype=np.float32), ids=np.array([0, 1, 1, 2]))

    def test_clash_with_existing_reports_first(self):
        index = HnswIndex(dim=4, params=fast_params())
        index.add(np.eye(4, dtype=np.float32), ids=np.array([5, 6, 7, 8]))
        with pytest.raises(ValueError, match="id 7 already present"):
            index.add(
                np.eye(4, dtype=np.float32), ids=np.array([9, 7, 6, 10])
            )

    def test_clash_detected_in_bulk_adds(self):
        """The vectorised (large-batch) membership path reports clashes."""
        rng = np.random.default_rng(1)
        index = HnswIndex(dim=4, params=fast_params())
        index.add(
            rng.standard_normal((8, 4)).astype(np.float32),
            ids=np.arange(2000, 2008),
        )
        bulk_ids = np.arange(1024)
        bulk_ids[700] = 2003  # collides with an existing id
        with pytest.raises(ValueError, match="id 2003 already present"):
            index.add(
                rng.standard_normal((1024, 4)).astype(np.float32),
                ids=bulk_ids,
            )
        # And a clean bulk add of the same size goes through.
        index.add(
            rng.standard_normal((1024, 4)).astype(np.float32),
            ids=np.arange(1024),
        )
        assert len(index) == 8 + 1024

    def test_negative_ids_rejected(self):
        index = HnswIndex(dim=4, params=fast_params())
        with pytest.raises(ValueError, match="non-negative"):
            index.add(np.eye(4, dtype=np.float32), ids=np.array([0, 1, -2, 3]))

    def test_build_batch_validation(self):
        with pytest.raises(ValueError, match="build_batch"):
            HnswParams(build_batch=-1)
        # 0 and 1 are valid: waves of one row.
        assert HnswParams(build_batch=0).build_batch == 0

    def test_params_roundtrip_includes_build_batch(self):
        params = fast_params(build_batch=17)
        assert HnswParams.from_dict(params.to_dict()).build_batch == 17


class TestBulkGraphOps:
    def test_add_nodes_matches_add_node(self):
        a, b = HnswGraph(4), HnswGraph(4)
        levels = [0, 2, 1, 0, 3]
        for level in levels:
            a.add_node(level)
        assert b.add_nodes(levels) == 0
        assert a.levels == b.levels
        slots = sum(levels) + len(levels)
        assert a.base[: len(levels)].tolist() == b.base[: len(levels)].tolist()
        assert a.table[:slots].tolist() == b.table[:slots].tolist()
        assert not a.degrees[:slots].any() and not b.degrees[:slots].any()

    def test_add_nodes_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            HnswGraph(4).add_nodes([0, -1])
