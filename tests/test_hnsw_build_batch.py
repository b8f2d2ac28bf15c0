"""Tests for the lockstep construction path (the only one).

Covers the wave kernels (per-target batched descent, multi-problem
neighbor selection), the wave insert's determinism and graph invariants
at every wave size down to one row, recall across wave sizes, and the
vectorised serialization / id-validation paths.
"""

import numpy as np
import pytest

from repro.data.synthetic import clustered_gaussians
from repro.hnsw.graph import HnswGraph
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
    def test_a_batch_equals_its_rows_alone(self, clustered_data):
        index = build_hnsw(clustered_data, params=fast_params())
        graph, scorer = index.graph, index._scorer
        rng = np.random.default_rng(7)
        queries = scorer.prepare_queries(
            clustered_data[rng.integers(0, len(clustered_data), 24)]
        )
        targets = rng.integers(0, max(graph.max_level, 1), 24).tolist()
        entries, dists = descend_to_levels_batch(
            graph, scorer, queries, targets, scorer.query_sq_norms(queries)
        )
        for row in range(queries.shape[0]):
            (entry,), (dist,) = descend_to_levels_batch(
                graph, scorer, queries[row : row + 1], [targets[row]]
            )
            # score_pairs is batch-composition invariant: same walk,
            # same bits, whoever shares the rounds.
            assert (entries[row], dists[row]) == (entry, dist)

    def test_empty_batch(self, clustered_data):
        index = build_hnsw(clustered_data[:50], params=fast_params())
        entries, dists = descend_to_levels_batch(
            index.graph,
            index._scorer,
            np.empty((0, clustered_data.shape[1]), dtype=np.float32),
            [],
        )
        assert entries == [] and dists == []


class TestHeuristicBatch:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "inner_product"])
    @pytest.mark.parametrize("keep_pruned", [True, False])
    def test_a_batch_equals_its_problems_alone(self, metric, keep_pruned):
        """A problem's result must not depend on its batch-mates."""
        rng = np.random.default_rng(3)
        from repro.distance.scorer import Scorer

        scorer = Scorer(metric, 12)
        scorer.add(rng.standard_normal((200, 12)).astype(np.float32))
        problems = []
        for size in (1, 3, 8, 20, 40):
            ids = rng.choice(200, size=size, replace=False)
            dists = rng.random(size).tolist()
            problems.append(list(zip(dists, ids.tolist())))
        for m in (1, 4, 10):
            batched = select_neighbors_heuristic_batch(
                scorer, problems, m, keep_pruned=keep_pruned
            )
            for problem, result in zip(problems, batched):
                (alone,) = select_neighbors_heuristic_batch(
                    scorer, [problem], m, keep_pruned=keep_pruned
                )
                assert result == alone

    def test_zero_m(self):
        from repro.distance.scorer import Scorer

        scorer = Scorer("euclidean", 4)
        scorer.add(np.eye(4, dtype=np.float32))
        assert select_neighbors_heuristic_batch(
            scorer, [[(0.5, 0)], [(0.1, 1)]], 0
        ) == [[], []]


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
        a, b = HnswGraph(), HnswGraph()
        levels = [0, 2, 1, 0, 3]
        for level in levels:
            a.add_node(level)
        assert b.add_nodes(levels) == 0
        assert a.levels == b.levels
        assert all(
            a.neighbors(node, 0) == b.neighbors(node, 0)
            for node in range(len(levels))
        )

    def test_add_nodes_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            HnswGraph().add_nodes([0, -1])

    def test_set_level_csr(self):
        graph = HnswGraph()
        graph.add_nodes([1, 0, 1])
        # Level-1 adjacency: node 0 -> [2], node 2 -> [0]; node 1 absent.
        graph.set_level_csr(1, [0, 2], [0, 1, 1, 2], [2, 0])
        assert graph.neighbors(0, 1) == [2]
        assert graph.neighbors(2, 1) == [0]
