"""Cross-module property-based tests (hypothesis + seeded numpy fuzzing).

These check the invariants the platform's correctness actually rests on:
partitioning + two-level merging must be *transparent* -- for exact
(brute force) search, any (shards, segments) layout must return exactly
the global answer; HNSW serialization must be lossless for arbitrary
(well-formed) float32 data; and the batch kernels the micro-batching
admission layer silently depends on (``batch_top_k``,
``Scorer.score_pairs``) must be invariant to batch composition --
coalescing requests from different clients must never change any row's
answer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import (
    empty_part,
    merge_segment_results_batch,
    merge_shard_results_batch,
)
from repro.core.topk import batch_top_k, per_shard_top_k
from repro.distance.scorer import Scorer
from repro.hnsw.index import build_hnsw
from repro.hnsw.params import HnswParams
from repro.offline.brute_force import exact_top_k
from repro.sharding.sharder import HashSharder
from repro.storage.manifest import hnsw_from_bytes, hnsw_to_bytes

TINY_HNSW = HnswParams(M=4, ef_construction=16, ef_search=16, seed=0)


@st.composite
def small_dataset(draw):
    n = draw(st.integers(4, 40))
    dim = draw(st.integers(2, 6))
    flat = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False, width=32),
            min_size=n * dim,
            max_size=n * dim,
        )
    )
    return np.asarray(flat, dtype=np.float32).reshape(n, dim)


class TestPartitioningTransparency:
    @given(small_dataset(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_exact_search_is_partition_invariant(
        self, data, num_shards, num_segments, k
    ):
        """Brute-force search through the two-level merge equals global
        brute-force search, for ANY partition layout.

        This is the platform's core correctness contract: partitioning
        may cost recall only through the *approximate* per-segment index
        and the segmenter routing, never through the merge machinery.
        """
        n = data.shape[0]
        k = min(k, n)
        query = data[0]
        global_ids, _ = exact_top_k(data, query[np.newaxis], k)

        sharder = HashSharder(num_shards)
        rng = np.random.default_rng(0)
        segment_of = rng.integers(0, num_segments, size=n)
        shard_parts = []
        for shard in range(num_shards):
            # One k-wide block per segment, side by side on one canvas.
            cand_ids, cand_dists = empty_part(1, num_segments * k)
            for segment in range(num_segments):
                rows = np.asarray(
                    [
                        row
                        for row in range(n)
                        if sharder.shard_of(row) == shard
                        and segment_of[row] == segment
                    ],
                    dtype=np.int64,
                )
                if rows.size == 0:
                    continue
                ids, dists = exact_top_k(
                    data[rows], query[np.newaxis], min(k, rows.size)
                )
                columns = slice(segment * k, segment * k + ids.shape[1])
                cand_ids[0, columns] = rows[ids[0]]
                cand_dists[0, columns] = dists[0]
            shard_parts.append(
                merge_segment_results_batch(cand_ids, cand_dists, k)
            )
        merged_ids, _ = merge_shard_results_batch(shard_parts, k)
        assert merged_ids[0].tolist() == global_ids[0].tolist()

    @given(st.integers(1, 64), st.integers(1, 1000))
    @settings(max_examples=60, deadline=None)
    def test_per_shard_budget_bounds(self, num_shards, top_k):
        budget = per_shard_top_k(top_k, num_shards, 0.95)
        assert 1 <= budget <= top_k
        assert budget * num_shards >= top_k


def top_k_oracle(pairs, k, dedupe):
    """The ``k`` smallest ``(distance, id)`` pairs, one per id if ``dedupe``."""
    # Descending order, so an id's last write is its smallest distance.
    best = {}
    for slot, (dist, item) in enumerate(sorted(pairs, reverse=True)):
        best[item if dedupe else slot] = (dist, item)
    return sorted(best.values())[:k]


#: One candidate slot: padding, or a pair drawn from few distinct
#: distances and ids, so exact ties and duplicate ids are the rule.
candidate_slot = st.none() | st.tuples(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]) | st.floats(0, 10, allow_nan=False),
    st.integers(0, 12),
)


class TestBatchTopKAgainstOracle:
    """``batch_top_k`` is the one implementation of both merge levels;
    its reference is a sort over a dict, written here."""

    @given(
        st.integers(0, 16).flatmap(
            lambda num_cols: st.lists(
                st.lists(candidate_slot, min_size=num_cols, max_size=num_cols),
                min_size=1,
                max_size=6,
            )
        ),
        st.integers(1, 20),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_sorted_dict(self, rows, k, dedupe):
        dists = np.array(
            [[np.inf if slot is None else slot[0] for slot in row] for row in rows],
            dtype=np.float64,
        ).reshape(len(rows), -1)
        ids = np.array(
            [[-1 if slot is None else slot[1] for slot in row] for row in rows],
            dtype=np.int64,
        ).reshape(len(rows), -1)
        got_ids, got_dists = batch_top_k(dists, ids, k, dedupe=dedupe)
        assert got_ids.shape == got_dists.shape == (len(rows), k)
        for row, slots in enumerate(rows):
            pairs = [slot for slot in slots if slot is not None]
            expected = top_k_oracle(pairs, k, dedupe)
            found = len(expected)
            assert list(zip(got_dists[row], got_ids[row]))[:found] == expected
            # Past the real results: only padding.
            assert (got_ids[row, found:] == -1).all()
            assert np.isinf(got_dists[row, found:]).all()


def random_candidates(rng, num_rows, num_cols):
    """A (dists, ids) candidate matrix pair with realistic padding/dupes."""
    dists = rng.uniform(0.0, 10.0, size=(num_rows, num_cols))
    # Duplicate ids inside a row (physical spill) are likely: the id
    # domain is deliberately smaller than the column count.
    ids = rng.integers(0, max(num_cols // 2, 2), size=(num_rows, num_cols))
    pad = rng.random(size=(num_rows, num_cols)) < 0.25
    dists = np.where(pad, np.inf, dists)
    ids = np.where(pad, -1, ids).astype(np.int64)
    return dists, ids


class TestBatchTopKCompositionInvariance:
    """``batch_top_k`` must treat every row independently.

    Micro-batch coalescing stacks unrelated clients' rows into one merge
    call; these fuzz tests pin that no row's result depends on row
    order, on duplicates of itself elsewhere in the batch, or on the
    order candidates arrive within the row.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_row_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        num_rows = int(rng.integers(1, 12))
        num_cols = int(rng.integers(1, 30))
        k = int(rng.integers(1, 12))
        dists, ids = random_candidates(rng, num_rows, num_cols)
        base_ids, base_dists = batch_top_k(dists, ids, k)
        perm = rng.permutation(num_rows)
        perm_ids, perm_dists = batch_top_k(dists[perm], ids[perm], k)
        np.testing.assert_array_equal(perm_ids, base_ids[perm])
        np.testing.assert_array_equal(perm_dists, base_dists[perm])

    @pytest.mark.parametrize("seed", range(8))
    def test_column_permutation_invariance(self, seed):
        """Candidate arrival order within a row must not matter."""
        rng = np.random.default_rng(100 + seed)
        num_rows = int(rng.integers(1, 10))
        num_cols = int(rng.integers(2, 25))
        k = int(rng.integers(1, 10))
        dists, ids = random_candidates(rng, num_rows, num_cols)
        base_ids, base_dists = batch_top_k(dists, ids, k)
        shuffled_dists = np.empty_like(dists)
        shuffled_ids = np.empty_like(ids)
        for row in range(num_rows):
            order = rng.permutation(num_cols)
            shuffled_dists[row] = dists[row, order]
            shuffled_ids[row] = ids[row, order]
        got_ids, got_dists = batch_top_k(shuffled_dists, shuffled_ids, k)
        np.testing.assert_array_equal(got_ids, base_ids)
        np.testing.assert_array_equal(got_dists, base_dists)

    @pytest.mark.parametrize("seed", range(8))
    def test_duplicate_rows_get_identical_answers(self, seed):
        """The same query admitted twice must get the same result --
        coalescing two clients sending identical queries is routine."""
        rng = np.random.default_rng(200 + seed)
        num_rows = int(rng.integers(1, 8))
        num_cols = int(rng.integers(1, 20))
        k = int(rng.integers(1, 8))
        dists, ids = random_candidates(rng, num_rows, num_cols)
        doubled_dists = np.concatenate([dists, dists], axis=0)
        doubled_ids = np.concatenate([ids, ids], axis=0)
        got_ids, got_dists = batch_top_k(doubled_dists, doubled_ids, k)
        np.testing.assert_array_equal(got_ids[:num_rows], got_ids[num_rows:])
        np.testing.assert_array_equal(
            got_dists[:num_rows], got_dists[num_rows:]
        )
        base_ids, base_dists = batch_top_k(dists, ids, k)
        np.testing.assert_array_equal(got_ids[:num_rows], base_ids)
        np.testing.assert_array_equal(got_dists[:num_rows], base_dists)

    @pytest.mark.parametrize("seed", range(4))
    def test_singleton_rows_match_batch(self, seed):
        rng = np.random.default_rng(300 + seed)
        num_rows = int(rng.integers(2, 8))
        num_cols = int(rng.integers(1, 20))
        k = int(rng.integers(1, 8))
        dists, ids = random_candidates(rng, num_rows, num_cols)
        base_ids, base_dists = batch_top_k(dists, ids, k)
        for row in range(num_rows):
            one_ids, one_dists = batch_top_k(
                dists[row : row + 1], ids[row : row + 1], k
            )
            np.testing.assert_array_equal(one_ids[0], base_ids[row])
            np.testing.assert_array_equal(one_dists[0], base_dists[row])


class TestScorePairsCompositionInvariance:
    """``Scorer.score_pairs`` must score each pair independently.

    Lockstep traversal of a coalesced batch scores (query, candidate)
    pairs from unrelated requests in single fused calls; every pair's
    score must be *bit-identical* no matter how the call is chunked.
    """

    @pytest.mark.parametrize(
        "metric", ["euclidean", "cosine", "inner_product"]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_chunking_is_bit_identical(self, metric, seed):
        rng = np.random.default_rng(400 + seed)
        dim = int(rng.integers(2, 12))
        num_points = int(rng.integers(4, 40))
        num_queries = int(rng.integers(1, 9))
        num_pairs = int(rng.integers(1, 60))
        scorer = Scorer(metric, dim)
        scorer.add(rng.normal(size=(num_points, dim)).astype(np.float32))
        queries = scorer.prepare_queries(
            rng.normal(size=(num_queries, dim)).astype(np.float32)
        )
        query_rows = rng.integers(0, num_queries, size=num_pairs)
        ids = rng.integers(0, num_points, size=num_pairs)
        full = scorer.score_pairs(queries, query_rows, ids)
        # Any chunking of the pair list must reproduce the full call.
        splits = np.sort(rng.integers(0, num_pairs + 1, size=3))
        chunked = np.concatenate(
            [
                scorer.score_pairs(queries, query_rows[lo:hi], ids[lo:hi])
                for lo, hi in zip(
                    np.concatenate(([0], splits)),
                    np.concatenate((splits, [num_pairs])),
                )
            ]
        )
        np.testing.assert_array_equal(chunked, full)

    @pytest.mark.parametrize(
        "metric", ["euclidean", "cosine", "inner_product"]
    )
    def test_pairs_of_one_match_batch(self, metric):
        rng = np.random.default_rng(7)
        dim, num_points, num_queries, num_pairs = 8, 30, 5, 24
        scorer = Scorer(metric, dim)
        scorer.add(rng.normal(size=(num_points, dim)).astype(np.float32))
        queries = scorer.prepare_queries(
            rng.normal(size=(num_queries, dim)).astype(np.float32)
        )
        query_rows = rng.integers(0, num_queries, size=num_pairs)
        ids = rng.integers(0, num_points, size=num_pairs)
        full = scorer.score_pairs(queries, query_rows, ids)
        for pair in range(num_pairs):
            single = scorer.score_pairs(
                queries, query_rows[pair : pair + 1], ids[pair : pair + 1]
            )
            assert single[0] == full[pair]

    @pytest.mark.parametrize("seed", range(4))
    def test_precomputed_query_norms_change_nothing(self, seed):
        rng = np.random.default_rng(500 + seed)
        dim, num_points, num_queries, num_pairs = 6, 20, 4, 30
        scorer = Scorer("euclidean", dim)
        scorer.add(rng.normal(size=(num_points, dim)).astype(np.float32))
        queries = scorer.prepare_queries(
            rng.normal(size=(num_queries, dim)).astype(np.float32)
        )
        query_rows = rng.integers(0, num_queries, size=num_pairs)
        ids = rng.integers(0, num_points, size=num_pairs)
        lazy = scorer.score_pairs(queries, query_rows, ids)
        eager = scorer.score_pairs(
            queries,
            query_rows,
            ids,
            query_sq=scorer.query_sq_norms(queries),
        )
        np.testing.assert_array_equal(lazy, eager)


class TestHnswPropertyRoundtrip:
    @given(small_dataset())
    @settings(max_examples=20, deadline=None)
    def test_serialization_lossless_for_arbitrary_data(self, data):
        index = build_hnsw(data, params=TINY_HNSW)
        restored = hnsw_from_bytes(hnsw_to_bytes(index))
        query = data[0]
        ids_a, dists_a = index.search(query, min(3, len(data)), ef=16)
        ids_b, dists_b = restored.search(query, min(3, len(data)), ef=16)
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_allclose(dists_a, dists_b, rtol=1e-6)

    @given(small_dataset())
    @settings(max_examples=20, deadline=None)
    def test_search_returns_valid_ids_and_sorted_distances(self, data):
        index = build_hnsw(data, params=TINY_HNSW)
        k = min(5, len(data))
        ids, dists = index.search(data[0], k, ef=16)
        assert len(ids) == k
        assert len(set(ids.tolist())) == k  # no duplicates
        assert (ids >= 0).all() and (ids < len(data)).all()
        assert np.all(np.diff(dists) >= -1e-9)

    @given(small_dataset())
    @settings(max_examples=20, deadline=None)
    def test_graph_invariants_for_arbitrary_data(self, data):
        index = build_hnsw(data, params=TINY_HNSW)
        index.graph.check_invariants(
            TINY_HNSW.effective_max_m, TINY_HNSW.effective_max_m0
        )
