"""Cross-module property-based tests (hypothesis + seeded numpy fuzzing).

These check the invariants the platform's correctness actually rests on:
partitioning + two-level merging must be *transparent* -- for exact
(brute force) search, any (shards, segments) layout must return exactly
the global answer; HNSW serialization must be lossless for arbitrary
(well-formed) float32 data; and ``batch_top_k``, both merge levels,
answers every row as a sort over that row's pairs would -- so no row
depends on the rows coalesced with it.  (That ``Scorer.score_pairs``
scores a pair alike in any batch is the scorer cell of
``tests/test_path_matrix.py``.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import (
    empty_part,
    merge_segment_results_batch,
    merge_shard_results_batch,
)
from repro.core.topk import batch_top_k, per_shard_top_k
from repro.hnsw.index import build_hnsw
from repro.hnsw.params import HnswParams
from repro.offline.brute_force import exact_top_k
from repro.sharding.sharder import HashSharder
from repro.storage.manifest import hnsw_from_bytes, hnsw_to_bytes
from tests.conftest import assert_same_payload

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


def top_k_oracle(pairs, k):
    """The ``k`` smallest ``(distance, id)`` pairs, one per id."""
    # Descending order, so an id's last write is its smallest distance.
    best = {}
    for dist, item in sorted(pairs, reverse=True):
        best[item] = (dist, item)
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
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_sorted_dict(self, rows, k):
        dists = np.array(
            [[np.inf if slot is None else slot[0] for slot in row] for row in rows],
            dtype=np.float64,
        ).reshape(len(rows), -1)
        ids = np.array(
            [[-1 if slot is None else slot[1] for slot in row] for row in rows],
            dtype=np.int64,
        ).reshape(len(rows), -1)
        got_ids, got_dists = batch_top_k(dists, ids, k)
        assert got_ids.shape == got_dists.shape == (len(rows), k)
        for row, slots in enumerate(rows):
            pairs = [slot for slot in slots if slot is not None]
            expected = top_k_oracle(pairs, k)
            found = len(expected)
            assert list(zip(got_dists[row], got_ids[row]))[:found] == expected
            # Past the real results: only padding.
            assert (got_ids[row, found:] == -1).all()
            assert np.isinf(got_dists[row, found:]).all()


class TestHnswPropertyRoundtrip:
    @given(small_dataset())
    @settings(max_examples=20, deadline=None)
    def test_serialization_lossless_for_arbitrary_data(self, data):
        index = build_hnsw(data, params=TINY_HNSW)
        restored = hnsw_from_bytes(hnsw_to_bytes(index))
        assert_same_payload(index.to_arrays(), restored.to_arrays())

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
        index.graph.check_invariants(TINY_HNSW.M, 2 * TINY_HNSW.M)
