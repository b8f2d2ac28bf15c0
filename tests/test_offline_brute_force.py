"""Tests for exact search: blocked scan and the distributed job (Fig 8)."""

import tracemalloc

import numpy as np
import pytest

from repro.offline.brute_force import brute_force_job, exact_top_k
from repro.offline.recall import recall_at_k, recall_curve
from repro.sparklite.cluster import LocalCluster


def naive_top_k(data, queries, k):
    out = np.empty((len(queries), k), dtype=np.int64)
    for row, query in enumerate(queries):
        dists = np.linalg.norm(data - query, axis=1)
        out[row] = np.argsort(dists, kind="stable")[:k]
    return out


class TestExactTopK:
    def test_matches_naive(self, clustered_data, clustered_queries):
        ids, dists = exact_top_k(clustered_data, clustered_queries, 10)
        expected = naive_top_k(clustered_data, clustered_queries, 10)
        np.testing.assert_array_equal(ids, expected)
        assert np.all(np.diff(dists, axis=1) >= -1e-9)

    def test_blocking_invariance(self, clustered_data, clustered_queries):
        small_blocks, _ = exact_top_k(
            clustered_data, clustered_queries, 7, block_size=13
        )
        big_blocks, _ = exact_top_k(
            clustered_data, clustered_queries, 7, block_size=100_000
        )
        np.testing.assert_array_equal(small_blocks, big_blocks)

    @pytest.mark.parametrize("num_queries", [65, 129, 192, 5000])
    def test_query_tiles_match_one_shot(self, num_queries):
        """With ``block_size`` 64 these are 2, 3, 3 and 79 balanced query
        tiles; one ``block_size >= queries`` scan is the reference.  The
        float32 distances may round differently per GEMM shape, by at
        most one ulp."""
        rng = np.random.default_rng(num_queries)
        data = rng.standard_normal((300, 16), dtype=np.float32)
        queries = rng.standard_normal((num_queries, 16), dtype=np.float32)
        tiled_ids, tiled_dists = exact_top_k(data, queries, 10, block_size=64)
        want_ids, want_dists = exact_top_k(data, queries, 10, block_size=num_queries)
        np.testing.assert_array_equal(tiled_ids, want_ids)
        np.testing.assert_array_max_ulp(
            tiled_dists.astype(np.float32), want_dists.astype(np.float32), maxulp=1
        )

    @pytest.mark.parametrize("block_size", [3, 7, 1000])
    def test_integer_ties_across_blocks_go_to_the_lower_id(self, block_size):
        """Integer-valued rows with many repeats, so equal distances fall
        in different blocks: the lower id wins, as in one stable sort of
        the exact distances."""
        rng = np.random.default_rng(5)
        data = rng.integers(0, 3, size=(60, 4)).astype(np.float32)
        data[7] = data[6]  # a tie on each side of a block edge
        data[21] = data[20]
        queries = np.concatenate([data[[6, 20]], rng.integers(0, 3, size=(30, 4))])
        queries = queries.astype(np.float32)
        squared = ((queries[:, None, :] - data[None, :, :]) ** 2).sum(axis=2)
        want = np.argsort(squared, axis=1, kind="stable")[:, :9]
        ids, dists = exact_top_k(data, queries, 9, block_size=block_size)
        np.testing.assert_array_equal(ids, want)
        np.testing.assert_array_equal(
            dists, np.sqrt(np.take_along_axis(squared, want, axis=1))
        )
        assert list(ids[0, :2]) == [6, 7] and list(ids[1, :2]) == [20, 21]

    def test_memory_is_a_small_multiple_of_one_block(self):
        """Traced peak of a 1024-query tile against 4096 x 64 in 1024-row
        blocks, in units of one ``tile x block`` float32 array (4 MiB).
        The selection holds ~3 of them; putting back the merge that
        concatenates every block onto the running best as float64 and
        int64 and stable-argsorts it reads 11.1 and fails."""
        rng = np.random.default_rng(0)
        data = rng.standard_normal((4096, 64), dtype=np.float32)
        queries = rng.standard_normal((1024, 64), dtype=np.float32)
        exact_top_k(data[:100], queries[:10], 10)  # one-time setup, untraced
        tracemalloc.start()
        try:
            exact_top_k(data, queries, 10, block_size=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (1024 * 1024 * 4) < 5.0

    def test_k_clamped_to_n(self, clustered_data, clustered_queries):
        ids, _ = exact_top_k(clustered_data[:5], clustered_queries[:3], 10)
        assert ids.shape == (3, 5)

    def test_cosine_metric(self, clustered_data, clustered_queries):
        ids, dists = exact_top_k(
            clustered_data, clustered_queries[:5], 5, metric="cosine"
        )
        assert (dists >= -1e-6).all() and (dists <= 2.0 + 1e-6).all()

    def test_invalid_k(self, clustered_data, clustered_queries):
        with pytest.raises(ValueError):
            exact_top_k(clustered_data, clustered_queries, 0)


class TestBruteForceJob:
    def test_equals_single_process_exact(self, clustered_data, clustered_queries):
        cluster = LocalCluster(num_executors=3)
        job_ids, job_dists = brute_force_job(
            cluster, clustered_data, clustered_queries, 10
        )
        exact_ids, exact_dists = exact_top_k(
            clustered_data, clustered_queries, 10
        )
        np.testing.assert_array_equal(job_ids, exact_ids)
        np.testing.assert_allclose(job_dists, exact_dists, rtol=1e-5)

    def test_external_ids_mapped(self, clustered_data, clustered_queries):
        cluster = LocalCluster(num_executors=2)
        ids = np.arange(len(clustered_data)) + 10_000
        job_ids, _ = brute_force_job(
            cluster, clustered_data, clustered_queries, 5, ids=ids
        )
        assert (job_ids >= 10_000).all()
        exact_ids, _ = exact_top_k(clustered_data, clustered_queries, 5)
        np.testing.assert_array_equal(job_ids - 10_000, exact_ids)

    def test_partition_count_irrelevant(self, clustered_data, clustered_queries):
        cluster = LocalCluster(num_executors=2)
        one, _ = brute_force_job(
            cluster, clustered_data, clustered_queries, 8, num_partitions=1
        )
        many, _ = brute_force_job(
            cluster, clustered_data, clustered_queries, 8, num_partitions=7
        )
        np.testing.assert_array_equal(one, many)

    def test_stages_recorded(self, clustered_data, clustered_queries):
        cluster = LocalCluster(num_executors=2)
        brute_force_job(cluster, clustered_data, clustered_queries[:5], 3)
        names = [stage.stage for stage in cluster.stages]
        assert "brute-force" in names
        assert "brute-force-merge" in names


class TestRecall:
    def test_perfect_recall(self):
        truth = np.array([[1, 2, 3], [4, 5, 6]])
        assert recall_at_k(truth, truth, 3) == 1.0

    def test_partial_recall(self):
        results = np.array([[1, 2, 9], [4, 8, 7]])
        truth = np.array([[1, 2, 3], [4, 5, 6]])
        assert recall_at_k(results, truth, 3) == pytest.approx(0.5)

    def test_order_within_topk_irrelevant(self):
        results = np.array([[3, 2, 1]])
        truth = np.array([[1, 2, 3]])
        assert recall_at_k(results, truth, 3) == 1.0

    def test_padding_ignored(self):
        results = np.array([[1, -1, -1]])
        truth = np.array([[1, 2, 3]])
        assert recall_at_k(results, truth, 3) == pytest.approx(1 / 3)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            recall_at_k(np.array([1, 2]), np.array([[1, 2]]), 2)
        with pytest.raises(ValueError):
            recall_at_k(np.ones((2, 3)), np.ones((3, 3)), 2)
        with pytest.raises(ValueError):
            recall_at_k(np.ones((2, 3)), np.ones((2, 3)), 5)
        with pytest.raises(ValueError):
            recall_at_k(np.ones((2, 3)), np.ones((2, 3)), 0)

    def test_recall_curve(self):
        results = np.array([[1, 2, 9, 10]])
        truth = np.array([[1, 2, 3, 4]])
        curve = recall_curve(results, truth, [1, 2, 4])
        assert curve[1] == 1.0
        assert curve[2] == 1.0
        assert curve[4] == pytest.approx(0.5)
