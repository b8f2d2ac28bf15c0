"""Tests for the Figure 1 comparators (``benchmarks/baselines.py``) and
the k-means they and the system share."""

import numpy as np
import pytest

from benchmarks.baselines import (
    BruteForceIndex,
    HnswAdapter,
    IvfFlatIndex,
    LshIndex,
    PqIndex,
    RPForestIndex,
)
from repro.distance.kmeans import kmeans
from repro.offline.brute_force import exact_top_k
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def truth(clustered_data, clustered_queries):
    ids, _ = exact_top_k(clustered_data, clustered_queries, 10)
    return ids


def recall_of(index, queries, truth, k=10):
    hits = 0
    for row, query in enumerate(queries):
        ids, _ = index.search(query, k)
        hits += len(set(ids.tolist()) & set(truth[row, :k].tolist()))
    return hits / (len(queries) * k)


class TestBruteForce:
    def test_exact(self, clustered_data, clustered_queries, truth):
        index = BruteForceIndex().fit(clustered_data)
        assert recall_of(index, clustered_queries, truth) == 1.0

    def test_distances_true_scale(self, clustered_data):
        index = BruteForceIndex().fit(clustered_data)
        ids, dists = index.search(clustered_data[0], 1)
        assert ids[0] == 0
        assert dists[0] == pytest.approx(0.0, abs=1e-2)

    def test_unfitted_rejected(self, clustered_queries):
        with pytest.raises(RuntimeError):
            BruteForceIndex().search(clustered_queries[0], 3)

    def test_search_batch_shape(self, clustered_data, clustered_queries):
        index = BruteForceIndex().fit(clustered_data)
        ids, dists = index.search_batch(clustered_queries[:4], 6)
        assert ids.shape == (4, 6)


class TestKmeans:
    def test_basic_clustering(self):
        rng = np.random.default_rng(0)
        blob_a = rng.normal(size=(50, 2)) + [0, 0]
        blob_b = rng.normal(size=(50, 2)) + [20, 20]
        data = np.concatenate([blob_a, blob_b]).astype(np.float32)
        centers, assignment = kmeans(data, 2, seed=0)
        assert centers.shape == (2, 2)
        # The two blobs should be separated.
        assert len(set(assignment[:50])) == 1
        assert len(set(assignment[50:])) == 1
        assert assignment[0] != assignment[50]

    def test_assignment_is_nearest_center(self, clustered_data):
        centers, assignment = kmeans(clustered_data, 5, seed=1)
        dists = np.linalg.norm(
            clustered_data[:, np.newaxis, :] - centers[np.newaxis], axis=2
        )
        np.testing.assert_array_equal(assignment, np.argmin(dists, axis=1))

    def test_k_bounds(self, clustered_data):
        with pytest.raises(ValueError):
            kmeans(clustered_data, 0)
        with pytest.raises(ValueError):
            kmeans(clustered_data[:3], 5)

    def test_deterministic(self, clustered_data):
        a_centers, a_assign = kmeans(clustered_data, 4, seed=3)
        b_centers, b_assign = kmeans(clustered_data, 4, seed=3)
        np.testing.assert_array_equal(a_assign, b_assign)
        np.testing.assert_allclose(a_centers, b_centers)


class TestIvf:
    def test_reasonable_recall(self, clustered_data, clustered_queries, truth):
        index = IvfFlatIndex(nlist=16, nprobe=4, seed=0).fit(clustered_data)
        assert recall_of(index, clustered_queries, truth) >= 0.6

    def test_full_probe_is_exact(self, clustered_data, clustered_queries, truth):
        index = IvfFlatIndex(nlist=8, nprobe=8, seed=0).fit(clustered_data)
        assert recall_of(index, clustered_queries, truth) == 1.0

    def test_nprobe_monotone_recall(self, clustered_data, clustered_queries, truth):
        recalls = []
        for nprobe in (1, 4, 16):
            index = IvfFlatIndex(nlist=16, nprobe=nprobe, seed=0).fit(
                clustered_data
            )
            recalls.append(recall_of(index, clustered_queries, truth))
        assert recalls[0] <= recalls[1] <= recalls[2]

    def test_lists_partition_dataset(self, clustered_data):
        index = IvfFlatIndex(nlist=10, seed=0).fit(clustered_data)
        assert sum(index.list_sizes) == len(clustered_data)

    def test_validation(self):
        with pytest.raises(ValueError):
            IvfFlatIndex(nlist=0)
        with pytest.raises(ValueError):
            IvfFlatIndex(nprobe=0)


class TestLsh:
    def test_reasonable_recall(self, clustered_data, clustered_queries, truth):
        index = LshIndex(num_tables=12, num_bits=8, multiprobe=2, seed=0).fit(
            clustered_data
        )
        assert recall_of(index, clustered_queries, truth) >= 0.5

    def test_more_tables_higher_recall(self, clustered_data, clustered_queries, truth):
        small = LshIndex(num_tables=2, num_bits=10, seed=0).fit(clustered_data)
        large = LshIndex(num_tables=16, num_bits=10, seed=0).fit(clustered_data)
        assert recall_of(large, clustered_queries, truth) >= recall_of(
            small, clustered_queries, truth
        )

    def test_buckets_cover_dataset(self, clustered_data):
        index = LshIndex(num_tables=3, num_bits=6, seed=0).fit(clustered_data)
        for table in index._tables:
            assert sum(len(rows) for rows in table.values()) == len(
                clustered_data
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            LshIndex(num_tables=0)
        with pytest.raises(ValueError):
            LshIndex(num_bits=63)
        with pytest.raises(ValueError):
            LshIndex(multiprobe=-1)


class TestRPForest:
    def test_reasonable_recall(self, clustered_data, clustered_queries, truth):
        index = RPForestIndex(num_trees=10, leaf_size=24, seed=0).fit(
            clustered_data
        )
        assert recall_of(index, clustered_queries, truth) >= 0.7

    def test_search_k_monotone_recall(self, clustered_data, clustered_queries, truth):
        index = RPForestIndex(num_trees=8, leaf_size=16, seed=0).fit(
            clustered_data
        )
        recalls = []
        for search_k in (20, 100, 400):
            index.search_k = search_k
            recalls.append(recall_of(index, clustered_queries, truth))
        assert recalls[0] <= recalls[-1]

    def test_leaves_partition_dataset(self, clustered_data):
        index = RPForestIndex(num_trees=3, leaf_size=20, seed=0).fit(
            clustered_data
        )
        for tree in index._trees:
            leaf_rows = np.concatenate(
                [node.rows for node in tree if node.is_leaf]
            )
            assert sorted(leaf_rows.tolist()) == list(
                range(len(clustered_data))
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            RPForestIndex(num_trees=0)
        with pytest.raises(ValueError):
            RPForestIndex(leaf_size=1)


class TestPq:
    def test_reconstruction_error_shrinks_with_codes(self, clustered_data):
        def error(num_codes):
            index = PqIndex(4, num_codes, seed=0).fit(clustered_data)
            decoded = index.codebooks[np.arange(4), index._codes]  # (n, m, d / m)
            return float(np.linalg.norm(decoded.reshape(600, 16) - clustered_data))

        assert error(64) < error(4)

    def test_dim_must_divide(self, clustered_data):
        with pytest.raises(ValueError, match="divisible"):
            PqIndex(num_subspaces=5).fit(clustered_data)  # 16 % 5

    def test_adc_approximates_true_distance(self, clustered_data, clustered_queries):
        index = PqIndex(num_subspaces=8, num_codes=32, seed=0).fit(clustered_data)
        query = clustered_queries[0]
        adc = np.sqrt(index.adc_scores(query))
        true = np.linalg.norm(clustered_data - query, axis=1)
        correlation = np.corrcoef(adc, true)[0, 1]
        assert correlation > 0.95

    def test_index_recall_with_rerank(self, clustered_data, clustered_queries, truth):
        index = PqIndex(
            num_subspaces=8, num_codes=64, rerank=60, seed=0
        ).fit(clustered_data)
        assert recall_of(index, clustered_queries, truth) >= 0.6

    def test_no_rerank_distances_are_exact_and_sorted(self, clustered_data):
        index = PqIndex(4, 16, rerank=0, seed=0).fit(clustered_data)
        for query in clustered_data[::75] + 0.1:
            ids, dists = index.search(query, 10)
            assert np.all(np.diff(dists) >= 0.0)
            exact = np.linalg.norm(clustered_data[ids].astype(np.float64) - query, axis=1)
            np.testing.assert_allclose(dists, exact)

    def test_validation(self):
        with pytest.raises(ValueError):
            PqIndex(num_subspaces=0)
        with pytest.raises(ValueError):
            PqIndex(num_codes=1)
        with pytest.raises(ValueError):
            PqIndex(rerank=-1)


class TestHnswAdapter:
    def test_wraps_hnsw(self, clustered_data, clustered_queries, truth):
        index = HnswAdapter(params=FAST_HNSW, ef_search=64).fit(
            clustered_data
        )
        assert recall_of(index, clustered_queries, truth) >= 0.9
