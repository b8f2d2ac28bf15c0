"""Tests for the per-index Scorer: storage, growth, scoring kernels."""

import numpy as np
import pytest

from repro.distance.metrics import get_metric
from repro.distance.scorer import Scorer
from tests.conftest import prepare_one, score_one


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestStorage:
    def test_add_returns_rows(self, rng):
        scorer = Scorer("euclidean", 8)
        rows = scorer.add(rng.normal(size=(5, 8)).astype(np.float32))
        np.testing.assert_array_equal(rows, np.arange(5))
        rows = scorer.add(rng.normal(size=(3, 8)).astype(np.float32))
        np.testing.assert_array_equal(rows, np.arange(5, 8))
        assert len(scorer) == 8

    def test_single_vector_add(self, rng):
        scorer = Scorer("euclidean", 4)
        rows = scorer.add(rng.normal(size=4).astype(np.float32))
        assert rows.shape == (1,)

    def test_growth_preserves_data(self, rng):
        scorer = Scorer("euclidean", 4, capacity=2)
        first = rng.normal(size=(2, 4)).astype(np.float32)
        second = rng.normal(size=(50, 4)).astype(np.float32)
        scorer.add(first)
        scorer.add(second)
        np.testing.assert_array_equal(scorer.data[:2], first)
        np.testing.assert_array_equal(scorer.data[2:], second)

    def test_dimension_mismatch_rejected(self, rng):
        scorer = Scorer("euclidean", 4)
        with pytest.raises(ValueError, match="dimension"):
            scorer.add(rng.normal(size=(2, 5)).astype(np.float32))

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            Scorer("euclidean", 0)


class TestScoring:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "inner_product"])
    def test_score_pairs_matches_metric(self, rng, metric):
        data = rng.normal(size=(30, 12)).astype(np.float32)
        scorer = Scorer(metric, 12)
        scorer.add(data)
        query = prepare_one(scorer, rng.normal(size=12))
        ids = np.array([0, 5, 7, 29])
        reduced = score_one(scorer, query, ids)
        true = scorer.to_true(reduced)
        # Compare against the metric applied to the *stored* vectors
        # (cosine stores normalised rows) to the *prepared* query.
        expected = get_metric(metric).batch(query, scorer.data[ids])
        np.testing.assert_allclose(true, expected, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "inner_product"])
    def test_score_all_batch_matches_score_pairs(self, rng, metric):
        data = rng.normal(size=(25, 6)).astype(np.float32)
        scorer = Scorer(metric, 6)
        scorer.add(data)
        query = prepare_one(scorer, rng.normal(size=6))
        (all_scores,) = scorer.score_all_batch(query[np.newaxis, :])
        ids = np.arange(25)
        np.testing.assert_allclose(
            all_scores, score_one(scorer, query, ids), rtol=1e-5, atol=1e-5
        )

    def test_cosine_rows_are_normalised(self, rng):
        data = rng.normal(size=(10, 5)).astype(np.float32) * 13.0
        scorer = Scorer("cosine", 5)
        scorer.add(data)
        norms = np.linalg.norm(scorer.data, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-5)

    def test_cosine_zero_vector_stays_zero(self):
        scorer = Scorer("cosine", 3)
        scorer.add(np.zeros((1, 3), dtype=np.float32))
        np.testing.assert_array_equal(scorer.data[0], 0.0)

    def test_prepare_queries_normalises_for_cosine(self, rng):
        scorer = Scorer("cosine", 4)
        query = prepare_one(scorer, [3.0, 0.0, 0.0, 4.0])
        assert np.linalg.norm(query) == pytest.approx(1.0)

    def test_prepare_queries_shape_check(self):
        scorer = Scorer("euclidean", 4)
        with pytest.raises(ValueError):
            scorer.prepare_queries(np.ones((1, 5), dtype=np.float32))
        with pytest.raises(ValueError):
            scorer.prepare_queries(np.ones(4, dtype=np.float32))

    def test_euclidean_scores_non_negative(self, rng):
        data = rng.normal(size=(40, 7)).astype(np.float32)
        scorer = Scorer("euclidean", 7)
        scorer.add(data)
        queries = scorer.prepare_queries(data[3:4])
        assert (scorer.score_all_batch(queries) >= 0.0).all()


class TestPairwiseIds:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "inner_product"])
    def test_matches_pointwise(self, rng, metric):
        data = rng.normal(size=(20, 9)).astype(np.float32)
        scorer = Scorer(metric, 9)
        scorer.add(data)
        ids = np.array([1, 4, 9, 15])
        cross = scorer.pairwise_ids(ids)
        for i, a in enumerate(ids):
            row = score_one(scorer, scorer.data[a], ids)
            np.testing.assert_allclose(cross[i], row, rtol=1e-4, atol=1e-3)

    def test_diagonal_is_self_distance(self, rng):
        data = rng.normal(size=(10, 5)).astype(np.float32)
        scorer = Scorer("euclidean", 5)
        scorer.add(data)
        cross = scorer.pairwise_ids(np.arange(10))
        np.testing.assert_allclose(np.diag(cross), 0.0, atol=1e-3)
