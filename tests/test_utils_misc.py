"""Tests for RNG helpers and validation utilities."""

import numpy as np
import pytest

from repro.utils.rng import resolve_rng, spawn_seeds
from repro.utils.validation import (
    as_matrix,
    as_vector,
    check_positive,
)


class TestResolveRng:
    def test_accepts_seed(self):
        a = resolve_rng(42)
        b = resolve_rng(42)
        assert a.random() == b.random()

    def test_passes_generator_through(self):
        rng = np.random.default_rng(0)
        assert resolve_rng(rng) is rng

    def test_none_gives_fresh_generator(self):
        assert isinstance(resolve_rng(None), np.random.Generator)


class TestSpawnSeeds:
    def test_count_and_determinism(self):
        first = spawn_seeds(7, 5)
        second = spawn_seeds(7, 5)
        assert len(first) == 5
        assert first == second

    def test_children_are_distinct(self):
        seeds = spawn_seeds(0, 50)
        assert len(set(seeds)) == 50

    def test_different_parents_differ(self):
        assert spawn_seeds(1, 3) != spawn_seeds(2, 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_zero_count(self):
        assert spawn_seeds(0, 0) == []


class TestAsMatrix:
    def test_promotes_vector_to_row(self):
        result = as_matrix(np.ones(4))
        assert result.shape == (1, 4)
        assert result.dtype == np.float32

    def test_enforces_dim(self):
        with pytest.raises(ValueError, match="dimension"):
            as_matrix(np.ones((3, 4)), dim=5)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            as_matrix(np.ones((2, 2, 2)))

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            as_matrix(np.ones((3, 0)))

    def test_makes_contiguous(self):
        strided = np.ones((4, 8), dtype=np.float32)[:, ::2]
        assert as_matrix(strided).flags.c_contiguous

    def test_casts_dtype(self):
        assert as_matrix(np.ones((2, 2), dtype=np.float64)).dtype == np.float32


class TestAsVector:
    def test_accepts_single_row_matrix(self):
        assert as_vector(np.ones((1, 5))).shape == (5,)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector(np.ones((2, 5)))

    def test_enforces_dim(self):
        with pytest.raises(ValueError):
            as_vector(np.ones(5), dim=4)


class TestChecks:
    def test_check_positive(self):
        check_positive(1, "x")
        with pytest.raises(ValueError, match="x"):
            check_positive(0, "x")
