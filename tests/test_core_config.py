"""Tests for LannsConfig validation and serialization."""

import dataclasses

import pytest

from repro.core.config import LannsConfig
from repro.errors import ConfigError
from repro.hnsw.params import HnswParams


class TestValidation:
    def test_defaults_valid(self):
        config = LannsConfig()
        assert config.partitioning == (1, 1)
        assert config.total_partitions == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_shards": 0},
            {"num_segments": 0},
            {"segmenter": "annoy"},
            {"segmenter": "rh", "num_segments": 6},
            {"segmenter": "apd", "num_segments": 3},
            {"alpha": 0.5},
            {"alpha": -0.1},
            {"spill_mode": "none"},
            {"metric": "hamming"},
            {"topk_confidence": 0.0},
            {"topk_confidence": 1.0},
            {"segmenter_sample_size": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            LannsConfig(**kwargs)

    def test_rs_allows_non_power_of_two(self):
        config = LannsConfig(segmenter="rs", num_segments=6)
        assert config.num_segments == 6

    def test_partitioning_notation(self):
        config = LannsConfig(num_shards=2, num_segments=4)
        assert config.partitioning == (2, 4)
        assert config.total_partitions == 8


class TestUpdatesAndSerialization:
    def test_with_updates_validates(self):
        config = LannsConfig()
        updated = config.with_updates(num_shards=3)
        assert updated.num_shards == 3
        assert config.num_shards == 1  # original untouched
        with pytest.raises(ConfigError):
            config.with_updates(alpha=0.9)

    def test_roundtrip(self):
        config = LannsConfig(
            num_shards=2,
            num_segments=8,
            segmenter="apd",
            alpha=0.1,
            spill_mode="physical",
            metric="cosine",
            hnsw=HnswParams(M=10, ef_construction=64),
            topk_confidence=0.9,
            use_per_shard_topk=False,
            seed=42,
        )
        restored = LannsConfig.from_dict(config.to_dict())
        assert restored == config

    def test_from_dict_defaults_missing_hnsw(self):
        payload = LannsConfig().to_dict()
        del payload["hnsw"]
        assert LannsConfig.from_dict(payload).hnsw == HnswParams()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            LannsConfig().num_shards = 5


class TestPerShardBudget:
    def test_budget_is_eq_5_6(self):
        """The budget a config asks for is ``per_shard_top_k`` of its
        shard count, confidence and probit reading."""
        from repro.core import topk

        config = LannsConfig(num_shards=4, num_segments=2, topk_confidence=0.9173)
        assert config.per_shard_budget(37) == topk.per_shard_top_k(37, 4, 0.9173)
        literal = config.with_updates(paper_literal_probit=True)
        assert literal.per_shard_budget(37) == topk.per_shard_top_k(
            37, 4, 0.9173, paper_literal=True
        )

    def test_bad_arguments_still_raise_every_time(self):
        config = LannsConfig(num_shards=4, num_segments=2)
        for _ in range(2):
            with pytest.raises(ValueError):
                config.per_shard_budget(0)
