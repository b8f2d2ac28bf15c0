"""Tests for ShardIndex / LannsIndex: routing, merging, correctness."""

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.core.index import LannsIndex, ShardIndex
from repro.core.merge import merge_segment_results_batch, merge_shard_results_batch
from repro.errors import IndexNotBuiltError
from repro.hnsw.index import build_hnsw
from repro.segmenters.random_segmenter import RandomSegmenter
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def config():
    return LannsConfig(
        num_shards=2,
        num_segments=4,
        segmenter="apd",
        hnsw=FAST_HNSW,
        segmenter_sample_size=600,
        seed=5,
    )


@pytest.fixture(scope="module")
def lanns(clustered_data, config):
    return build_lanns_index(clustered_data, config=config)


class TestMergeFunctions:
    def test_segment_merge_dedupes(self):
        ids, dists = merge_segment_results_batch(
            np.array([[5, 5, 6]]), np.array([[2.0, 1.0, 3.0]]), 2
        )
        assert ids.tolist() == [[5, 6]]
        assert dists.tolist() == [[1.0, 3.0]]

    def test_shard_merge_global_topk(self):
        ids, dists = merge_shard_results_batch(
            [
                (np.array([[1, 2]]), np.array([[4.0, 5.0]])),
                (np.array([[3, -1]]), np.array([[1.0, np.inf]])),
                (np.array([[4, -1]]), np.array([[2.0, np.inf]])),
            ],
            3,
        )
        assert ids.tolist() == [[3, 4, 1]]
        assert dists.tolist() == [[1.0, 2.0, 4.0]]


class TestShardIndex:
    def test_segment_count_must_match_segmenter(self, clustered_data):
        segment = build_hnsw(clustered_data[:50], params=FAST_HNSW)
        with pytest.raises(ValueError, match="segment"):
            ShardIndex(0, [segment], RandomSegmenter(2))

    def test_search_probes_routed_segments(self, lanns, clustered_queries):
        shard = lanns.shards[0]
        probed = shard.probed_segments(clustered_queries[0])
        assert len(probed) >= 1
        ids, dists = shard.search_batch(clustered_queries[:1], 5)
        assert ids.shape == (1, 5)
        assert dists[0].tolist() == sorted(dists[0].tolist())

    @pytest.mark.parametrize("probed", [(0, 0), (0, 0, 0), (1, 2, 1)])
    def test_a_probe_row_naming_a_segment_twice_is_refused(
        self, lanns, clustered_queries, probed
    ):
        """A repeated segment would be searched, and charged, once per
        mention -- two rows of one lockstep group for one pair."""
        shard = lanns.shards[0]
        with pytest.raises(ValueError, match="row 1 names a segment twice"):
            shard.search_batch(clustered_queries[:2], 5, probes=[(3,), probed])

    def test_len_counts_all_segments(self, lanns):
        shard = lanns.shards[0]
        assert len(shard) == sum(shard.segment_sizes)


class TestLannsIndex:
    def test_every_point_stored_exactly_once_virtual(self, lanns, clustered_data):
        assert len(lanns) == len(clustered_data)

    def test_stats_shape(self, lanns, config):
        stats = lanns.stats()
        assert stats["partitioning"] == (2, 4)
        assert len(stats["shard_sizes"]) == 2
        assert all(len(sizes) == 4 for sizes in stats["segment_sizes"])
        assert sum(stats["shard_sizes"]) == len(lanns)

    def test_query_matches_exact_on_clustered_data(
        self, lanns, clustered_queries, clustered_truth
    ):
        hits = 0
        for query, truth in zip(clustered_queries, clustered_truth):
            ids, _ = lanns.query(query, 10, ef=64)
            hits += len(set(ids.tolist()) & set(truth[:10].tolist()))
        assert hits / (len(clustered_queries) * 10) >= 0.9

    def test_query_returns_sorted_distances(self, lanns, clustered_queries):
        _, dists = lanns.query(clustered_queries[0], 10)
        assert np.all(np.diff(dists) >= -1e-12)

    def test_query_finds_stored_point(self, lanns, clustered_data):
        ids, dists = lanns.query(clustered_data[42], 1, ef=48)
        assert ids[0] == 42
        # float32 norm cancellation leaves ~1e-3-scale noise on the
        # self-distance; anything near zero is correct.
        assert dists[0] == pytest.approx(0.0, abs=2e-2)

    def test_invalid_topk(self, lanns, clustered_queries):
        with pytest.raises(ValueError):
            lanns.query(clustered_queries[0], 0)

    def test_shard_count_validated(self, lanns, config):
        with pytest.raises(ValueError, match="shards"):
            LannsIndex(config, lanns.shards[:1], lanns.segmenter)

    def test_empty_index_query_rejected(self, clustered_data, config):
        empty = build_lanns_index(clustered_data[:0], config=LannsConfig())
        with pytest.raises(IndexNotBuiltError):
            empty.query(clustered_data[0], 5)

    def test_per_shard_budget_respects_flag(self, clustered_data):
        config = LannsConfig(
            num_shards=4,
            hnsw=FAST_HNSW,
            use_per_shard_topk=False,
        )
        index = build_lanns_index(clustered_data[:200], config=config)
        assert index.per_shard_budget(100) == 100
        config_on = config.with_updates(use_per_shard_topk=True)
        index_on = build_lanns_index(clustered_data[:200], config=config_on)
        assert index_on.per_shard_budget(100) < 100

    def test_dim_property(self, lanns, clustered_data):
        assert lanns.dim == clustered_data.shape[1]


class TestPhysicalSpill:
    def test_physical_spill_stores_duplicates(self, clustered_data):
        config = LannsConfig(
            num_segments=4,
            segmenter="rh",
            spill_mode="physical",
            alpha=0.15,
            hnsw=FAST_HNSW,
            segmenter_sample_size=600,
        )
        index = build_lanns_index(clustered_data, config=config)
        assert len(index) > len(clustered_data)

    def test_physical_spill_query_returns_unique_ids(self, clustered_data, clustered_queries):
        config = LannsConfig(
            num_segments=4,
            segmenter="rh",
            spill_mode="physical",
            alpha=0.2,
            hnsw=FAST_HNSW,
            segmenter_sample_size=600,
        )
        index = build_lanns_index(clustered_data, config=config)
        for query in clustered_queries[:10]:
            ids, _ = index.query(query, 10)
            assert len(set(ids.tolist())) == len(ids)
