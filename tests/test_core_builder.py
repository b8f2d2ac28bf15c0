"""Tests for LannsBuilder: partitioning semantics and construction."""

import numpy as np
import pytest

from repro.core.builder import LannsBuilder, build_lanns_index
from repro.core.config import LannsConfig
from repro.segmenters.learner import learn_segmenter
from repro.sharding.sharder import HashSharder
from repro.sparklite.cluster import LocalCluster
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def config():
    return LannsConfig(
        num_shards=3,
        num_segments=2,
        segmenter="rh",
        hnsw=FAST_HNSW,
        segmenter_sample_size=600,
        seed=2,
    )


class TestPartition:
    def test_every_partition_key_present(self, clustered_data, config):
        builder = LannsBuilder(config)
        segmenter = builder.learn_segmenter(clustered_data)
        ids = np.arange(len(clustered_data), dtype=np.int64)
        partitions = builder.partition(clustered_data, ids, segmenter)
        assert set(partitions) == {
            (shard, segment) for shard in range(3) for segment in range(2)
        }

    def test_shard_assignment_matches_sharder(self, clustered_data, config):
        builder = LannsBuilder(config)
        segmenter = builder.learn_segmenter(clustered_data)
        ids = np.arange(len(clustered_data), dtype=np.int64)
        partitions = builder.partition(clustered_data, ids, segmenter)
        sharder = HashSharder(config.num_shards)
        for (shard, _segment), (part_ids, _vectors) in partitions.items():
            for item in part_ids.tolist():
                assert sharder.shard_of(item) == shard

    def test_virtual_spill_partitions_cover_exactly_once(self, clustered_data, config):
        builder = LannsBuilder(config)
        segmenter = builder.learn_segmenter(clustered_data)
        ids = np.arange(len(clustered_data), dtype=np.int64)
        partitions = builder.partition(clustered_data, ids, segmenter)
        all_ids = np.concatenate([p[0] for p in partitions.values()])
        assert sorted(all_ids.tolist()) == ids.tolist()

    def test_physical_spill_duplicates_across_segments_not_shards(self, clustered_data):
        config = LannsConfig(
            num_shards=2,
            num_segments=2,
            segmenter="rh",
            spill_mode="physical",
            alpha=0.2,
            hnsw=FAST_HNSW,
            segmenter_sample_size=600,
        )
        builder = LannsBuilder(config)
        segmenter = builder.learn_segmenter(clustered_data)
        ids = np.arange(len(clustered_data), dtype=np.int64)
        partitions = builder.partition(clustered_data, ids, segmenter)
        all_ids = np.concatenate([p[0] for p in partitions.values()])
        assert len(all_ids) > len(clustered_data)  # duplication happened
        # But any id appears in at most one *shard*.
        sharder = HashSharder(2)
        for (shard, _segment), (part_ids, _vectors) in partitions.items():
            for item in part_ids.tolist():
                assert sharder.shard_of(item) == shard

    def test_vectors_match_ids(self, clustered_data, config):
        builder = LannsBuilder(config)
        segmenter = builder.learn_segmenter(clustered_data)
        ids = np.arange(len(clustered_data), dtype=np.int64)
        partitions = builder.partition(clustered_data, ids, segmenter)
        for part_ids, part_vectors in partitions.values():
            for position, item in enumerate(part_ids.tolist()):
                np.testing.assert_array_equal(
                    part_vectors[position], clustered_data[item]
                )


class TestBuild:
    def test_build_with_custom_ids(self, clustered_data, config):
        ids = np.arange(len(clustered_data)) * 7 + 3
        index = build_lanns_index(clustered_data, ids=ids, config=config)
        found, _ = index.query(clustered_data[10], 1, ef=48)
        assert found[0] == ids[10]

    def test_build_rejects_bad_id_shape(self, clustered_data, config):
        with pytest.raises(ValueError, match="shape"):
            build_lanns_index(
                clustered_data, ids=np.arange(5), config=config
            )

    def test_build_with_pretrained_segmenter(self, clustered_data, config):
        segmenter = learn_segmenter(
            clustered_data, "rh", 2, seed=2, spill_mode="virtual"
        )
        index = build_lanns_index(
            clustered_data, config=config, segmenter=segmenter
        )
        assert index.segmenter is segmenter

    def test_segment_count_mismatch_rejected(self, clustered_data, config):
        wrong = learn_segmenter(clustered_data, "rh", 4, seed=2)
        with pytest.raises(ValueError, match="segments"):
            build_lanns_index(clustered_data, config=config, segmenter=wrong)

    def test_build_on_cluster_matches_inline(self, clustered_data, config):
        inline = build_lanns_index(clustered_data, config=config)
        cluster = LocalCluster(num_executors=4)
        clustered = build_lanns_index(
            clustered_data, config=config, cluster=cluster
        )
        query = clustered_data[0]
        np.testing.assert_array_equal(
            inline.query(query, 5)[0], clustered.query(query, 5)[0]
        )
        # The build stage was recorded with one task per partition.
        stage = cluster.stages[-1]
        assert stage.stage == "hnsw-build"
        assert len(stage.tasks) == config.total_partitions

    def test_per_segment_seeds_differ(self, clustered_data):
        """Each partition's HNSW gets its own derived seed (level draws
        should not be identical across segments)."""
        config = LannsConfig(
            num_segments=2,
            segmenter="rs",
            hnsw=FAST_HNSW,
            segmenter_sample_size=600,
        )
        index = build_lanns_index(clustered_data, config=config)
        seg_a, seg_b = index.shards[0].segments
        assert seg_a.params.seed != seg_b.params.seed
