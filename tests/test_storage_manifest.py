"""Tests for the index export format and its metadata coupling."""

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.errors import MetadataMismatchError, SerializationError
from repro.storage.manifest import (
    IndexManifest,
    load_lanns_index,
    load_manifest,
    load_segmenter,
    load_shard,
    save_lanns_index,
)
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def config():
    return LannsConfig(
        num_shards=2,
        num_segments=2,
        segmenter="rh",
        hnsw=FAST_HNSW,
        segmenter_sample_size=600,
        seed=3,
    )


@pytest.fixture(scope="module")
def index(clustered_data, config):
    return build_lanns_index(clustered_data, config=config)


class TestSaveLoad:
    def test_layout_written(self, index, fs):
        save_lanns_index(index, fs, "idx")
        files = fs.ls_recursive("idx")
        assert "idx/metadata.json" in files
        assert "idx/segmenter.json" in files
        assert "idx/shard=0/segment=0.npz" in files
        assert "idx/shard=1/segment=1.npz" in files

    def test_manifest_contents(self, index, fs, config, clustered_data):
        manifest = save_lanns_index(index, fs, "idx")
        assert manifest.dim == clustered_data.shape[1]
        assert manifest.total_vectors == len(index)
        assert manifest.lanns_config == config
        assert len(manifest.checksums) == 2 * 2 + 1  # partitions + segmenter
        reloaded = load_manifest(fs, "idx")
        assert reloaded.to_dict() == manifest.to_dict()

    def test_roundtrip_query_equivalence(self, index, fs, clustered_queries):
        save_lanns_index(index, fs, "idx")
        restored = load_lanns_index(fs, "idx")
        for query in clustered_queries[:5]:
            ids_a, dists_a = index.query(query, 8, ef=48)
            ids_b, dists_b = restored.query(query, 8, ef=48)
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_allclose(dists_a, dists_b, rtol=1e-6)

    def test_load_single_shard(self, index, fs, clustered_queries):
        save_lanns_index(index, fs, "idx")
        shard = load_shard(fs, "idx", 1)
        assert shard.shard_id == 1
        assert len(shard) == len(index.shards[1])
        ids, _ = shard.search_batch(clustered_queries[:1], 5)
        expected, _ = index.shards[1].search_batch(clustered_queries[:1], 5)
        np.testing.assert_array_equal(ids, expected)

    def test_load_shard_range_checked(self, index, fs):
        save_lanns_index(index, fs, "idx")
        with pytest.raises(ValueError, match="out of range"):
            load_shard(fs, "idx", 5)

    def test_segmenter_roundtrip(self, index, fs, clustered_data):
        save_lanns_index(index, fs, "idx")
        segmenter = load_segmenter(fs, "idx")
        assert segmenter.route_data_batch(clustered_data[:20]) == (
            index.segmenter.route_data_batch(clustered_data[:20])
        )


class TestMetadataGuards:
    def test_expected_config_mismatch_rejected(self, index, fs, config):
        save_lanns_index(index, fs, "idx")
        other = config.with_updates(alpha=0.3)
        with pytest.raises(MetadataMismatchError, match="configuration"):
            load_lanns_index(fs, "idx", expected_config=other)

    def test_expected_config_match_accepted(self, index, fs, config):
        save_lanns_index(index, fs, "idx")
        load_lanns_index(fs, "idx", expected_config=config)

    def test_tampered_segment_detected(self, index, fs):
        save_lanns_index(index, fs, "idx")
        raw = fs.read_bytes("idx/shard=0/segment=0.npz")
        tampered = raw[:-1] + bytes([raw[-1] ^ 0xFF])
        fs.write_bytes("idx/shard=0/segment=0.npz", tampered)
        with pytest.raises(MetadataMismatchError, match="checksum"):
            load_lanns_index(fs, "idx")

    def test_tampered_segmenter_detected(self, index, fs):
        save_lanns_index(index, fs, "idx")
        fs.write_text("idx/segmenter.json", "{}")
        with pytest.raises(MetadataMismatchError, match="checksum"):
            load_segmenter(fs, "idx")

    def test_unknown_format_version_rejected(self, index, fs):
        save_lanns_index(index, fs, "idx")
        payload = fs.read_json("idx/metadata.json")
        payload["format_version"] = 99
        with pytest.raises(SerializationError, match="version"):
            IndexManifest.from_dict(payload)
