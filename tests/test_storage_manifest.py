"""Tests for the index export format and its metadata coupling."""

import pytest

from repro.errors import MetadataMismatchError, SerializationError
from repro.storage.manifest import (
    IndexManifest,
    load_lanns_index,
    load_manifest,
    load_segmenter,
    load_shard,
    save_lanns_index,
)
from tests.conftest import LANNS_2X2, assert_same_payload


class TestSaveLoad:
    def test_layout_written(self, lanns, fs):
        save_lanns_index(lanns, fs, "idx")
        files = fs.ls_recursive("idx")
        assert "idx/metadata.json" in files
        assert "idx/segmenter.json" in files
        assert "idx/shard=0/segment=0.npz" in files
        assert "idx/shard=1/segment=1.npz" in files

    def test_manifest_contents(self, lanns, fs, clustered_data):
        manifest = save_lanns_index(lanns, fs, "idx")
        assert manifest.dim == clustered_data.shape[1]
        assert manifest.total_vectors == len(lanns)
        assert manifest.lanns_config == LANNS_2X2
        assert len(manifest.checksums) == 2 * 2 + 1  # partitions + segmenter
        reloaded = load_manifest(fs, "idx")
        assert reloaded.to_dict() == manifest.to_dict()

    def test_roundtrip_is_lossless(self, lanns, fs):
        """Every segment loads as the payload it was saved from, whole or
        shard by shard (answers over the export: the ``offline`` and
        ``inline`` venues of ``tests/test_path_matrix.py``)."""
        save_lanns_index(lanns, fs, "idx")
        restored = load_lanns_index(fs, "idx")
        shard = load_shard(fs, "idx", 1)
        assert shard.shard_id == 1
        for loaded, built in (
            *zip(restored.shards, lanns.shards),
            (shard, lanns.shards[1]),
        ):
            for mine, theirs in zip(loaded.segments, built.segments):
                assert_same_payload(mine.to_arrays(), theirs.to_arrays())

    def test_load_shard_range_checked(self, lanns, fs):
        save_lanns_index(lanns, fs, "idx")
        with pytest.raises(ValueError, match="out of range"):
            load_shard(fs, "idx", 5)

    def test_segmenter_roundtrip(self, lanns, fs, clustered_data):
        save_lanns_index(lanns, fs, "idx")
        segmenter = load_segmenter(fs, "idx")
        assert segmenter.route_data_batch(clustered_data[:20]) == (
            lanns.segmenter.route_data_batch(clustered_data[:20])
        )


class TestMetadataGuards:
    def test_expected_config_mismatch_rejected(self, lanns, fs):
        save_lanns_index(lanns, fs, "idx")
        other = LANNS_2X2.with_updates(alpha=0.3)
        with pytest.raises(MetadataMismatchError, match="configuration"):
            load_lanns_index(fs, "idx", expected_config=other)

    def test_expected_config_match_accepted(self, lanns, fs):
        save_lanns_index(lanns, fs, "idx")
        load_lanns_index(fs, "idx", expected_config=LANNS_2X2)

    def test_tampered_segment_detected(self, lanns, fs):
        save_lanns_index(lanns, fs, "idx")
        raw = fs.read_bytes("idx/shard=0/segment=0.npz")
        tampered = raw[:-1] + bytes([raw[-1] ^ 0xFF])
        fs.write_bytes("idx/shard=0/segment=0.npz", tampered)
        with pytest.raises(MetadataMismatchError, match="checksum"):
            load_lanns_index(fs, "idx")

    def test_tampered_segmenter_detected(self, lanns, fs):
        save_lanns_index(lanns, fs, "idx")
        fs.write_text("idx/segmenter.json", "{}")
        with pytest.raises(MetadataMismatchError, match="checksum"):
            load_segmenter(fs, "idx")

    def test_unknown_format_version_rejected(self, lanns, fs):
        save_lanns_index(lanns, fs, "idx")
        payload = fs.read_json("idx/metadata.json")
        payload["format_version"] = 99
        with pytest.raises(SerializationError, match="version"):
            IndexManifest.from_dict(payload)
