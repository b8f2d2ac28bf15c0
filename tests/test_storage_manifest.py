"""Tests for the index export format and its metadata coupling."""

import contextlib
import functools
import hashlib
import json

import pytest

from repro.errors import MetadataMismatchError, SerializationError
from repro.online.service import OnlineService
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
        assert "idx/shard=0/segment=0.hnsw" in files
        assert "idx/shard=1/segment=1.hnsw" in files

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
        raw = fs.read_bytes("idx/shard=0/segment=0.hnsw")
        tampered = raw[:-1] + bytes([raw[-1] ^ 0xFF])
        fs.write_bytes("idx/shard=0/segment=0.hnsw", tampered)
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


def _without(key):
    return lambda raw: json.dumps(
        {k: v for k, v in json.loads(raw).items() if k != key}
    ).encode()


def _with(key, value):
    return lambda raw: json.dumps({**json.loads(raw), key: value}).encode()


def _config(**changes):
    """The manifest with ``changes`` made to its ``config``."""
    return lambda raw: _with("config", {**json.loads(raw)["config"], **changes})(raw)


def _occupancy(edit):
    """The manifest with its ``segment_sizes`` table replaced by ``edit`` of it."""
    return lambda raw: _with(
        "segment_sizes", edit(json.loads(raw)["segment_sizes"])
    )(raw)


#: One injected fault per row: what the damaged document holds, as a
#: function of the bytes that were written.
DOCUMENT_FAULTS = {
    "empty": lambda raw: b"",
    "torn": lambda raw: raw[: len(raw) // 2],
    "not_utf8": lambda raw: b"\xff\xfe" + raw,
    "a_list": lambda raw: b"[]",
}
MANIFEST_FAULTS = {
    **DOCUMENT_FAULTS,
    "no_config": _without("config"),
    "dim_not_a_number": _with("dim", "eight"),
    "config_not_an_object": _with("config", 5),
    "config_out_of_range": _config(num_shards=0),
    "hnsw_not_an_object": _config(hnsw=[1, 2]),
    "retired_key_changed": _config(use_per_shard_topk=False),
    # The occupancy table the broker prunes fan-out with: checked on read.
    "occupancy_short": _occupancy(lambda rows: rows[:-1]),
    "occupancy_long_row": _occupancy(lambda rows: [rows[0] + [0], *rows[1:]]),
    "occupancy_negative": _occupancy(
        lambda rows: [[sum(rows[0]) + 1, -1], *rows[1:]]
    ),
    "occupancy_wrong_sum": _occupancy(
        lambda rows: [[rows[0][0] + 1, *rows[0][1:]], *rows[1:]]
    ),
}
SEGMENTER_FAULTS = {
    **DOCUMENT_FAULTS,
    "no_kind": _without("kind"),
    "unknown_kind": _with("kind", "voronoi"),
    "no_nodes": _without("nodes"),
}


class TestBadDocuments:
    """A torn, empty or wrong-shape ``metadata.json`` / ``segmenter.json``
    is a ``SerializationError`` naming the file -- never a json, key or
    attribute traceback."""

    @pytest.mark.parametrize("fault", sorted(MANIFEST_FAULTS))
    def test_a_bad_manifest_names_the_file(self, lanns, fs, fault):
        save_lanns_index(lanns, fs, "idx")
        raw = fs.read_bytes("idx/metadata.json")
        fs.write_bytes("idx/metadata.json", MANIFEST_FAULTS[fault](raw))
        for load in (load_manifest, load_lanns_index):
            with pytest.raises(SerializationError, match="idx/metadata.json"):
                load(fs, "idx")

    @pytest.mark.parametrize("fault", sorted(SEGMENTER_FAULTS))
    def test_a_bad_segmenter_names_the_file(self, lanns, fs, fault):
        """The manifest's checksum is re-stamped, so only the parse can
        refuse the document."""
        save_lanns_index(lanns, fs, "idx")
        raw = SEGMENTER_FAULTS[fault](fs.read_bytes("idx/segmenter.json"))
        fs.write_bytes("idx/segmenter.json", raw)
        manifest = fs.read_json("idx/metadata.json")
        manifest["checksums"]["segmenter.json"] = hashlib.sha256(raw).hexdigest()
        fs.write_json("idx/metadata.json", manifest)
        with pytest.raises(SerializationError, match="idx/segmenter.json"):
            load_segmenter(fs, "idx")

    @pytest.mark.parametrize("fault", sorted(SEGMENTER_FAULTS))
    def test_every_reader_of_a_bad_segmenter_names_the_file(
        self, lanns, fs, fault
    ):
        """The whole-index load and the serving deploy read the same
        ``segmenter.json``: both refuse it by name, and the refused
        deploy leaves no broker behind."""
        save_lanns_index(lanns, fs, "idx")
        raw = SEGMENTER_FAULTS[fault](fs.read_bytes("idx/segmenter.json"))
        fs.write_bytes("idx/segmenter.json", raw)
        manifest = fs.read_json("idx/metadata.json")
        manifest["checksums"]["segmenter.json"] = hashlib.sha256(raw).hexdigest()
        fs.write_json("idx/metadata.json", manifest)
        with pytest.raises(SerializationError, match="idx/segmenter.json"):
            load_lanns_index(fs, "idx")
        service = OnlineService()
        try:
            with pytest.raises(SerializationError, match="idx/segmenter.json"):
                service.deploy(fs, "idx")
            assert service.brokers == {}
        finally:
            service.close()


@pytest.mark.parametrize(
    "key, fixed, other",
    [
        ("use_per_shard_topk", True, False),
        ("paper_literal_probit", False, True),
        ("hnsw.keep_pruned_connections", True, False),
        ("hnsw.max_m", LANNS_2X2.hnsw.M, 3),
        ("hnsw.max_m0", 2 * LANNS_2X2.hnsw.M, 3),
        ("hnsw.ml", None, 0.5),
    ],
)
def test_a_retired_key_loads_only_at_this_builds_value(lanns, fs, key, fixed, other):
    """A setting an earlier export persisted and this build no longer has:
    at the value this build behaves as, the export loads, passes the drift
    guard and deploys; at any other, every reader refuses it by file and key."""
    save_lanns_index(lanns, fs, "idx")
    manifest = fs.read_json("idx/metadata.json")
    *nested, name = key.split(".")
    for refused, value in enumerate((fixed, other)):
        (manifest["config"]["hnsw"] if nested else manifest["config"])[name] = value
        fs.write_json("idx/metadata.json", manifest)
        guarded = functools.partial(load_lanns_index, expected_config=LANNS_2X2)
        with contextlib.closing(OnlineService()) as service:
            for read in (load_manifest, guarded, service.deploy):
                with pytest.raises(
                    SerializationError, match=f"idx/metadata.json.*retired key '{name}'"
                ) if refused else contextlib.nullcontext():
                    read(fs, "idx")
