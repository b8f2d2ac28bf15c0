"""Index export format: persisted LANNS indices with coupled metadata.

Layout under an index root path on the filesystem::

    <root>/metadata.json                 -- manifest: config, layout, checksums
    <root>/segmenter.json                -- the shared pre-learnt segmenter
    <root>/shard=<s>/segment=<g>.hnsw    -- one serialized HNSW per partition

A segment file is :meth:`HnswIndex.save`'s byte-plane container
(:mod:`repro.utils.container`: a CRC-checked header and member table,
then each member's byte planes, deflated only where that pays) of HNSW
payload format 2, a fixed member set whatever the graph's height: the
adjacency as a searcher holds it in memory (``table`` ``(slots, width)``
and ``degrees`` ``(slots,)`` int32, rows padded with their own node;
``levels`` ``(n,)`` int32; ``entry_point``; ``max_level``), ``vectors``
``(n, dim)`` float32, ``external_ids`` ``(n,)`` int64, ``params_json``,
``metric``, ``dim``, ``count``, ``format_version`` and, when quantized,
the ``codec_*`` members.

"The serialized index consists of the graph index, the actual embeddings
(vectors) and additional metadata (like the segmenter, distance function
used during index build, etc) ... This ensures that the platform doesn't
allow accidental differences in the algorithm configuration between
offline index build and online serving." (Section 7)

That guarantee is enforced here: loading validates per-file SHA-256
checksums, and :func:`load_lanns_index` raises
:class:`~repro.errors.MetadataMismatchError` when the caller's expected
configuration disagrees with the persisted one.
"""

from __future__ import annotations

import hashlib
import io
import json
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.config import LannsConfig
from repro.core.index import LannsIndex, ShardIndex
from repro.errors import ConfigError, MetadataMismatchError, SerializationError
from repro.hnsw.index import HnswIndex
from repro.segmenters.base import Segmenter, segmenter_from_dict
from repro.storage.hdfs import LocalHdfs
from repro.version import __version__

_FORMAT_VERSION = 1


def hnsw_to_bytes(index: HnswIndex) -> bytes:
    """Serialize an HNSW index to the bytes of one segment file."""
    buffer = io.BytesIO()
    index.save(buffer)
    return buffer.getvalue()


def hnsw_from_bytes(data: bytes) -> HnswIndex:
    """Inverse of :func:`hnsw_to_bytes`; other bytes: ``SerializationError``."""
    return HnswIndex.load(io.BytesIO(data))


def _checksum(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def segment_file(shard: int, segment: int) -> str:
    """Relative path of one partition's serialized index."""
    return f"shard={shard}/segment={segment}.hnsw"


@dataclass
class IndexManifest:
    """The ``metadata.json`` document coupled with every exported index."""

    config: dict
    dim: int
    total_vectors: int
    shard_sizes: list[int]
    checksums: dict[str, str] = field(default_factory=dict)
    #: Per-shard per-segment vector counts (``[shard][segment]``), the
    #: occupancy table the online router prunes fan-out with.  Optional:
    #: indices exported before it existed load fine and simply fan out
    #: to every shard.
    segment_sizes: list[list[int]] | None = None
    format_version: int = _FORMAT_VERSION
    created_by: str = f"repro-lanns/{__version__}"

    def to_dict(self) -> dict:
        payload = {
            "format_version": self.format_version,
            "created_by": self.created_by,
            "config": self.config,
            "dim": self.dim,
            "total_vectors": self.total_vectors,
            "shard_sizes": self.shard_sizes,
            "checksums": self.checksums,
        }
        if self.segment_sizes is not None:
            payload["segment_sizes"] = self.segment_sizes
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "IndexManifest":
        if payload.get("format_version") != _FORMAT_VERSION:
            raise SerializationError(
                f"unsupported index format version "
                f"{payload.get('format_version')!r}"
            )
        shard_sizes = [int(size) for size in payload["shard_sizes"]]
        segment_sizes = payload.get("segment_sizes")
        if segment_sizes is not None:
            segment_sizes = _occupancy(
                segment_sizes, shard_sizes, payload["config"]["num_segments"]
            )
        return cls(
            config=payload["config"],
            dim=int(payload["dim"]),
            total_vectors=int(payload["total_vectors"]),
            shard_sizes=shard_sizes,
            checksums=dict(payload["checksums"]),
            segment_sizes=segment_sizes,
            format_version=int(payload["format_version"]),
            created_by=str(payload.get("created_by", "unknown")),
        )

    @property
    def lanns_config(self) -> LannsConfig:
        """The persisted configuration as a validated object."""
        return LannsConfig.from_dict(self.config)

    def expect_config(self, expected: LannsConfig | None) -> LannsConfig:
        """The persisted configuration, held to ``expected`` when given:
        the paper's offline/online drift guard, for loading and
        deploying alike (raises
        :class:`~repro.errors.MetadataMismatchError` naming both)."""
        config = self.lanns_config
        if expected is not None and expected != config:
            raise MetadataMismatchError(
                "persisted index configuration does not match the expected "
                f"configuration:\n  persisted: {config}\n  expected:  "
                f"{expected}"
            )
        return config


def _occupancy(
    table: list, shard_sizes: list[int], num_segments: int
) -> list[list[int]]:
    """``table`` as the ``[shard][segment]`` count table it must be: one
    row per shard, ``num_segments`` non-negative ints a row, each row
    summing to its shard's size.  Anything else is a
    ``SerializationError`` here, not an ``IndexError`` where the broker
    reads it."""
    rows = [[int(size) for size in row] for row in table]
    if len(rows) != len(shard_sizes):
        raise SerializationError(
            f"segment_sizes has {len(rows)} rows for {len(shard_sizes)} shards"
        )
    for shard, row in enumerate(rows):
        if len(row) != num_segments or min(row) < 0 or sum(row) != shard_sizes[shard]:
            raise SerializationError(
                f"segment_sizes row {shard} is {row}: want {num_segments} "
                f"non-negative counts summing to shard size {shard_sizes[shard]}"
            )
    return rows


def write_segment(
    fs: LocalHdfs, path: str, shard: int, segment: int, index: HnswIndex
) -> tuple[str, str]:
    """Serialize one partition's index under ``path``; returns its
    ``(relative file, checksum)`` manifest entry."""
    relative = segment_file(shard, segment)
    data = hnsw_to_bytes(index)
    fs.write_bytes(f"{path}/{relative}", data)
    return relative, _checksum(data)


def write_metadata(
    fs: LocalHdfs,
    path: str,
    config: LannsConfig,
    segmenter: Segmenter,
    dim: int,
    segment_sizes: list[list[int]],
    checksums: dict[str, str],
) -> IndexManifest:
    """Couple the written segments with ``segmenter.json`` and the
    manifest (``metadata.json``), which is returned.

    ``segment_sizes`` is the ``[shard][segment]`` vector-count table and
    ``checksums`` the :func:`write_segment` entries of every partition.
    """
    segmenter_raw = json.dumps(segmenter.to_dict()).encode()
    fs.write_bytes(f"{path}/segmenter.json", segmenter_raw)
    shard_sizes = [sum(row) for row in segment_sizes]
    manifest = IndexManifest(
        config=config.to_dict(),
        dim=dim,
        total_vectors=sum(shard_sizes),
        shard_sizes=shard_sizes,
        checksums={**checksums, "segmenter.json": _checksum(segmenter_raw)},
        segment_sizes=segment_sizes,
    )
    fs.write_json(f"{path}/metadata.json", manifest.to_dict())
    return manifest


def save_lanns_index(
    index: LannsIndex, fs: LocalHdfs, path: str
) -> IndexManifest:
    """Export a built :class:`~repro.core.index.LannsIndex` (Figure 6 output).

    Returns the manifest that was written to ``<path>/metadata.json``.
    """
    checksums = dict(
        write_segment(fs, path, shard.shard_id, segment_id, segment)
        for shard in index.shards
        for segment_id, segment in enumerate(shard.segments)
    )
    return write_metadata(
        fs,
        path,
        index.config,
        index.segmenter,
        index.dim,
        [shard.segment_sizes for shard in index.shards],
        checksums,
    )


def parse_document(raw: bytes, file: str, parse: Callable[[dict], object]):
    """``parse`` of the JSON object in ``raw``: a torn, empty or
    wrong-shape document is a ``SerializationError`` naming ``file``."""
    try:
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise TypeError(f"a JSON {type(payload).__name__}, not an object")
        return parse(payload)
    except (ValueError, TypeError, KeyError, ConfigError, SerializationError) as error:
        raise SerializationError(
            f"{file!r} is not a readable document ({error!r})"
        ) from error


def _manifest_with_config(payload: dict) -> IndexManifest:
    manifest = IndexManifest.from_dict(payload)
    LannsConfig.from_dict(manifest.config)  # refuse now what would fail later
    return manifest


def load_manifest(fs: LocalHdfs, path: str) -> IndexManifest:
    """Read just the manifest of an exported index."""
    file = f"{path}/metadata.json"
    return parse_document(fs.read_bytes(file), file, _manifest_with_config)


def load_segmenter(
    fs: LocalHdfs, path: str, manifest: IndexManifest | None = None
) -> Segmenter:
    """Load the shared segmenter of an exported index (checksum-verified)."""
    manifest = manifest or load_manifest(fs, path)
    raw = fs.read_bytes(f"{path}/segmenter.json")
    _verify(manifest, "segmenter.json", raw)
    return parse_document(raw, f"{path}/segmenter.json", segmenter_from_dict)


def read_segment(
    fs: LocalHdfs, path: str, manifest: IndexManifest, shard: int, segment: int
) -> HnswIndex:
    """Read, checksum-verify and parse one partition's index: the one way
    a segment file becomes an index, online and offline."""
    relative = segment_file(shard, segment)
    raw = fs.read_bytes(f"{path}/{relative}")
    _verify(manifest, relative, raw)
    return hnsw_from_bytes(raw)


def load_shard(
    fs: LocalHdfs,
    path: str,
    shard_id: int,
    *,
    manifest: IndexManifest | None = None,
    segmenter: Segmenter | None = None,
) -> ShardIndex:
    """Load one shard of an exported index (what a searcher node does)."""
    manifest = manifest or load_manifest(fs, path)
    config = manifest.lanns_config
    if not 0 <= shard_id < config.num_shards:
        raise ValueError(
            f"shard_id {shard_id} out of range for {config.num_shards} shards"
        )
    segmenter = segmenter or load_segmenter(fs, path, manifest)
    segments = [
        read_segment(fs, path, manifest, shard_id, segment_id)
        for segment_id in range(config.num_segments)
    ]
    return ShardIndex(shard_id, segments, segmenter)


def load_lanns_index(
    fs: LocalHdfs,
    path: str,
    *,
    expected_config: LannsConfig | None = None,
) -> LannsIndex:
    """Load a full exported index back into memory.

    Parameters
    ----------
    expected_config:
        When given, must equal the persisted configuration; a mismatch
        raises :class:`~repro.errors.MetadataMismatchError` (the paper's
        offline/online drift guard).
    """
    manifest = load_manifest(fs, path)
    config = manifest.expect_config(expected_config)
    segmenter = load_segmenter(fs, path, manifest)
    shards = [
        load_shard(
            fs, path, shard_id, manifest=manifest, segmenter=segmenter
        )
        for shard_id in range(config.num_shards)
    ]
    return LannsIndex(config, shards, segmenter)


def _verify(manifest: IndexManifest, relative: str, raw: bytes) -> None:
    expected = manifest.checksums.get(relative)
    if expected is None:
        raise MetadataMismatchError(
            f"file {relative!r} is not listed in the index manifest"
        )
    actual = _checksum(raw)
    if actual != expected:
        raise MetadataMismatchError(
            f"checksum mismatch for {relative!r}: manifest says "
            f"{expected[:12]}..., file hashes to {actual[:12]}..."
        )
