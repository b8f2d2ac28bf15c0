"""Wire-protocol tests: framing round trips and hostile-input fuzzing.

The contract under test: a well-formed frame round-trips bit-identically
(zero-copy both ways), and *any* malformed input -- truncated at every
possible boundary, oversized, wrong magic/version, garbled header,
lying array metadata -- raises :class:`~repro.errors.ProtocolError`
instead of hanging, crashing inside numpy, or decoding garbage.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading

import numpy as np
import pytest

from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    RemoteCallError,
)
from repro.net.protocol import (
    MAGIC,
    SUPPORTED_VERSIONS,
    MAX_HEADER_BYTES,
    MsgType,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    error_frame,
    frame_to_bytes,
    parse_prefix,
    raise_if_error,
    read_frame_async,
    write_frame_async,
)


def search_frame(num_queries: int = 3, dim: int = 8) -> bytes:
    queries = np.arange(num_queries * dim, dtype=np.float32).reshape(
        num_queries, dim
    )
    return frame_to_bytes(
        MsgType.SEARCH, {"index": "main", "top_k": 5, "ef": 48}, (queries,)
    )


class TestRoundTrip:
    def test_header_only_frame(self):
        data = frame_to_bytes(MsgType.PING, {"shard_id": 7})
        msg_type, header, arrays = decode_frame(data)
        assert msg_type == MsgType.PING
        assert header == {"shard_id": 7}
        assert arrays == []

    def test_arrays_round_trip_bit_identically(self):
        queries = np.random.default_rng(0).normal(size=(4, 16))
        ids = np.arange(20, dtype=np.int64).reshape(4, 5)
        dists = np.linspace(0, 1, 20).reshape(4, 5)
        data = frame_to_bytes(
            MsgType.RESULT,
            {"index": "a"},
            (queries.astype(np.float32), ids, dists),
        )
        _, header, arrays = decode_frame(data)
        np.testing.assert_array_equal(arrays[0], queries.astype(np.float32))
        np.testing.assert_array_equal(arrays[1], ids)
        np.testing.assert_array_equal(arrays[2], dists)
        assert arrays[0].dtype == np.float32
        assert arrays[1].dtype == np.int64
        assert arrays[2].dtype == np.float64

    def test_empty_and_zero_row_arrays(self):
        empty = np.empty((0, 16), dtype=np.float32)
        data = frame_to_bytes(MsgType.SEARCH, {"top_k": 1}, (empty,))
        _, _, arrays = decode_frame(data)
        assert arrays[0].shape == (0, 16)

    def test_non_contiguous_input_is_canonicalised(self):
        matrix = np.arange(64, dtype=np.float32).reshape(8, 8)
        strided = matrix[::2, ::2]  # non-contiguous view
        data = frame_to_bytes(MsgType.SEARCH, {}, (strided,))
        _, _, arrays = decode_frame(data)
        np.testing.assert_array_equal(arrays[0], strided)

    def test_unsupported_dtype_rejected_at_encode(self):
        with pytest.raises(ProtocolError, match="wire dtype"):
            frame_to_bytes(
                MsgType.SEARCH, {}, (np.zeros(3, dtype=np.float16),)
            )

    def test_error_frame_raises_remote_call_error(self):
        data = b"".join(
            bytes(part) for part in error_frame(KeyError("index 'x'"))
        )
        msg_type, header, _ = decode_frame(data)
        with pytest.raises(RemoteCallError, match="KeyError") as excinfo:
            raise_if_error(msg_type, header)
        assert excinfo.value.error_type == "KeyError"

    def test_non_error_frames_pass_raise_if_error(self):
        raise_if_error(MsgType.OK, {})  # must not raise


class TestHostileInput:
    def test_truncated_at_every_boundary(self):
        data = search_frame()
        # Every strict prefix of a valid frame must raise ProtocolError.
        for cut in range(len(data)):
            with pytest.raises(ProtocolError):
                decode_frame(data[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ProtocolError, match="trailing"):
            decode_frame(search_frame() + b"\x00")

    def test_bad_magic(self):
        data = bytearray(search_frame())
        data[0] = ord("X")
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(bytes(data))

    def test_version_mismatch(self):
        data = bytearray(search_frame())
        data[2] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(data))

    def test_unknown_message_type(self):
        data = bytearray(search_frame())
        data[3] = 250
        with pytest.raises(ProtocolError, match="message type"):
            decode_frame(bytes(data))

    def test_oversized_frame_rejected_by_prefix(self):
        prefix = struct.pack(
            ">2sBBIQ", MAGIC, PROTOCOL_VERSION, int(MsgType.SEARCH),
            16, 1 << 40,
        )
        with pytest.raises(ProtocolError, match="exceeds"):
            parse_prefix(prefix, max_frame=1 << 20)

    def test_oversized_header_rejected(self):
        prefix = struct.pack(
            ">2sBBIQ", MAGIC, PROTOCOL_VERSION, int(MsgType.SEARCH),
            MAX_HEADER_BYTES + 1, 0,
        )
        with pytest.raises(ProtocolError, match="header length"):
            parse_prefix(prefix)

    def test_garbled_header_json(self):
        header = b"{not json"
        prefix = struct.pack(
            ">2sBBIQ", MAGIC, PROTOCOL_VERSION, int(MsgType.PING),
            len(header), 0,
        )
        with pytest.raises(ProtocolError, match="unparseable"):
            decode_frame(prefix + header)

    def test_array_meta_overrunning_payload(self):
        # Header promises a (1000, 1000) float32 block; payload has 4 bytes.
        import json

        header = json.dumps(
            {"arrays": [{"dtype": "<f4", "shape": [1000, 1000]}]}
        ).encode()
        payload = b"\x00\x00\x00\x00"
        prefix = struct.pack(
            ">2sBBIQ", MAGIC, PROTOCOL_VERSION, int(MsgType.SEARCH),
            len(header), len(payload),
        )
        with pytest.raises(ProtocolError, match="overruns"):
            decode_frame(prefix + header + payload)

    def test_negative_and_bogus_shapes(self):
        import json

        for shape in ([-1, 4], ["x"], "nope", [[2]]):
            header = json.dumps(
                {"arrays": [{"dtype": "<f4", "shape": shape}]}
            ).encode()
            prefix = struct.pack(
                ">2sBBIQ", MAGIC, PROTOCOL_VERSION, int(MsgType.SEARCH),
                len(header), 0,
            )
            with pytest.raises(ProtocolError):
                decode_frame(prefix + header)

    def test_undeclared_payload_bytes_rejected(self):
        import json

        header = json.dumps({"arrays": []}).encode()
        payload = b"\xff" * 8
        prefix = struct.pack(
            ">2sBBIQ", MAGIC, PROTOCOL_VERSION, int(MsgType.PING),
            len(header), len(payload),
        )
        with pytest.raises(ProtocolError, match="trailing payload"):
            decode_frame(prefix + header + payload)

    def test_fuzz_random_mutations_never_escape_protocol_error(self):
        """Random single-byte corruptions: decode raises cleanly or
        returns a frame -- anything else (numpy errors, hangs, silent
        nonsense types) is a bug."""
        rng = np.random.default_rng(7)
        data = bytearray(search_frame())
        for _ in range(300):
            mutated = bytearray(data)
            pos = int(rng.integers(0, len(mutated)))
            mutated[pos] = int(rng.integers(0, 256))
            try:
                msg_type, header, arrays = decode_frame(bytes(mutated))
            except ProtocolError:
                continue
            assert isinstance(msg_type, MsgType)
            assert isinstance(header, dict)

    def test_fuzz_random_blobs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            blob = bytes(
                rng.integers(0, 256, size=int(rng.integers(0, 64)), dtype=np.uint8)
            )
            with pytest.raises(ProtocolError):
                decode_frame(blob)


class TestStreamHelpers:
    """``read_frame_async`` / ``write_frame_async`` over a socketpair."""

    @staticmethod
    def run_with_reader(feed, read):
        """Run ``read(reader, writer)`` against a peer socket ``feed`` fills."""

        async def scenario():
            left, right = socket.socketpair()
            reader, writer = await asyncio.open_connection(sock=right)
            try:
                feed(left)
                return await asyncio.wait_for(read(reader, writer), 10)
            finally:
                left.close()
                writer.close()

        return asyncio.run(scenario())

    def test_write_then_read_over_socketpair(self):
        queries = np.ones((2, 4), dtype=np.float32)

        async def echo(reader, writer):
            # The peer socket loops our own frame back to us.
            await write_frame_async(
                writer, MsgType.SEARCH, {"top_k": 3}, (queries,)
            )
            return await read_frame_async(reader)

        def loop_back(peer):
            threading.Thread(
                target=lambda: peer.sendall(peer.recv(1 << 16)), daemon=True
            ).start()

        msg_type, header, arrays = self.run_with_reader(loop_back, echo)
        assert msg_type == MsgType.SEARCH
        assert header["top_k"] == 3
        np.testing.assert_array_equal(arrays[0], queries)

    def test_peer_hangup_mid_frame_raises_protocol_error(self):
        data = search_frame()

        def half_then_hangup(peer):
            peer.sendall(data[: len(data) // 2])
            peer.close()

        with pytest.raises(ProtocolError, match="closed mid-frame"):
            self.run_with_reader(
                half_then_hangup, lambda reader, _: read_frame_async(reader)
            )

    def test_clean_hangup_before_frame(self):
        with pytest.raises(ConnectionLostError):
            self.run_with_reader(
                lambda peer: peer.close(),
                lambda reader, _: read_frame_async(reader),
            )


class TestProtocolVersions:
    """Protocol v2 added the optional trace/cost header fields; both
    versions must keep decoding (rolling upgrades mix peers)."""

    def test_v1_search_frame_still_decodes(self):
        queries = np.arange(24, dtype=np.float32).reshape(3, 8)
        header = {"index": "main", "top_k": 5, "ef": 48}
        data = b"".join(
            bytes(part)
            for part in encode_frame(
                MsgType.SEARCH, header, (queries,), version=1
            )
        )
        assert data[2] == 1
        msg_type, decoded, arrays = decode_frame(data)
        assert msg_type == MsgType.SEARCH
        assert decoded == header
        np.testing.assert_array_equal(arrays[0], queries)

    def test_v2_frame_with_trace_context_round_trips(self):
        queries = np.arange(16, dtype=np.float32).reshape(2, 8)
        header = {
            "index": "main",
            "top_k": 5,
            "trace": {"id": "t-0123abcd"},
            "cost": True,
        }
        data = b"".join(
            bytes(part)
            for part in encode_frame(MsgType.SEARCH, header, (queries,))
        )
        assert data[2] == PROTOCOL_VERSION
        _, decoded, arrays = decode_frame(data)
        assert decoded["trace"] == {"id": "t-0123abcd"}
        assert decoded["cost"] is True
        np.testing.assert_array_equal(arrays[0], queries)

    def test_trace_free_header_identical_across_versions(self):
        """A peer that never traces emits headers an old peer accepts:
        the trace fields are absent, not null-filled."""
        header = {"index": "main", "top_k": 5}
        frames = {
            version: b"".join(
                bytes(part)
                for part in encode_frame(MsgType.SEARCH, header, version=version)
            )
            for version in SUPPORTED_VERSIONS
        }
        for version, data in frames.items():
            _, decoded, _ = decode_frame(data)
            assert decoded == header, f"v{version} header drifted"
        # Only the version byte differs.
        assert frames[1][:2] == frames[2][:2]
        assert frames[1][3:] == frames[2][3:]

    def test_result_frame_with_cost_and_trace_round_trips(self):
        ids = np.arange(10, dtype=np.int64).reshape(2, 5)
        dists = np.linspace(0, 1, 10, dtype=np.float32).reshape(2, 5)
        header = {
            "cost": {"hops": 12, "distance_comps": 340},
            "trace": [
                {
                    "name": "decode",
                    "start_ms": 0.0,
                    "dur_ms": 0.1,
                    "annotations": {},
                    "children": [],
                }
            ],
        }
        data = frame_to_bytes(MsgType.RESULT, header, (ids, dists))
        _, decoded, arrays = decode_frame(data)
        assert decoded["cost"] == header["cost"]
        assert decoded["trace"][0]["name"] == "decode"
        np.testing.assert_array_equal(arrays[0], ids)
        np.testing.assert_array_equal(arrays[1], dists)

    def test_unsupported_encode_version_rejected(self):
        with pytest.raises(ProtocolError, match="version"):
            encode_frame(MsgType.PING, {}, version=PROTOCOL_VERSION + 1)


class TestProtocolV3:
    """Protocol v3 added the optional overload/deadline fields: a
    ``deadline_ms`` remaining budget on SEARCH and a ``retry_after_s``
    hint on ERROR frames.  Both are additive -- v2 peers keep working."""

    def test_search_deadline_ms_round_trips(self):
        queries = np.arange(16, dtype=np.float32).reshape(2, 8)
        header = {"index": "main", "top_k": 5, "deadline_ms": 87.5}
        data = b"".join(
            bytes(part)
            for part in encode_frame(MsgType.SEARCH, header, (queries,))
        )
        assert data[2] == PROTOCOL_VERSION
        _, decoded, arrays = decode_frame(data)
        assert decoded["deadline_ms"] == 87.5
        np.testing.assert_array_equal(arrays[0], queries)

    def test_v2_search_frame_still_decodes(self):
        """A v2 peer (no deadline field) keeps working mid-upgrade."""
        header = {"index": "main", "top_k": 5, "cost": True}
        data = b"".join(
            bytes(part)
            for part in encode_frame(MsgType.SEARCH, header, version=2)
        )
        assert data[2] == 2
        _, decoded, _ = decode_frame(data)
        assert decoded == header
        assert "deadline_ms" not in decoded

    def test_overloaded_error_frame_carries_retry_after(self):
        exc = OverloadedError("shard 3 at capacity", retry_after_s=0.25)
        data = b"".join(bytes(part) for part in error_frame(exc))
        msg_type, header, _ = decode_frame(data)
        assert header["error_type"] == "OverloadedError"
        assert header["retry_after_s"] == 0.25
        with pytest.raises(OverloadedError, match="capacity") as excinfo:
            raise_if_error(msg_type, header)
        assert excinfo.value.retry_after_s == 0.25

    def test_overloaded_without_hint_round_trips_as_none(self):
        exc = OverloadedError("at capacity")
        data = b"".join(bytes(part) for part in error_frame(exc))
        msg_type, header, _ = decode_frame(data)
        assert "retry_after_s" not in header
        with pytest.raises(OverloadedError) as excinfo:
            raise_if_error(msg_type, header)
        assert excinfo.value.retry_after_s is None

    def test_deadline_exceeded_error_maps_to_typed_exception(self):
        exc = DeadlineExceededError("budget spent on arrival")
        data = b"".join(bytes(part) for part in error_frame(exc))
        msg_type, header, _ = decode_frame(data)
        with pytest.raises(DeadlineExceededError, match="budget"):
            raise_if_error(msg_type, header)

    def test_plain_error_frame_still_maps_to_remote_call_error(self):
        """ERROR frames without the v3 hint (v1 peers, or any remote
        exception) still raise the generic RemoteCallError."""
        data = b"".join(
            bytes(part) for part in error_frame(ValueError("bad k"))
        )
        msg_type, header, _ = decode_frame(data)
        assert "retry_after_s" not in header
        with pytest.raises(RemoteCallError, match="ValueError"):
            raise_if_error(msg_type, header)
