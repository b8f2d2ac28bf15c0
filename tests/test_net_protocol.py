"""Wire-protocol tests: framing round trips and hostile-input fuzzing.

The contract under test: a well-formed frame round-trips bit-identically
(zero-copy both ways), and *any* malformed input -- truncated at every
possible boundary, oversized, wrong magic/version, garbled header,
lying array metadata -- raises :class:`~repro.errors.ProtocolError`
instead of hanging, crashing inside numpy, or decoding garbage.
"""

from __future__ import annotations

import contextlib
import logging
import re
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig

from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    RemoteCallError,
)
from repro.net.client import RemoteSearcherClient
from repro.net.protocol import (
    MAGIC,
    MAX_HEADER_BYTES,
    PREFIX_SIZE,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    FrameReader,
    MsgType,
    ShardCall,
    decode_frame,
    encode_frame,
    error_frame,
    frame_to_bytes,
    pack,
    parse_prefix,
    raise_if_error,
    unpack,
)
from repro.net.server import SearcherServer
from repro.online.searcher import SearcherNode
from tests.conftest import FAST_HNSW, make_clustered, wait_until


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


def garbled(frame: bytes, **prefix_fields) -> bytes:
    """``frame`` with prefix fields overwritten (the body is untouched)."""
    magic, version, msg_type, header_len, payload_len = struct.unpack_from(
        ">2sBBIQ", frame
    )
    fields = {
        "magic": magic,
        "version": version,
        "msg_type": msg_type,
        "header_len": header_len,
        "payload_len": payload_len,
        **prefix_fields,
    }
    return struct.pack(">2sBBIQ", *fields.values()) + frame[PREFIX_SIZE:]


#: Streams a peer must never get decoded: ``name -> (bytes, message)``.
#: Each is refused with a ``ProtocolError`` matching ``message`` -- by
#: the reader, and as an ERROR frame (or a closed socket) by a server.
MALFORMED = {
    "bad magic": (garbled(search_frame(), magic=b"XN"), "magic"),
    "unsupported version": (
        garbled(search_frame(), version=PROTOCOL_VERSION + 1),
        "version",
    ),
    "oversized header": (
        garbled(search_frame(), header_len=MAX_HEADER_BYTES + 1),
        "header length",
    ),
    # Rejected on the prefix alone: not one payload byte is sent.
    "oversized frame": (
        garbled(search_frame(), payload_len=1 << 40)[:PREFIX_SIZE],
        "exceeds",
    ),
    "unknown message type": (
        garbled(search_frame(), msg_type=250),
        "message type",
    ),
    "trailing garbage payload": (
        garbled(search_frame(), payload_len=3 * 8 * 4 + 5) + b"\xff" * 5,
        "trailing payload",
    ),
    "garbled header": (
        struct.pack(">2sBBIQ", MAGIC, 1, int(MsgType.PING), 9, 0) + b"{not json",
        "unparseable",
    ),
}

#: Streams that end inside a frame: ``name -> (bytes, message)``.
TRUNCATED = {
    "truncated prefix": (search_frame()[:7], "truncated frame prefix: 7 of"),
    "truncated body": (search_frame()[:-9], r"closed mid-frame \(9 bytes"),
}

json_headers = st.dictionaries(
    st.text(max_size=6).filter(lambda key: key != "arrays"),
    st.none() | st.booleans() | st.integers(-(2**40), 2**40) | st.text(max_size=6),
    max_size=3,
)
wire_arrays = st.tuples(
    st.sampled_from(["<f4", "<f8", "<i8"]),
    st.lists(st.integers(0, 4), min_size=1, max_size=3),
    st.integers(0, 2**31),
).map(
    lambda drawn: np.random.default_rng(drawn[2])
    .integers(-99, 99, size=drawn[1])
    .astype(drawn[0])
)
frames = st.builds(
    lambda msg_type, header, arrays, version: garbled(
        frame_to_bytes(msg_type, header, arrays), version=version
    ),
    st.sampled_from(list(MsgType)),
    json_headers,
    st.lists(wire_arrays, max_size=3),
    st.sampled_from(SUPPORTED_VERSIONS),
)


def assert_same_frame(got, want) -> None:
    assert got[:2] == want[:2]
    assert len(got[2]) == len(want[2])
    for mine, theirs in zip(got[2], want[2]):
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
        np.testing.assert_array_equal(mine, theirs)


class TestFrameReader:
    """The sans-IO reader both ends of every socket run on.

    Replaces the socketpair tests of the deleted stream helpers:
    ``test_write_then_read_over_socketpair`` ->
    ``test_any_chunking_yields_the_same_frames`` (and, over a real
    socket, ``TestLiveServer.test_trickled_search_is_answered``);
    ``test_peer_hangup_mid_frame_raises_protocol_error`` ->
    ``test_eof_inside_a_frame_is_a_protocol_error``;
    ``test_clean_hangup_before_frame`` ->
    ``test_eof_between_frames_is_a_clean_hangup``.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.lists(frames, min_size=1, max_size=4), st.data())
    def test_any_chunking_yields_the_same_frames(self, stream, data):
        """The reader is a pure function of the byte stream: however
        the bytes are cut, out come ``decode_frame`` of each frame, in
        order, and nothing stays buffered."""
        blob = b"".join(stream)
        cuts = data.draw(
            st.sampled_from(["whole", "bytewise"])
            | st.lists(st.integers(0, len(blob)), max_size=8)
        )
        if cuts == "whole":
            cuts = []
        elif cuts == "bytewise":
            cuts = range(1, len(blob))
        edges = [0, *sorted(cuts), len(blob)]
        reader = FrameReader()
        got = [
            frame
            for lo, hi in zip(edges, edges[1:])
            for frame in reader.feed(blob[lo:hi])
        ]
        assert len(got) == len(stream)
        for mine, frame in zip(got, stream):
            assert_same_frame(mine, decode_frame(frame))
        assert isinstance(reader.eof_error(), ConnectionLostError)

    def test_a_whole_frame_is_decoded_in_place(self):
        """One frame, one chunk: the arrays alias the chunk (no copy);
        a frame that straddles chunks is assembled once."""
        chunk = search_frame()
        (_, _, (queries,)), = FrameReader().feed(chunk)
        assert np.shares_memory(queries, np.frombuffer(chunk, dtype=np.uint8))
        reader = FrameReader()
        assert list(reader.feed(chunk[:40])) == []
        (_, _, (queries,)), = reader.feed(chunk[40:])
        assert not np.shares_memory(
            queries, np.frombuffer(chunk, dtype=np.uint8)
        )

    def test_eof_between_frames_is_a_clean_hangup(self):
        reader = FrameReader()
        assert isinstance(reader.eof_error(), ConnectionLostError)
        assert len(list(reader.feed(search_frame()))) == 1
        assert isinstance(reader.eof_error(), ConnectionLostError)

    @pytest.mark.parametrize("name", TRUNCATED)
    def test_eof_inside_a_frame_is_a_protocol_error(self, name):
        data, message = TRUNCATED[name]
        reader = FrameReader()
        assert list(reader.feed(data)) == []
        with pytest.raises(ProtocolError, match=message):
            raise reader.eof_error()

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_streams_raise_protocol_error(self, name):
        data, message = MALFORMED[name]
        with pytest.raises(ProtocolError, match=message):
            list(FrameReader().feed(data))
        # ... and after a good frame, which still comes out first.
        reader = FrameReader()
        got = []
        with pytest.raises(ProtocolError, match=message):
            for frame in reader.feed(search_frame() + data):
                got.append(frame)
        assert len(got) == 1

    def test_max_frame_is_enforced_on_the_prefix(self):
        data = search_frame()
        with pytest.raises(ProtocolError, match="exceeds the 64-byte limit"):
            list(FrameReader(max_frame=64).feed(data[:PREFIX_SIZE]))


# -- against a live server ---------------------------------------------------------------

INDEX_NAME = "fuzzed"


@pytest.fixture(scope="module")
def shard():
    config = LannsConfig(
        num_shards=1,
        num_segments=2,
        segmenter="rh",
        hnsw=FAST_HNSW,
        segmenter_sample_size=300,
        seed=51,
    )
    return build_lanns_index(make_clustered(400, 16, seed=52), config=config).shards[0]


@pytest.fixture
def server(shard, request):
    node = SearcherNode(0)
    node.host(INDEX_NAME, shard)
    live = SearcherServer(
        node, max_in_flight=2, **getattr(request, "param", {})
    ).start_in_thread()
    yield live
    live.stop()


def connect(server) -> socket.socket:
    host, port = server.address.rsplit(":", 1)
    return socket.create_connection((host, int(port)), timeout=10)


def live_search_frame(rows: int = 2) -> bytes:
    return frame_to_bytes(
        MsgType.SEARCH,
        pack(MsgType.SEARCH, index=INDEX_NAME, top_k=3, ef=None),
        (make_clustered(rows, 16, seed=53),),
    )


def _rows(planted: float | None = None) -> np.ndarray:
    """Two good query rows, with ``planted`` in one cell when given."""
    rows = make_clustered(2, 16, seed=53)
    if planted is not None:
        rows[1, 3] = planted
    return rows


#: Well-framed, well-typed SEARCH requests a searcher must refuse:
#: ``{name: (header fields over the good ones, query block)}``.
HOSTILE_CALLS = {
    "top_k=0": ({"top_k": 0}, _rows()),
    "top_k=-1": ({"top_k": -1}, _rows()),
    "top_k=10**9": ({"top_k": 10**9}, _rows()),
    "(B, 0) block": ({}, np.empty((2, 0), dtype=np.float32)),
    "1-d block": ({}, np.zeros(16, dtype=np.float32)),
    "nan": ({}, _rows(np.nan)),
    "inf": ({}, _rows(np.inf)),
    "-inf": ({}, _rows(-np.inf)),
    "probes one row short": ({"probes": [(0,)]}, _rows()),
    "probe segment out of range": ({"probes": [(0,), (7,)]}, _rows()),
    "negative probe segment": ({"probes": [(0,), (-1,)]}, _rows()),
}
#: The ones only the server can judge; the shard never sees them.
REFUSED_BEFORE_ADMISSION = {"top_k=10**9", "1-d block", "nan", "inf", "-inf"}


def recv_frames(sock: socket.socket, count: int) -> list:
    """The next ``count`` frames off ``sock``; stops early at EOF."""
    reader, got = FrameReader(), []
    while len(got) < count:
        data = sock.recv(1 << 16)
        if not data:
            break
        got.extend(reader.feed(data))
    return got


def assert_serving_and_idle(server, *, abandoned: int) -> None:
    """A fresh connection is served and nothing leaked: no queued
    request, every admission slot free, no surprise abandonment."""
    with connect(server) as sock:
        sock.sendall(live_search_frame())
        ((msg_type, _, arrays),) = recv_frames(sock, 1)
    assert msg_type == MsgType.RESULT
    assert arrays[0].shape == (2, 3)
    assert server._queued == 0
    assert server._admission._value == server.options.max_in_flight
    assert server.searches_abandoned == abandoned
    assert server._thread.is_alive()


class TestLiveServer:
    """Whatever bytes arrive, the server answers or hangs up -- it never
    dies, and it never leaks a connection's admission slot."""

    def test_trickled_search_is_answered(self, server):
        with connect(server) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in live_search_frame():
                sock.send(bytes([byte]))
            ((msg_type, header, arrays),) = recv_frames(sock, 1)
        assert msg_type == MsgType.RESULT
        assert unpack(msg_type, header).index == INDEX_NAME
        assert arrays[0].shape == arrays[1].shape == (2, 3)
        assert_serving_and_idle(server, abandoned=0)

    def test_two_frames_in_one_segment_are_answered_in_order(self, server):
        with connect(server) as sock:
            sock.sendall(
                live_search_frame(rows=1)
                + frame_to_bytes(MsgType.PING)
                + live_search_frame(rows=4)
            )
            replies = recv_frames(sock, 3)
        assert [reply[0] for reply in replies] == [
            MsgType.RESULT,
            MsgType.OK,
            MsgType.RESULT,
        ]
        assert replies[0][2][0].shape == (1, 3)
        assert unpack(MsgType.OK, replies[1][1]).shard_id == 0
        assert replies[2][2][0].shape == (4, 3)
        assert_serving_and_idle(server, abandoned=0)

    @pytest.mark.parametrize("name", [*MALFORMED, *TRUNCATED])
    def test_malformed_stream_gets_an_error_frame_and_a_hangup(
        self, server, name, caplog
    ):
        data, message = {**MALFORMED, **TRUNCATED}[name]
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            with connect(server) as sock:
                if name in MALFORMED:
                    # Behind a good request, in the same segment: the
                    # request is answered first, then the server hangs up.
                    sock.sendall(live_search_frame() + data)
                    replies = recv_frames(sock, 3)
                else:
                    # EOF mid-request is a hang-up, so let the good
                    # request finish before cutting the next one short.
                    sock.sendall(live_search_frame())
                    replies = recv_frames(sock, 1)
                    sock.sendall(data)
                    sock.shutdown(socket.SHUT_WR)
                    replies += recv_frames(sock, 2)
            assert_serving_and_idle(server, abandoned=0)
        assert [reply[0] for reply in replies] == [MsgType.RESULT, MsgType.ERROR]
        error = unpack(MsgType.ERROR, replies[1][1])
        assert error.error_type == "ProtocolError"
        assert re.search(message, error.message)
        assert caplog.records == []  # no traceback in the server thread

    def test_random_blobs_never_kill_the_server(self, server, caplog):
        rng = np.random.default_rng(17)
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            for _ in range(40):
                blob = rng.integers(
                    0, 256, size=int(rng.integers(1, 200)), dtype=np.uint8
                ).tobytes()
                with connect(server) as sock:
                    sock.sendall(blob)
                    sock.shutdown(socket.SHUT_WR)
                    replies = recv_frames(sock, 2)
                assert [reply[0] for reply in replies] == [MsgType.ERROR]
            assert_serving_and_idle(server, abandoned=0)
        assert caplog.records == []

    @pytest.mark.parametrize("name", sorted(HOSTILE_CALLS))
    def test_a_hostile_call_in_a_valid_frame_is_a_value_error(
        self, server, name, caplog, recwarn
    ):
        """A well-framed, well-typed SEARCH whose *values* are hostile is
        refused with a ``ValueError`` frame -- before admission for what
        only the server can judge (a reply that could not fit a frame,
        non-finite rows), by the shard for the rest -- and the same
        connection keeps serving."""
        fields, queries = HOSTILE_CALLS[name]
        hostile = frame_to_bytes(
            MsgType.SEARCH,
            pack(
                MsgType.SEARCH,
                **{"index": INDEX_NAME, "top_k": 3, "ef": None, **fields},
            ),
            (queries,),
        )
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            with connect(server) as sock:
                sock.sendall(hostile + live_search_frame())
                replies = recv_frames(sock, 2)
            assert_serving_and_idle(server, abandoned=0)
        assert [reply[0] for reply in replies] == [MsgType.ERROR, MsgType.RESULT]
        error = unpack(MsgType.ERROR, replies[0][1])
        assert error.error_type == "ValueError", error.message
        # The two good requests, plus the hostile one only where the
        # shard (not the server, before admission) was the judge.
        assert server.node.requests_served == (
            2 if name in REFUSED_BEFORE_ADMISSION else 3
        )
        assert caplog.records == [] and len(recwarn) == 0

    def test_an_empty_query_block_is_answered_empty(self, server):
        empty = frame_to_bytes(
            MsgType.SEARCH,
            pack(MsgType.SEARCH, index=INDEX_NAME, top_k=3, ef=None),
            (np.empty((0, 16), dtype=np.float32),),
        )
        with connect(server) as sock:
            sock.sendall(empty)
            ((msg_type, _, arrays),) = recv_frames(sock, 1)
        assert msg_type == MsgType.RESULT
        assert arrays[0].shape == arrays[1].shape == (0, 3)
        assert_serving_and_idle(server, abandoned=0)

    @pytest.mark.parametrize(
        "server", [{"slow_every": 1, "slow_delay_s": 0.3}], indirect=True
    )
    def test_hangup_mid_search_abandons_it_and_frees_the_slot(self, server):
        with connect(server) as sock:
            sock.sendall(live_search_frame())
            wait_until(lambda: server.searches_seen == 1)
            assert server._admission._value == server.options.max_in_flight - 1
        wait_until(lambda: server.searches_abandoned == 1)
        assert server.abandoned_errors == 0
        assert_serving_and_idle(server, abandoned=1)


@contextlib.contextmanager
def hostile_searcher(reply: bytes):
    """A fake searcher on loopback: the first SEARCH it reads is answered
    with ``reply`` and a hang-up, every later one with a proper RESULT."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    replies, stop = [reply], threading.Event()

    def serve() -> None:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                ((_, header, (queries,)),) = recv_frames(conn, 1)
                shape = (len(queries), unpack(MsgType.SEARCH, header).top_k)
                conn.sendall(
                    replies.pop()
                    if replies
                    else frame_to_bytes(
                        MsgType.RESULT,
                        pack(MsgType.RESULT, index=INDEX_NAME),
                        (np.zeros(shape, np.int64), np.zeros(shape)),
                    )
                )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}"
    finally:
        stop.set()
        thread.join(timeout=10)
        listener.close()


class TestHostileReplies:
    """The client's side of the same tables: a searcher answering a
    SEARCH with a stream no reader may decode costs the caller one
    ``ProtocolError`` within its deadline and one discarded connection --
    never a hang, never a numpy / struct traceback -- and its next call
    is served."""

    @pytest.mark.parametrize("name", [*MALFORMED, *TRUNCATED])
    def test_one_error_and_one_discarded_connection(self, name):
        data, message = {**MALFORMED, **TRUNCATED}[name]
        rows = make_clustered(2, 16, seed=53)
        with hostile_searcher(data) as address:
            client = RemoteSearcherClient(address, retries=0)
            try:
                began = time.monotonic()
                with pytest.raises(ProtocolError, match=message):
                    client.search(ShardCall(INDEX_NAME, rows, 3, deadline=began + 5))
                assert time.monotonic() - began < 5
                assert (client.connects, client.open_connections) == (1, 0)
                reply = client.search(
                    ShardCall(INDEX_NAME, rows, 3, deadline=time.monotonic() + 5)
                )
                assert reply.ids.shape == reply.dists.shape == (2, 3)
            finally:
                client.close()


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
