"""The wire schema executes: ``FRAME_FIELDS`` drives ``pack`` / ``unpack``.

- every message in the table round-trips pack -> frame -> unpack, with
  optionals independently present / absent and unknown keys ignored;
- older dialects (v1 SEARCH / ERROR) unpack with the later fields ``None``;
- SEARCH / RESULT / ERROR header bytes are pinned to what the last
  hand-written encoders emitted;
- the table itself obeys the registry rules (one entry per ``MsgType``,
  supported versions only, base version present, additive evolution);
- a live server answers well-framed garbage with a ``ProtocolError``
  frame and keeps serving; the client rejects a reply that lacks the
  field it asked for.
"""

from __future__ import annotations

import asyncio
import copy
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.errors import OverloadedError, ProtocolError
from repro.net.client import AsyncRemoteSearcherClient, RemoteSearcherClient
from repro.net.protocol import (
    FRAME_FIELDS,
    PREFIX_SIZE,
    SUPPORTED_VERSIONS,
    _FIELD_TYPES,
    MsgType,
    ShardCall,
    decode_frame,
    encode_frame,
    error_frame,
    frame_to_bytes,
    pack,
    parse_prefix,
    unpack,
)
from repro.net.server import SearcherServer
from repro.online.searcher import SearcherNode
from tests.conftest import FAST_HNSW, make_clustered

INDEX_NAME = "schema"

ints = st.integers(-(2**40), 2**40)
floats = st.floats(allow_nan=False, allow_infinity=False)
json_dicts = st.dictionaries(st.text(max_size=8), ints, max_size=3)

#: One value strategy per field name in the table (what unpack returns
#: for it: probe rows come back as tuples).
FIELD_VALUES = {
    "index": st.text(max_size=12),
    "top_k": ints,
    "ef": st.none() | ints,
    "probes": st.lists(st.lists(ints, max_size=3).map(tuple), max_size=3),
    "trace": json_dicts,
    "cost": st.just(True) | json_dicts,
    "deadline_ms": floats,
    "path": st.text(max_size=12),
    "root": st.text(max_size=12),
    "hosted": st.lists(st.text(max_size=8), max_size=3),
    "stats": json_dicts,
    "shard_id": ints,
    "error_type": st.text(max_size=12),
    "message": st.text(max_size=24),
    "retry_after_s": floats,
}


def newest(msg_type: MsgType) -> tuple[str, ...]:
    versions = FRAME_FIELDS[msg_type.name]
    return versions[max(versions)]


@st.composite
def messages(draw):
    """``(msg_type, fields)``: required fields always drawn, each
    optional one independently present or absent."""
    msg_type = draw(st.sampled_from(list(MsgType)))
    fields = {}
    for field in newest(msg_type):
        name = field.rstrip("?")
        if not field.endswith("?") or draw(st.booleans()):
            fields[name] = draw(FIELD_VALUES[name])
    return msg_type, fields


def header_bytes(msg_type: MsgType, header: dict, arrays=()) -> bytes:
    return bytes(encode_frame(msg_type, header, arrays)[1])


class TestCodec:
    def test_every_field_has_a_value_strategy(self):
        names = {
            field.rstrip("?") for msg in MsgType for field in newest(msg)
        }
        assert names == set(FIELD_VALUES)
        assert set(_FIELD_TYPES) <= names  # no converter for a retired field

    @settings(max_examples=200, deadline=None)
    @given(messages(), st.dictionaries(st.text(min_size=1), ints, max_size=2))
    def test_round_trip(self, message, extras):
        msg_type, fields = message
        declared = [field.rstrip("?") for field in newest(msg_type)]
        header = pack(msg_type, **fields)
        assert list(header) == [name for name in declared if name in header]
        for key, value in extras.items():
            if key not in declared and key != "arrays":
                header[key] = value
        decoded_type, decoded, _ = decode_frame(
            frame_to_bytes(msg_type, header)
        )
        assert decoded_type == msg_type
        assert vars(unpack(decoded_type, decoded)) == {
            name: fields.get(name) for name in declared
        }

    def test_pack_rejects_undeclared_and_missing_fields(self):
        with pytest.raises(ProtocolError, match="SEARCH.*bogus"):
            pack(MsgType.SEARCH, index="main", top_k=1, ef=None, bogus=1)
        with pytest.raises(ProtocolError, match="SEARCH.*'ef'"):
            pack(MsgType.SEARCH, index="main", top_k=1)
        with pytest.raises(ProtocolError, match="UNDEPLOY.*path"):
            pack(MsgType.UNDEPLOY, index="main", path="/x")

    def test_unpack_names_message_and_field(self):
        with pytest.raises(ProtocolError, match="SEARCH.*missing.*'top_k'"):
            unpack(MsgType.SEARCH, {"index": "main", "ef": None})
        with pytest.raises(ProtocolError, match="SEARCH.*'top_k'.*ill-typed"):
            unpack(MsgType.SEARCH, {"index": "main", "top_k": "ten", "ef": 1})
        with pytest.raises(ProtocolError, match="SEARCH.*'top_k'.*ill-typed"):
            unpack(MsgType.SEARCH, {"index": "main", "top_k": None, "ef": 1})
        with pytest.raises(ProtocolError, match="SEARCH.*'probes'.*ill-typed"):
            unpack(
                MsgType.SEARCH,
                {"index": "main", "top_k": 1, "ef": 1, "probes": 5},
            )

    def test_v1_frames_unpack_with_later_fields_none(self):
        queries = np.zeros((2, 4), dtype=np.float32)
        v1_search = {"index": "main", "top_k": 5, "ef": 48}
        data = b"".join(
            bytes(part)
            for part in encode_frame(
                MsgType.SEARCH, v1_search, (queries,), version=1
            )
        )
        msg_type, header, _ = decode_frame(data)
        request = unpack(msg_type, header)
        assert (request.index, request.top_k, request.ef) == ("main", 5, 48)
        assert request.probes is None
        assert request.trace is None and request.cost is None
        assert request.deadline_ms is None

        v1_error = {"error_type": "KeyError", "message": "no such index"}
        data = b"".join(
            bytes(part)
            for part in encode_frame(MsgType.ERROR, v1_error, version=1)
        )
        error = unpack(*decode_frame(data)[:2])
        assert error.error_type == "KeyError"
        assert error.retry_after_s is None


class TestGoldenBytes:
    """Header bytes captured from the parent commit's hand-written
    encoders (``client._search_header``, the server's RESULT assembly,
    ``error_frame``) for fixed inputs."""

    QUERIES = np.zeros((2, 4), dtype=np.float32)
    PARTS = (np.zeros((2, 3), np.int64), np.zeros((2, 3), np.float64))
    SEARCH_TAIL = b'"arrays":[{"dtype":"<f4","shape":[2,4]}]}'
    RESULT_TAIL = (
        b'"arrays":[{"dtype":"<i8","shape":[2,3]},'
        b'{"dtype":"<f8","shape":[2,3]}]}'
    )
    SPAN = {
        "name": "decode",
        "start_ms": 0.0,
        "dur_ms": 0.5,
        "annotations": {},
        "children": [],
    }

    def test_search(self):
        plain = pack(MsgType.SEARCH, index="main", top_k=10, ef=None)
        assert header_bytes(MsgType.SEARCH, plain, (self.QUERIES,)) == (
            b'{"index":"main","top_k":10,"ef":null,' + self.SEARCH_TAIL
        )
        full = pack(
            MsgType.SEARCH,
            index="ab-test",
            top_k=np.int64(7),
            ef=48,
            probes=[(0, 2), (np.int64(1),)],
            trace={"trace_id": "t-1", "sampled": True},
            cost=True,
            deadline_ms=500.0,
        )
        assert header_bytes(MsgType.SEARCH, full, (self.QUERIES,)) == (
            b'{"index":"ab-test","top_k":7,"ef":48,"probes":[[0,2],[1]],'
            b'"trace":{"trace_id":"t-1","sampled":true},"cost":true,'
            b'"deadline_ms":500.0,' + self.SEARCH_TAIL
        )

    def test_search_as_the_client_sends_it(self):
        """The client's call site maps its arguments onto the same
        bytes: no ``cost`` key unless asked, an expired deadline ships
        as a zero budget."""
        sent = []
        client = AsyncRemoteSearcherClient("127.0.0.1:1")

        async def record(msg_type, header, arrays=(), **_):
            sent.append(header_bytes(msg_type, header, arrays))
            return MsgType.RESULT, {"index": "main"}, [
                np.zeros((2, 1), np.int64),
                np.zeros((2, 1), np.float64),
            ]

        client.call = record
        asyncio.run(client.search(ShardCall("main", self.QUERIES, 1)))
        asyncio.run(
            client.search(
                ShardCall(
                    "main", self.QUERIES, 1, ef=16, probes=[(), ()], deadline=0.0
                )
            )
        )
        assert sent == [
            b'{"index":"main","top_k":1,"ef":null,' + self.SEARCH_TAIL,
            b'{"index":"main","top_k":1,"ef":16,"probes":[[],[]],'
            b'"deadline_ms":0.0,' + self.SEARCH_TAIL,
        ]

    def test_result(self):
        cost = {"distance_comps": 12, "hops": 3}
        for fields, expected in (
            ({}, b'{"index":"main",'),
            ({"cost": cost}, b'{"index":"main","cost":{"distance_comps":12,"hops":3},'),
            (
                {"cost": cost, "trace": [self.SPAN]},
                b'{"index":"main","cost":{"distance_comps":12,"hops":3},'
                b'"trace":[{"name":"decode","start_ms":0.0,"dur_ms":0.5,'
                b'"annotations":{},"children":[]}],',
            ),
        ):
            header = pack(MsgType.RESULT, index="main", **fields)
            assert (
                header_bytes(MsgType.RESULT, header, self.PARTS)
                == expected + self.RESULT_TAIL
            )

    def test_error(self):
        for exc, expected in (
            (
                ValueError("bad k"),
                b'{"error_type":"ValueError","message":"bad k","arrays":[]}',
            ),
            (
                KeyError("index 'x' is not hosted here"),
                b'{"error_type":"KeyError","message":'
                b'"\\"index \'x\' is not hosted here\\"","arrays":[]}',
            ),
            (
                OverloadedError("at capacity", retry_after_s=0.25),
                b'{"error_type":"OverloadedError","message":"at capacity",'
                b'"retry_after_s":0.25,"arrays":[]}',
            ),
        ):
            assert bytes(error_frame(exc)[1]) == expected


def registry_problems(table: dict) -> list[str]:
    """Violations of the rules ``FRAME_FIELDS`` must obey."""
    problems = [
        f"{member.name}: no entry" for member in MsgType if member.name not in table
    ]
    for name, versions in table.items():
        unknown = sorted(set(versions) - set(SUPPORTED_VERSIONS))
        if unknown:
            problems.append(f"{name}: v{unknown} not in SUPPORTED_VERSIONS")
        if min(SUPPORTED_VERSIONS) not in versions:
            problems.append(f"{name}: no base version")
        ordered = sorted(versions)
        for older, newer in zip(ordered, ordered[1:]):
            kept = versions[newer][: len(versions[older])]
            added = versions[newer][len(versions[older]) :]
            if kept != versions[older]:
                problems.append(f"{name}: v{older} is not a prefix of v{newer}")
            if not all(field.endswith("?") for field in added):
                problems.append(f"{name}: v{newer} appends a required field")
    return problems


class TestRegistry:
    def test_table_is_consistent(self):
        assert registry_problems(FRAME_FIELDS) == []

    def test_missing_entry_flagged(self):
        table = copy.deepcopy(FRAME_FIELDS)
        del table["ERROR"]
        assert registry_problems(table) == ["ERROR: no entry"]

    def test_non_prefix_evolution_flagged(self):
        # v2 reorders v1's fields: a v1 peer would read a sheared header.
        table = copy.deepcopy(FRAME_FIELDS)
        table["SEARCH"][2] = ("top_k", "index", "ef", "probes?", "trace?")
        assert any("not a prefix" in p for p in registry_problems(table))

    def test_unknown_version_flagged(self):
        table = copy.deepcopy(FRAME_FIELDS)
        table["RESULT"][7] = table["RESULT"][2] + ("x?",)
        assert any("SUPPORTED_VERSIONS" in p for p in registry_problems(table))

    def test_appended_required_field_flagged(self):
        table = copy.deepcopy(FRAME_FIELDS)
        table["ERROR"][3] = ("error_type", "message", "retry_after_s")
        assert any("required" in p for p in registry_problems(table))


# -- against a live server ---------------------------------------------------------------


@pytest.fixture(scope="module")
def shard():
    config = LannsConfig(
        num_shards=1,
        num_segments=2,
        segmenter="rh",
        hnsw=FAST_HNSW,
        segmenter_sample_size=300,
        seed=41,
    )
    corpus = make_clustered(400, 16, seed=42)
    return build_lanns_index(corpus, config=config).shards[0]


def exchange(sock: socket.socket, msg_type: MsgType, header: dict, arrays=()):
    """One frame out, one frame back, over a bare socket."""
    sock.sendall(frame_to_bytes(msg_type, header, arrays))
    data = bytearray()
    while len(data) < PREFIX_SIZE:
        data += sock.recv(1 << 16)
    _, header_len, payload_len = parse_prefix(bytes(data[:PREFIX_SIZE]))
    while len(data) < PREFIX_SIZE + header_len + payload_len:
        data += sock.recv(1 << 16)
    return decode_frame(bytes(data))


class TestWellFramedGarbage:
    """Intact framing, nonsense header: a taxonomy error comes back and
    the connection keeps serving."""

    def test_server_answers_protocol_error_and_keeps_serving(self, shard):
        node = SearcherNode(0)
        node.host(INDEX_NAME, shard)
        # One slot, no queue: a leaked admission slot would shed the
        # next search.
        server = SearcherServer(node, max_in_flight=1).start_in_thread()
        queries = make_clustered(3, 16, seed=43)
        good = pack(MsgType.SEARCH, index=INDEX_NAME, top_k=4, ef=None)
        garbage = [
            (MsgType.SEARCH, {"index": INDEX_NAME, "ef": None}, "top_k"),
            (MsgType.SEARCH, {**good, "probes": 5}, "probes"),
            (MsgType.SEARCH, {**good, "top_k": "ten"}, "top_k"),
            (MsgType.DEPLOY, {"index": "other", "root": "/tmp"}, "path"),
        ]
        try:
            host, port = server.address.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=10) as s:
                for msg_type, header, field in garbage:
                    arrays = (queries,) if msg_type == MsgType.SEARCH else ()
                    reply_type, reply, _ = exchange(s, msg_type, header, arrays)
                    assert reply_type == MsgType.ERROR
                    error = unpack(reply_type, reply)
                    assert error.error_type == "ProtocolError"
                    assert msg_type.name in error.message
                    assert repr(field) in error.message
                    # Framing was intact, so the same connection serves
                    # the next frame.
                    reply_type, _, parts = exchange(
                        s, MsgType.SEARCH, good, (queries,)
                    )
                    assert reply_type == MsgType.RESULT
                    assert parts[0].shape == (3, 4)
                _, reply, _ = exchange(s, MsgType.STATS, {})
            stats = unpack(MsgType.OK, reply).stats
            assert stats["admission"]["searches_shed"] == 0
            assert stats["hosted_indices"] == [INDEX_NAME]
            # Only the decodable searches count.
            assert server.searches_seen == len(garbage)
        finally:
            server.stop()

    def test_ping_reply_without_shard_id_is_a_protocol_error(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def answer() -> None:
            conn, _ = listener.accept()
            with conn:
                conn.recv(1 << 16)
                conn.sendall(frame_to_bytes(MsgType.OK, {"hosted": []}))

        peer = threading.Thread(target=answer, daemon=True)
        peer.start()
        client = RemoteSearcherClient(listener.getsockname()[:2], retries=0)
        try:
            with pytest.raises(ProtocolError, match="shard id"):
                client.ping()
        finally:
            client.close()
            peer.join(5.0)
            listener.close()
        assert not peer.is_alive()
