"""Length-prefixed binary wire protocol for broker <-> searcher RPCs.

One frame per message::

    +-------+---------+----------+------------+-------------+
    | magic | version | msg_type | header_len | payload_len |
    | 2B    | 1B      | 1B       | u32 BE     | u64 BE      |
    +-------+---------+----------+------------+-------------+
    | header: JSON (UTF-8), header_len bytes                |
    +-------------------------------------------------------+
    | payload: raw array buffers, concatenated              |
    +-------------------------------------------------------+

The JSON header carries the request metadata (index name, ``top_k``,
``ef``, ...) plus an ``arrays`` list of ``{"dtype", "shape"}`` entries
describing the payload layout.  Which fields each message type carries
is declared once, in :data:`FRAME_FIELDS`; :func:`pack` and
:func:`unpack` build and read every header through that table.  Array
payloads are the raw C-contiguous bytes of ``float32`` / ``float64`` /
``int64`` numpy buffers: encoding hands out :class:`memoryview` s of the
arrays (no serialization pass) and decoding reconstructs them with
``np.frombuffer`` over slices of the received buffer (no copy).

Sockets: this module does no IO.  A sender joins :func:`encode_frame`'s
buffer list for **one** write -- one frame, one ``sendall`` or ``send``
(only a frame larger than the socket's buffer takes a client more) --
and a receiver feeds whatever ``recv`` hands it to a
:class:`FrameReader`, the only caller of :func:`parse_prefix` / :func:`decode_body` on a socket path.
The reader's contract: a prefix is validated as soon as its
:data:`PREFIX_SIZE` bytes exist, i.e. before any of an oversized or
garbled frame's payload is buffered; a frame lying whole in one chunk
(the common case: a request is one segment) is decoded from the chunk
itself, and only a frame that straddles chunks is assembled, once; at
end of stream :meth:`FrameReader.eof_error` says whether the peer hung
up cleanly between frames (:class:`~repro.errors.ConnectionLostError`)
or inside one (:class:`~repro.errors.ProtocolError`).

Robustness contract, pinned by ``tests/test_net_protocol.py``: any
truncated, oversized, wrong-magic, wrong-version or otherwise garbled
frame raises :class:`~repro.errors.ProtocolError` -- never a hang, a
numpy error, or a silent wrong answer -- and so does a well-framed
header with a missing or ill-typed field.  Server-side failures travel back
as *structured error frames* (:data:`MsgType.ERROR`) carrying the
exception type and message, surfaced to callers as
:class:`~repro.errors.RemoteCallError`.
"""

from __future__ import annotations

import abc
import json
import struct
from dataclasses import dataclass
from enum import IntEnum
from types import SimpleNamespace

import numpy as np

from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    RemoteCallError,
    TransportError,
)

#: Bump on any frame-layout or semantics change.  Version 2 adds
#: the optional ``trace`` context to SEARCH headers and the optional
#: ``cost`` / ``trace`` entries to RESULT headers.  Version 3
#: adds the optional ``deadline_ms`` remaining-budget hint to SEARCH
#: headers and the optional ``retry_after_s`` backoff hint to ERROR
#: headers -- pure header additions, so decoding still accepts older
#: frames (and older peers, which ignore unknown header keys, keep
#: interoperating).
PROTOCOL_VERSION = 3

#: Frame versions this peer decodes.
SUPPORTED_VERSIONS = (1, 2, 3)

MAGIC = b"LN"

#: Hard ceiling on one frame (prefix + header + payload): 1 GiB.
DEFAULT_MAX_FRAME = 1 << 30

#: Ceiling on the JSON header alone (it is metadata, not data).
MAX_HEADER_BYTES = 1 << 20

#: Ceiling on arrays per frame (requests carry 1, results carry 2-3).
MAX_ARRAYS = 16

_PREFIX = struct.Struct(">2sBBIQ")
PREFIX_SIZE = _PREFIX.size

#: dtypes allowed on the wire: queries, distances, ids.
_WIRE_DTYPES = ("<f4", "<f8", "<i8")


class MsgType(IntEnum):
    """Message type byte.  Requests are < 16, responses >= 16."""

    SEARCH = 1
    DEPLOY = 2
    UNDEPLOY = 3
    STATS = 4
    PING = 5
    RESULT = 16
    OK = 17
    ERROR = 18


#: The JSON-header schema, per message type and protocol version:
#: ``{msg_name: {version: (field, ...)}}``.  This table *executes*:
#: :func:`pack` builds and :func:`unpack` reads every header from it, so
#: it is the only place a header field is named.  A trailing ``?`` marks
#: a field the sender may omit (it unpacks as ``None``); unmarked fields
#: are always present.  The protocol evolves additively: each version's
#: tuple must be a *prefix* of the next one -- new fields append,
#: optional, and no required field reorders or disappears -- so a v1
#: peer can always decode the required core of a v3 frame.
#:
#: ``OK`` is a union: it answers DEPLOY/UNDEPLOY (``hosted``), STATS
#: (``stats``) and PING (``shard_id``), so all of its fields are
#: per-request optional.
FRAME_FIELDS = {
    "SEARCH": {
        1: ("index", "top_k", "ef"),
        2: ("index", "top_k", "ef", "trace?", "cost?"),
        3: ("index", "top_k", "ef", "trace?", "cost?", "deadline_ms?"),
    },
    "DEPLOY": {1: ("index", "path", "root?")},
    "UNDEPLOY": {1: ("index",)},
    "STATS": {1: ()},
    "PING": {1: ()},
    "RESULT": {
        1: ("index",),
        2: ("index", "cost?", "trace?"),
    },
    "OK": {1: ("hosted?", "stats?", "shard_id?")},
    "ERROR": {
        1: ("error_type", "message"),
        3: ("error_type", "message", "retry_after_s?"),
    },
}

#: Which response type answers each request type.
REPLY_TYPE = {
    MsgType.SEARCH: MsgType.RESULT,
    MsgType.DEPLOY: MsgType.OK,
    MsgType.UNDEPLOY: MsgType.OK,
    MsgType.STATS: MsgType.OK,
    MsgType.PING: MsgType.OK,
}

#: Value conversion per field name, applied on both sides of the wire: a
#: value the converter rejects (``TypeError`` / ``ValueError``) is an
#: ill-typed field.  Fields without an entry are opaque JSON (``trace``
#: and ``cost`` mean different things in SEARCH and RESULT).
_FIELD_TYPES = {
    "index": str,
    "top_k": int,
    "ef": lambda value: None if value is None else int(value),
    "deadline_ms": float,
    "path": str,
    "root": str,
    "hosted": list,
    "stats": dict,
    "shard_id": int,
    "error_type": str,
    "message": str,
    "retry_after_s": float,
}


def _schema(versions: dict[int, tuple[str, ...]]) -> dict[str, bool]:
    """``{name: required}``, in table order, for one message's versions.

    Names come from the newest version; a field is required only when
    the *base* version already required it -- anything appended later is
    absent from older peers' frames whatever its marker says.
    """
    required = {f for f in versions[min(versions)] if not f.endswith("?")}
    return {
        field.rstrip("?"): field in required
        for field in versions[max(versions)]
    }


_SCHEMA = {
    MsgType[name]: _schema(versions) for name, versions in FRAME_FIELDS.items()
}


def _field(msg_type: MsgType, name: str, required: bool, source):
    """One declared field out of ``source`` -- :func:`pack`'s keyword
    arguments or a decoded header -- converted; ``None`` when an
    optional field is absent (or null)."""
    if name not in source:
        if required:
            raise ProtocolError(
                f"{msg_type.name} header is missing required field {name!r}"
            )
        return None
    value = source[name]
    convert = _FIELD_TYPES.get(name)
    if convert is None or (value is None and not required):
        return value
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            f"{msg_type.name} header field {name!r} is ill-typed: "
            f"{value!r} ({exc})"
        ) from None


def pack(msg_type: MsgType, **fields) -> dict:
    """The header of one ``msg_type`` message, keys in table order.

    Every required field must be named (``ef=None`` ships as ``null``),
    optional fields that are absent or ``None`` are omitted -- older
    peers ignore unknown keys and newer ones read absence as ``None``,
    so the extras are wire-compatible both ways -- and a name the table
    does not declare for ``msg_type`` is rejected.
    """
    schema = _SCHEMA[msg_type]
    undeclared = fields.keys() - schema.keys()
    if undeclared:
        raise ProtocolError(
            f"{msg_type.name} header declares no field {sorted(undeclared)}"
        )
    header = {}
    for name, required in schema.items():
        value = _field(msg_type, name, required, fields)
        if required or value is not None:
            header[name] = value
    return header


def unpack(msg_type: MsgType, header: dict) -> SimpleNamespace:
    """Read a decoded header as one ``msg_type`` message.

    Every declared field is an attribute of the result (absent optionals
    are ``None``); keys the table does not declare are ignored, which is
    what lets a newer peer's extras through.  A missing or ill-typed
    required field raises :class:`ProtocolError` naming message and
    field.
    """
    return SimpleNamespace(
        **{
            name: _field(msg_type, name, required, header)
            for name, required in _SCHEMA[msg_type].items()
        }
    )


# -- the shard call, as a value ------------------------------------------------------
@dataclass(frozen=True)
class ShardCall:
    """One SEARCH message: the whole of what a searcher is asked.

    The fields are the newest ``FRAME_FIELDS["SEARCH"]`` entry under its
    own names, plus the payload (``queries``, the ``(B, dim)`` block):
    ``top_k`` is the perShardTopK budget, ``trace`` the broker's trace
    context (the shard then reports its span tree), ``cost`` asks for
    search-cost counters.
    The one exception: ``deadline`` is an absolute ``time.monotonic()``
    instant on *this* host and becomes the table's ``deadline_ms`` --
    remaining budget, because monotonic clocks do not compare across
    hosts -- only where the client packs the frame; the server pins it
    back to its own clock.

    Immutable because it is shared: every shard of an unpruned fan-out,
    a hedge and a failover get the same object.  Results are
    bit-identical whatever ``trace`` / ``cost`` say.
    """

    index: str
    queries: np.ndarray
    top_k: int
    ef: int | None = None
    trace: dict | None = None
    cost: bool | None = None
    deadline: float | None = None


@dataclass(frozen=True)
class ShardReply:
    """One RESULT message: the ``(B, top_k)`` id / distance blocks
    (``-1`` / ``inf`` past a short row) plus the newest
    ``FRAME_FIELDS["RESULT"]`` entry's optional fields -- ``cost`` (the
    counters dict) and ``trace`` (the searcher's span tree), each present
    only when the call asked for it."""

    ids: np.ndarray
    dists: np.ndarray
    cost: dict | None = None
    trace: list | None = None


class SearcherTransport(abc.ABC):
    """What the broker and the service need from a shard, wherever it
    runs: ``LocalSearcherTransport`` in process, ``RemoteSearcherClient``
    over TCP (see :mod:`repro.net.transport`)."""

    #: The fleet position this transport serves.
    shard_id: int | None
    #: Whether the shard sits behind a socket (its RPC may wait, fail
    #: over or be hedged) rather than in this process.
    remote = False

    @abc.abstractmethod
    def start_search(self, call: ShardCall):
        """Start the lockstep shard search of ``call.queries``; the
        returned RPC has ``done``, ``error``, ``wake_at`` and
        ``result()`` for the fan-out's poll."""

    @abc.abstractmethod
    def verify(self) -> None:
        """Check the transport reaches the shard it claims to serve."""

    @abc.abstractmethod
    def deploy(self, index_name: str, index_path: str, *, root: str) -> None:
        """Host shard ``shard_id`` of the index exported at ``index_path``."""

    @abc.abstractmethod
    def undeploy(self, index_name: str) -> None:
        """Stop hosting ``index_name``."""

    @abc.abstractmethod
    def stats(self) -> dict:
        """The underlying searcher's identity and ``counts`` (in process
        ``SearcherNode.stats``, remotely its STATS reply)."""

    def close(self) -> None:
        """Release transport resources (no-op for in-process shards)."""


# -- encoding ------------------------------------------------------------------------
def encode_frame(
    msg_type: int,
    header: dict | None = None,
    arrays: tuple | list = (),
    *,
    version: int = PROTOCOL_VERSION,
) -> list:
    """Build one frame as a list of buffers (prefix, header, raw arrays).

    The array entries are :class:`memoryview` s over the (C-contiguous)
    inputs, so building the frame copies nothing; both ends join the
    list into one ``bytes`` for one write (one copy).
    ``version`` lets tests (and a peer pinned to an older dialect) emit
    any :data:`SUPPORTED_VERSIONS` frame.
    """
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"cannot encode protocol version {version} "
            f"(supported: {SUPPORTED_VERSIONS})"
        )
    header = dict(header) if header else {}
    metas = []
    buffers = []
    for array in arrays:
        array = np.ascontiguousarray(array)
        dtype = array.dtype.newbyteorder("<").str
        if dtype not in _WIRE_DTYPES:
            raise ProtocolError(
                f"dtype {array.dtype.str!r} is not a wire dtype "
                f"(allowed: {_WIRE_DTYPES})"
            )
        if array.dtype.str != dtype:  # big-endian host data: make it LE
            array = array.astype(dtype)
        metas.append({"dtype": dtype, "shape": list(array.shape)})
        # memoryview.cast rejects zero-sized shapes; an empty buffer
        # carries the same (zero) bytes.
        buffers.append(
            memoryview(array).cast("B") if array.size else b""
        )
    header["arrays"] = metas
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"header of {len(header_bytes)} bytes exceeds "
            f"{MAX_HEADER_BYTES}"
        )
    payload_len = sum(len(buffer) for buffer in buffers)
    prefix = _PREFIX.pack(
        MAGIC, version, int(msg_type), len(header_bytes), payload_len
    )
    return [prefix, header_bytes, *buffers]


def frame_to_bytes(
    msg_type: int, header: dict | None = None, arrays: tuple | list = ()
) -> bytes:
    """One contiguous frame (tests / tiny control messages)."""
    return b"".join(bytes(part) for part in encode_frame(msg_type, header, arrays))


def error_frame(exc: BaseException) -> list:
    """A structured error response for a server-side exception.

    An :class:`~repro.errors.OverloadedError` (or anything else carrying
    a ``retry_after_s`` attribute) ships its backoff hint so the peer can
    wait before re-offering the work instead of hammering the searcher.
    """
    return encode_frame(
        MsgType.ERROR,
        pack(
            MsgType.ERROR,
            error_type=type(exc).__name__,
            message=str(exc),
            retry_after_s=getattr(exc, "retry_after_s", None),
        ),
    )


# -- decoding ------------------------------------------------------------------------
def parse_prefix(
    prefix: bytes, *, max_frame: int = DEFAULT_MAX_FRAME
) -> tuple[int, int, int]:
    """Validate a frame prefix; returns ``(msg_type, header_len, payload_len)``."""
    if len(prefix) < PREFIX_SIZE:
        raise ProtocolError(
            f"truncated frame prefix: {len(prefix)} of {PREFIX_SIZE} bytes"
        )
    magic, version, msg_type, header_len, payload_len = _PREFIX.unpack_from(
        prefix
    )
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(speaking {SUPPORTED_VERSIONS})"
        )
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"header length {header_len} exceeds {MAX_HEADER_BYTES}"
        )
    if PREFIX_SIZE + header_len + payload_len > max_frame:
        raise ProtocolError(
            f"frame of {PREFIX_SIZE + header_len + payload_len} bytes "
            f"exceeds the {max_frame}-byte limit"
        )
    try:
        msg_type = MsgType(msg_type)
    except ValueError:
        raise ProtocolError(f"unknown message type {msg_type}") from None
    return msg_type, header_len, payload_len


def decode_body(header_bytes, payload) -> tuple[dict, list[np.ndarray]]:
    """Parse the header JSON and reconstruct the payload arrays (zero-copy).

    ``payload`` may be ``bytes``, ``bytearray`` or ``memoryview``; the
    returned arrays alias it via ``np.frombuffer``.
    """
    try:
        header = json.loads(bytes(header_bytes).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unparseable frame header: {exc}") from None
    if not isinstance(header, dict):
        raise ProtocolError("frame header is not a JSON object")
    metas = header.pop("arrays", [])
    if not isinstance(metas, list) or len(metas) > MAX_ARRAYS:
        raise ProtocolError("invalid 'arrays' header entry")
    payload = memoryview(payload)
    arrays: list[np.ndarray] = []
    offset = 0
    for meta in metas:
        if not isinstance(meta, dict):
            raise ProtocolError("array metadata is not an object")
        dtype = meta.get("dtype")
        shape = meta.get("shape")
        if dtype not in _WIRE_DTYPES:
            raise ProtocolError(f"dtype {dtype!r} is not a wire dtype")
        if not isinstance(shape, list) or not all(
            isinstance(dim, int) and dim >= 0 for dim in shape
        ):
            raise ProtocolError(f"invalid array shape {shape!r}")
        count = 1
        for dim in shape:
            count *= dim
        nbytes = count * np.dtype(dtype).itemsize
        if offset + nbytes > len(payload):
            raise ProtocolError(
                f"array payload overruns the frame: needs {nbytes} bytes "
                f"at offset {offset}, payload has {len(payload)}"
            )
        array = np.frombuffer(
            payload[offset : offset + nbytes], dtype=dtype
        ).reshape(shape)
        arrays.append(array)
        offset += nbytes
    if offset != len(payload):
        raise ProtocolError(
            f"{len(payload) - offset} trailing payload bytes not described "
            "by the header"
        )
    return header, arrays


def decode_frame(
    data, *, max_frame: int = DEFAULT_MAX_FRAME
) -> tuple[MsgType, dict, list[np.ndarray]]:
    """Decode one complete frame from a contiguous buffer."""
    data = memoryview(data)
    msg_type, header_len, payload_len = parse_prefix(
        bytes(data[:PREFIX_SIZE]), max_frame=max_frame
    )
    expected = PREFIX_SIZE + header_len + payload_len
    if len(data) < expected:
        raise ProtocolError(
            f"truncated frame: {len(data)} of {expected} bytes"
        )
    if len(data) > expected:
        raise ProtocolError(
            f"{len(data) - expected} trailing bytes after the frame"
        )
    header, arrays = decode_body(
        data[PREFIX_SIZE : PREFIX_SIZE + header_len],
        data[PREFIX_SIZE + header_len : expected],
    )
    return msg_type, header, arrays


def raise_if_error(msg_type: MsgType, header: dict) -> None:
    """Re-raise a peer's structured error frame as a typed exception.

    Transport-level refusals keep their identity across the wire so the
    broker's retry/failover policy can see them: an ``OverloadedError``
    frame (admission shed, carries ``retry_after_s``) and a
    ``DeadlineExceededError`` frame (server-side expiry rejection) come
    back as those exception types; everything else -- the searcher
    *executed* and failed -- surfaces as :class:`RemoteCallError`.
    """
    if msg_type != MsgType.ERROR:
        return
    error = unpack(MsgType.ERROR, header)
    if error.error_type == "OverloadedError":
        raise OverloadedError(
            error.message, retry_after_s=error.retry_after_s
        )
    if error.error_type == "DeadlineExceededError":
        raise DeadlineExceededError(error.message)
    raise RemoteCallError(error.error_type, error.message)


# -- sans-IO stream reader --------------------------------------------------------------
class FrameReader:
    """Cut a byte stream into frames (contract: the module docstring).

    ``for frame in reader.feed(chunk)`` iterates the ``(msg_type,
    header, arrays)`` frames ``chunk`` completes; the generator is lazy,
    a ``feed`` that is not iterated buffers nothing.  After a
    :class:`ProtocolError` the stream offset is unknown: drop the
    connection, the reader is not reusable.
    """

    __slots__ = ("max_frame", "_buffer", "_head")

    def __init__(self, *, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame = max_frame
        #: The unconsumed tail of the stream: at most one partial frame.
        self._buffer = bytearray()
        #: That frame's parsed prefix, once ``PREFIX_SIZE`` bytes of it came.
        self._head: tuple[MsgType, int, int] | None = None

    @property
    def _need(self) -> int:
        """Buffered bytes required before anything more can be decided."""
        if self._head is None:
            return PREFIX_SIZE
        return PREFIX_SIZE + self._head[1] + self._head[2]

    def feed(self, data):
        if self._buffer:
            self._buffer += data
            if len(self._buffer) < self._need:
                return
            data = bytes(self._buffer)  # the one copy of a straddling frame
            self._buffer.clear()
        view = memoryview(data)
        start = 0
        while True:
            if self._head is None:
                if len(view) - start < PREFIX_SIZE:
                    break
                self._head = parse_prefix(
                    view[start : start + PREFIX_SIZE], max_frame=self.max_frame
                )
            msg_type, header_len, payload_len = self._head
            body = start + PREFIX_SIZE + header_len
            if len(view) < body + payload_len:
                break
            header, arrays = decode_body(
                view[start + PREFIX_SIZE : body], view[body : body + payload_len]
            )
            start, self._head = body + payload_len, None
            yield msg_type, header, arrays
        self._buffer += view[start:]

    @property
    def buffered(self) -> int:
        """Bytes fed but not yet cut into a frame."""
        return len(self._buffer)

    def eof_error(self) -> TransportError:
        """What to report when the stream ends here: a
        :class:`ConnectionLostError` between frames (a clean hang-up),
        a :class:`ProtocolError` inside one."""
        have = self.buffered
        if not have:
            return ConnectionLostError("connection closed")
        if self._head is None:
            return ProtocolError(
                f"truncated frame prefix: {have} of {PREFIX_SIZE} bytes"
            )
        return ProtocolError(
            f"connection closed mid-frame ({self._need - have} bytes short)"
        )
