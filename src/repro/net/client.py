"""The RPC client for one searcher: a pool of non-blocking sockets.

:class:`RemoteSearcherClient` is the only implementation of the client
side of the wire.  Every RPC is an :class:`Rpc`: started on the calling
thread (its frame written at once when the socket takes it) and finished
by whoever polls its socket -- :func:`poll` for the client's own blocking
calls, and the same function for the broker's fan-out, which waits on
every shard RPC of a batch at once (:mod:`repro.online.fanout`).  No
socket call ever parks the thread: a connect, a send the socket's buffer
cannot take whole and a reply are all waited for by the poll, so one
unreachable or stalled searcher holds up nobody else's RPC, hedge or
timer.  Reliability is layered as:

- **connection pool** -- a small, thread-safe stack of idle sockets per
  searcher, each with its sans-IO
  :class:`~repro.net.protocol.FrameReader`, so concurrent batches don't
  serialize on one connection and repeated requests skip the TCP
  handshake;
- **timeouts** -- a dial runs under ``connect_timeout_s``, then the
  attempt's send and reply under one cumulative budget, ``timeout_s``;
  the per-call deadline caps both.  The poll never sleeps past either,
  so a dropped SYN, or a peer that stops reading or trickles bytes,
  cannot stretch an attempt: :class:`~repro.errors.DeadlineExceededError`
  when the budget expires;
- **bounded retries with backoff** -- connectivity failures (refused,
  reset, EOF, garbled frames, a connect that timed out before the
  deadline) retry idempotent calls up to ``retries`` times, reconnecting
  with exponential backoff plus *full jitter* (uniform in ``[0,
  delay]``, seeded per client) so the retries of many brokers hitting
  one recovering searcher spread out instead of arriving in synchronized
  waves.  The pause is a timer of the poll, not a sleep.  Timeouts and
  server-side :class:`~repro.errors.RemoteCallError` s never retry: the
  former would double tail latency, the latter would repeat a bug.

A dead, timed-out or abandoned connection is always discarded, never
returned to the pool: its reply may still be in the pipe, and would
poison whatever request checked the connection out next.  No lock is
held across a socket call.  Name resolution (``getaddrinfo``, once per
dial) is the one step that may block; a numeric address needs no
lookup.
"""

from __future__ import annotations

import errno
import math
import os
import random
import select
import socket
import sys
import threading
import time
import weakref
import zlib
from functools import partial

import numpy as np

from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    ProtocolError,
    TransportError,
)
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    REPLY_TYPE,
    FrameReader,
    MsgType,
    SearcherTransport,
    ShardCall,
    ShardReply,
    encode_frame,
    pack,
    raise_if_error,
    unpack,
)
from repro.obs.metrics import Tally, get_registry

#: What a client counts, by :class:`~repro.obs.metrics.Tally` name.
_COUNTERS = get_registry().counters(
    "lanns_client",
    queries_served="Query rows searchers answered a client.",
    requests_sent="RPC attempts a client sent, retries included.",
    connects="Connections a client opened.",
    closes="Connections a client closed.",
    retried="RPC retries a client made after a connectivity failure.",
)
#: Every live client, so that a forked child can drop what it inherited.
_CLIENTS: weakref.WeakSet = weakref.WeakSet()
#: Bytes asked of one ``recv``: a reply of a few hundred query rows.
_RECV_BYTES = 1 << 16
#: Ceiling of the reconnect backoff, in seconds (see ``backoff_s``).
_BACKOFF_MAX_S = 1.0


def parse_address(address: str | tuple) -> tuple[str, int]:
    """``"host:port"`` (or an ``(host, port)`` pair) -> ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, _, port = str(address).strip().rpartition(":")
    if not host or not port:
        raise ValueError(
            f"searcher address {address!r} is not of the form host:port"
        )
    return host, int(port)


def refuse_in_running_loop(name: str) -> None:
    """Raise ``RuntimeError`` when the calling thread runs an event loop.

    Every blocking entry point -- a client call, a remote fan-out --
    asks before it sends anything: blocking the thread would stall every
    task of that loop.  A process that never imported asyncio runs no
    loop, so the client does not import it (with it, ssl: ~2.4-3 MiB of
    resident memory in every broker and searcher process).
    """
    asyncio = sys.modules.get("asyncio")
    if asyncio is None:
        return
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return
    raise RuntimeError(
        f"blocking on {name}() from a running event loop would stall it; "
        "call it from a plain thread (asyncio.to_thread)"
    )


class _Connection:
    """One socket and the reader that cuts its replies.

    A pooled connection is ``connected``; a fresh one is connecting
    until its socket polls writable (:meth:`Rpc._connect`).
    """

    __slots__ = ("sock", "reader", "connected")

    def __init__(self, sock: socket.socket, max_frame: int) -> None:
        self.sock = sock
        self.reader = FrameReader(max_frame=max_frame)
        self.connected = False


class Rpc:
    """One RPC of a client, from its first send to its decoded reply.

    A poller registers :attr:`sock` (``None`` while a retry waits out
    its backoff) for :attr:`events`, wakes the RPC by :attr:`wake_at` (a
    ``time.monotonic`` instant: the connect's or the attempt's budget,
    or the end of the backoff) and calls :meth:`step`.  Once
    :attr:`done`, :meth:`result` returns the decoded reply or raises the
    :class:`~repro.errors.TransportError` it ended with.  :meth:`cancel`
    abandons it -- a hedge race's loser, a torn-down fan-out --
    discarding its socket.
    """

    __slots__ = (
        "client", "frame", "deadline", "decode", "tries_left", "delay",
        "last", "addrs", "conn", "out", "budget", "wake_at", "done",
        "value", "error",
    )

    def __init__(
        self,
        client: RemoteSearcherClient,
        frame: bytes,
        deadline: float | None,
        idempotent: bool,
        decode,
    ) -> None:
        self.client = client
        self.frame = frame
        self.deadline = deadline
        self.decode = decode
        self.tries_left = client.retries if idempotent else 0
        self.delay = client.backoff_s
        self.last: TransportError | None = None
        #: The addresses a dial in progress has yet to try.
        self.addrs: list = []
        self.conn: _Connection | None = None
        #: The part of ``frame`` the socket has yet to take.
        self.out = memoryview(b"")
        self.budget = 0.0
        self.wake_at = math.inf
        self.done = False
        self.value = None
        self.error: TransportError | None = None
        self._send()

    @property
    def sock(self) -> socket.socket | None:
        return None if self.conn is None else self.conn.sock

    @property
    def events(self) -> int:
        """What :attr:`sock` is polled for: writable while it connects
        or the frame is being sent, then readable."""
        if self.conn.connected and not self.out:
            return select.POLLIN
        return select.POLLOUT

    def rpcs(self) -> tuple[Rpc]:
        """What :func:`poll` waits on for this RPC alone: itself."""
        return (self,)

    def result(self):
        if self.error is not None:
            raise self.error
        return self.value

    def step(self, now: float, ready: set) -> None:
        """Move on if the socket is ``ready``; fire a due timer."""
        if self.done:
            return
        if self in ready:
            if not self.conn.connected:
                self._connect()
            elif self.out:
                self._write()
            else:
                self._read()
            if self.done:
                return
        if now >= self.wake_at:
            if self.conn is None:
                self._send()  # the backoff is over
            elif not self.conn.connected:
                message = (
                    f"connect to {self.client.address} timed out after "
                    f"{self.budget:.3f}s"
                )
                # A blown *caller* deadline must not retry; a plain
                # connect timeout (SYN dropped: firewall, host
                # mid-reboot) is a connectivity failure like
                # refused/reset and gets the same bounded retries.
                if self.deadline is not None and now >= self.deadline:
                    self._lost(DeadlineExceededError(message))
                else:
                    self._lost(ConnectionLostError(message))
            else:
                self._lost(
                    DeadlineExceededError(
                        f"searcher {self.client.address} did not answer "
                        f"within {self.budget:.3f}s"
                    )
                )

    def cancel(self) -> None:
        """Abandon the RPC; its socket, reply possibly in flight, is closed."""
        if self.conn is not None:
            self.client._discard(self.conn)
            self.conn = None
        self.done = True

    # -- one attempt ---------------------------------------------------------------------
    def _send(self) -> None:
        """Start an attempt: on a pooled socket, or on a fresh dial."""
        client = self.client
        client.tally.count("requests_sent")
        now = time.monotonic()
        remaining = math.inf if self.deadline is None else self.deadline - now
        if remaining <= 0:
            return self._fail(
                DeadlineExceededError("request deadline already expired")
            )
        try:
            conn = client._checkout()
            if conn is None:
                self.addrs = client._resolve()
                conn = client._dial(self.addrs)
        except TransportError as exc:
            return self._fail(exc)
        self.conn = conn
        if conn.connected:
            return self._transmit()
        self.budget = min(client.connect_timeout_s, remaining)
        self.wake_at = now + self.budget
        # A loopback or LAN connect has usually finished by now: send
        # before the caller starts its next RPC, not a poll later.
        if _writable(conn.sock):
            self._connect()

    def _connect(self) -> None:
        """The dialing socket polled ready: connected, or refused."""
        conn = self.conn
        err = conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if not err:
            conn.connected = True
            self.client.tally.count("connects")
            return self._transmit()
        conn.sock.close()
        try:
            self.conn = self.client._dial(
                self.addrs, OSError(err, os.strerror(err))
            )
        except TransportError as exc:
            self.conn = None
            self._fail(exc)

    def _transmit(self) -> None:
        """Start the attempt's budget on a connected socket and send."""
        budget = self.client.timeout_s
        if self.deadline is not None:
            budget = max(min(budget, self.deadline - time.monotonic()), 0.0)
        self.budget = budget
        self.wake_at = time.monotonic() + budget
        self.out = memoryview(self.frame)
        self._write()

    def _write(self) -> None:
        try:
            sent = self.conn.sock.send(self.out)
        except BlockingIOError:
            return
        except OSError as exc:
            return self._lost(ConnectionLostError(f"connection failed: {exc}"))
        self.out = self.out[sent:]

    def _read(self) -> None:
        conn = self.conn
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return  # a spurious wake-up: nothing to read yet
        except OSError as exc:
            return self._lost(ConnectionLostError(f"connection failed: {exc}"))
        if not data:
            return self._lost(conn.reader.eof_error())
        try:
            frames = list(conn.reader.feed(data))
        except ProtocolError as exc:
            return self._lost(exc)
        if not frames:
            return
        self.conn = None
        if len(frames) > 1 or conn.reader.buffered:
            # A frame nobody asked for: the stream is out of step.
            self.client._discard(conn)
        else:
            self.client._checkin(conn)
        msg_type, header, arrays = frames[0]
        try:
            raise_if_error(msg_type, header)
            self.value = self.decode(msg_type, header, arrays)
        except TransportError as exc:
            self.error = exc
        self.done = True

    def _lost(self, exc: TransportError) -> None:
        """The attempt's socket failed or timed out: discard it."""
        self.client._discard(self.conn)
        self.conn = None
        self._fail(exc)

    def _fail(self, exc: TransportError) -> None:
        """Retry a connectivity failure while tries remain; else end.

        A failure that ends the call is chained to the connectivity
        failure that drove earlier retries, so a refused connection does
        not read as a slow searcher.
        """
        client = self.client
        if isinstance(exc, (ConnectionLostError, ProtocolError)):
            self.last = exc
            if self.tries_left:
                self.tries_left -= 1
                client.tally.count("retried")
                pause = client._jitter(self.delay)
                self.delay = min(self.delay * 2.0, _BACKOFF_MAX_S)
                if self.deadline is not None:
                    remaining = self.deadline - time.monotonic()
                    if remaining <= 0:
                        exc = DeadlineExceededError(
                            "request deadline expired during retry backoff"
                        )
                        exc.__cause__ = self.last
                        self.error, self.done = exc, True
                        return
                    pause = min(pause, remaining)
                self.wake_at = time.monotonic() + max(pause, 0.0)
                return
        elif self.last is not None and exc.__cause__ is None:
            exc.__cause__ = self.last
        self.error, self.done = exc, True


def poll(waiters) -> None:
    """Wait on every waiter's sockets and timers until each is ``done``.

    A waiter is an :class:`Rpc`, or anything else with ``done``,
    ``wake_at``, ``rpcs()`` (the RPCs whose sockets to watch) and
    ``step(now, ready)``: the broker's per-group fan-out calls.  One
    ``select.poll`` per turn, on the calling thread; its timeout is the
    earliest ``wake_at``.
    """
    pending = [waiter for waiter in waiters if not waiter.done]
    while pending:
        poller = select.poll()
        owners = {}
        wake_at = math.inf
        for waiter in pending:
            wake_at = min(wake_at, waiter.wake_at)
            for rpc in waiter.rpcs():
                sock = rpc.sock
                if sock is not None:
                    owners[sock.fileno()] = rpc
                    poller.register(sock, rpc.events)
        timeout = None
        if wake_at != math.inf:
            timeout = max(0, math.ceil((wake_at - time.monotonic()) * 1e3))
        ready = {owners[fd] for fd, _ in poller.poll(timeout)}
        now = time.monotonic()
        for waiter in pending:
            waiter.step(now, ready)
        pending = [waiter for waiter in pending if not waiter.done]


def _writable(sock: socket.socket) -> bool:
    """Whether ``sock`` polls writable (or errored) right now."""
    probe = select.poll()
    probe.register(sock, select.POLLOUT)
    return bool(probe.poll(0))


class RemoteSearcherClient(SearcherTransport):
    """RPC client for one remote searcher process: the remote
    :class:`~repro.net.protocol.SearcherTransport`.

    Safe to share between threads: each call checks a socket out of the
    pool for its round trip.  The blocking methods (:meth:`search`,
    :meth:`deploy`, :meth:`undeploy`, :meth:`stats`, :meth:`ping`,
    :meth:`verify`) refuse a caller inside a running event loop;
    :meth:`start_search` only starts the RPC, for a caller that polls
    many at once (the broker's fan-out).

    Parameters
    ----------
    address:
        ``"host:port"`` string or ``(host, port)`` tuple.
    shard_id:
        The position this client holds in a broker's fleet, which
        :meth:`verify` checks the process at ``address`` serves.  A
        client without one (a stats probe) cannot join a replica group.
    timeout_s:
        Default per-request time budget when the caller passes no
        deadline (send + receive).
    connect_timeout_s:
        Budget for establishing one TCP connection.
    pool_size:
        Idle connections kept per searcher.  More concurrent
        requests than this still work -- extras dial fresh connections
        and the surplus is closed on return.
    retries:
        Connectivity-failure retries for idempotent calls.
    backoff_s:
        Reconnect backoff ceiling schedule: retry ``n`` waits a uniform
        random ("full jitter") slice of ``min(backoff_s * 2**n, 1.0)``
        seconds (the ceiling is ``_BACKOFF_MAX_S``).
    backoff_seed:
        Seed for the jitter RNG; defaults to a per-address hash so each
        client desynchronizes deterministically without configuration.
    """

    remote = True

    def __init__(
        self,
        address: str | tuple,
        shard_id: int | None = None,
        *,
        timeout_s: float = 30.0,
        connect_timeout_s: float = 5.0,
        pool_size: int = 2,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_seed: int | None = None,
        max_frame: int = DEFAULT_MAX_FRAME,
    ) -> None:
        if timeout_s <= 0 or connect_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host, self.port = parse_address(address)
        self.shard_id = None if shard_id is None else int(shard_id)
        self.timeout_s = float(timeout_s)
        self.connect_timeout_s = float(connect_timeout_s)
        self.pool_size = int(pool_size)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self._backoff_rng = random.Random(
            zlib.crc32(self.address.encode())
            if backoff_seed is None
            else backoff_seed
        )
        self.max_frame = int(max_frame)
        self._lock = threading.Lock()
        self._pool: list[_Connection] = []
        self._closed = False
        #: Rows answered, RPCs sent, connections opened / closed and
        #: retries; ``connects - closes`` is :attr:`open_connections`.
        self.tally = Tally(_COUNTERS, searcher=self.address)
        _CLIENTS.add(self)

    def _jitter(self, delay: float) -> float:
        """Full-jitter backoff draw: uniform in ``[0, delay]``.

        Pure exponential doubling makes every client that failed at the
        same instant retry at the same instants forever -- a retry storm
        that re-knocks a recovering searcher over.  Locked because
        ``random.Random`` state updates are not atomic.
        """
        with self._lock:
            return self._backoff_rng.uniform(0.0, delay)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def open_connections(self) -> int:
        """Sockets this client currently holds open (pooled + in flight)."""
        counts = self.tally.snapshot()
        return counts.get("connects", 0) - counts.get("closes", 0)

    # -- connection management ---------------------------------------------------------
    def _resolve(self) -> list:
        """The searcher's addresses, in the order a dial tries them."""
        try:
            return socket.getaddrinfo(self.host, self.port, type=socket.SOCK_STREAM)
        except OSError as exc:
            raise ConnectionLostError(
                f"cannot connect to searcher {self.address}: {exc}"
            ) from None

    def _dial(self, addrs: list, error: OSError | None = None) -> _Connection:
        """Start a non-blocking connect to the next of ``addrs`` that
        takes one (popping what it tries); the poll sees it through.
        ``error`` is why the previous address failed."""
        while addrs:
            family, kind, proto, _, sockaddr = addrs.pop(0)
            sock = socket.socket(family, kind, proto)
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            err = sock.connect_ex(sockaddr)
            if err in (0, errno.EINPROGRESS):
                return _Connection(sock, self.max_frame)
            sock.close()
            error = OSError(err, os.strerror(err))
        raise ConnectionLostError(
            f"cannot connect to searcher {self.address}: {error}"
        )

    def _checkout(self) -> _Connection | None:
        """A pooled connection, or ``None``: dial a fresh one."""
        with self._lock:
            if self._closed:
                raise ConnectionLostError(
                    f"client for {self.address} is closed"
                )
            if self._pool:
                return self._pool.pop()
        return None

    def _checkin(self, conn: _Connection) -> None:
        with self._lock:
            if not self._closed and len(self._pool) < self.pool_size:
                self._pool.append(conn)
                return
        self._discard(conn)

    def _discard(self, conn: _Connection) -> None:
        conn.sock.close()
        if conn.connected:
            self.tally.count("closes")

    def close(self) -> None:
        """Close every pooled connection; the client rejects further calls.

        Callable from any thread: an RPC in flight finishes on its own
        socket, which is then closed instead of pooled.
        """
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for conn in pool:
            self._discard(conn)

    def _forget_pool(self) -> None:
        """Fork hook: the pooled sockets are the parent's connections, so
        the child drops them without a word on the wire."""
        self._lock = threading.Lock()  # a parent's thread may hold the old one
        with self._lock:
            self._pool = []

    # -- RPCs ------------------------------------------------------------------------------
    def _start(
        self,
        msg_type: MsgType,
        arrays: tuple = (),
        *,
        deadline: float | None = None,
        idempotent: bool = True,
        decode=None,
        **fields,
    ) -> Rpc:
        """Start one schema-checked RPC: ``fields`` packed into the
        request header, the reply (which must be of the type that
        answers ``msg_type``) unpacked and handed to ``decode(reply,
        arrays)`` (default: the reply alone).

        ``deadline`` is an absolute ``time.monotonic()`` instant shared
        across retries.  Error frames raise
        :class:`~repro.errors.RemoteCallError` (never retried).
        """
        frame = b"".join(encode_frame(msg_type, pack(msg_type, **fields), arrays))
        return Rpc(
            self,
            frame,
            deadline,
            idempotent,
            partial(_unpack_reply, msg_type, decode or _reply_only),
        )

    def _call(self, name: str, start, *args, **kwargs):
        """Block the calling thread on one RPC."""
        refuse_in_running_loop(f"{type(self).__name__}.{name}")
        rpc = start(*args, **kwargs)
        poll((rpc,))
        return rpc.result()

    def start_search(self, call: ShardCall) -> Rpc:
        """Send one shard search; the returned :class:`Rpc` yields its
        :class:`ShardReply`.  The one place a :class:`ShardCall` is
        packed and a :class:`ShardReply` unpacked.

        Every field of the call ships under its own name, so a field
        appended to ``FRAME_FIELDS`` and to the dataclass needs no edit
        here; ``reply.cost`` / ``reply.trace`` are present only when the
        call asked for them *and* the server speaks protocol v2.
        """
        fields = dict(vars(call))
        queries = np.ascontiguousarray(fields.pop("queries"), dtype=np.float32)
        # Ships as *remaining* budget, so the searcher can reject
        # already-expired work before burning CPU.
        deadline = fields.pop("deadline")
        return self._start(
            MsgType.SEARCH,
            (queries,),
            deadline=deadline,
            decode=partial(self._shard_reply, (queries.shape[0], int(call.top_k))),
            deadline_ms=(
                None
                if deadline is None
                else max((deadline - time.monotonic()) * 1e3, 0.0)
            ),
            **fields,
        )

    def _shard_reply(self, want: tuple[int, int], result, arrays) -> ShardReply:
        if len(arrays) != 2:
            raise ProtocolError(
                f"search result carries {len(arrays)} arrays, expected 2"
            )
        ids = np.asarray(arrays[0], dtype=np.int64)
        dists = np.asarray(arrays[1], dtype=np.float64)
        if ids.shape != want or dists.shape != want:
            raise ProtocolError(
                f"search result shapes {ids.shape}/{dists.shape} do not "
                f"match the requested {want}"
            )
        self.tally.count("queries_served", want[0])
        del result.index  # the RESULT's echo of the call's own field
        return ShardReply(ids, dists, **vars(result))

    def search(self, call: ShardCall) -> ShardReply:
        """One shard search over the wire (see :meth:`start_search`)."""
        return self._call("search", self.start_search, call)

    # The frozen ``benchmarks/ledger`` calls or patches these two; nothing
    # under ``src/`` does.  They go with ROADMAP 2(a).
    async def search_batch_async(self, call: ShardCall) -> ShardReply:
        import asyncio

        return await asyncio.to_thread(self.search, call)

    def search_batch(self, *call, **fields) -> ShardReply:
        return self.search(ShardCall(*call, **fields))

    def deploy(
        self,
        index_name: str,
        index_path: str,
        *,
        root: str | None = None,
        deadline: float | None = None,
    ) -> list[str]:
        """Host this searcher's shard of an exported index (not retried)."""
        reply = self._call(
            "deploy",
            self._start,
            MsgType.DEPLOY,
            deadline=deadline,
            idempotent=False,
            index=index_name,
            path=index_path,
            root=root,
        )
        return reply.hosted or []

    def undeploy(
        self, index_name: str, *, deadline: float | None = None
    ) -> list[str]:
        """Unhost an index (not retried)."""
        reply = self._call(
            "undeploy",
            self._start,
            MsgType.UNDEPLOY,
            deadline=deadline,
            idempotent=False,
            index=index_name,
        )
        return reply.hosted or []

    def stats(self, *, deadline: float | None = None) -> dict:
        """The remote server's STATS reply (see ``SearcherServer.stats``)."""
        reply = self._call("stats", self._start, MsgType.STATS, deadline=deadline)
        return reply.stats or {}

    def ping(self, *, deadline: float | None = None) -> int:
        """Liveness probe; returns the remote node's shard id."""
        reply = self._call("ping", self._start, MsgType.PING, deadline=deadline)
        if reply.shard_id is None:
            raise ProtocolError("the OK reply to PING names no shard id")
        return reply.shard_id

    def verify(self) -> None:
        """Ping the remote process and check it serves :attr:`shard_id`."""
        remote_shard = self.ping()
        if remote_shard != self.shard_id:
            raise ValueError(
                f"searcher at {self.address} serves shard {remote_shard}, "
                f"expected shard {self.shard_id}"
            )

    def __repr__(self) -> str:
        return f"RemoteSearcherClient({self.address!r}, shard_id={self.shard_id})"


def _unpack_reply(msg_type: MsgType, decode, reply_type, header, arrays):
    if reply_type != REPLY_TYPE[msg_type]:
        raise ProtocolError(
            f"{msg_type.name} was answered with {reply_type.name}, "
            f"expected {REPLY_TYPE[msg_type].name}"
        )
    return decode(unpack(reply_type, header), arrays)


def _reply_only(reply, arrays):
    return reply


def _forget_pools_in_child() -> None:
    for client in list(_CLIENTS):
        client._forget_pool()


os.register_at_fork(after_in_child=_forget_pools_in_child)
