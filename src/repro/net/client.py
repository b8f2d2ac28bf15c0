"""RPC clients for one searcher: an asyncio core and a blocking facade.

:class:`AsyncRemoteSearcherClient` is the only implementation of the
client side of the wire.  The broker's fan-out loop awaits it natively
(one coroutine per shard RPC, N in flight on one thread); reliability is
layered as:

- **connection pool** -- a small stack of idle connections per searcher
  and per event loop, so concurrent batches don't serialize on one
  connection and repeated requests skip the TCP handshake.  A
  connection is a :class:`_Connection` (an :class:`asyncio.Protocol`
  over a sans-IO :class:`~repro.net.protocol.FrameReader`) and its
  transport; one round trip is **one** ``transport.writelines`` of the
  encoded frame and **one** future the reply's ``data_received``
  resolves;
- **request timeouts** -- each attempt's whole round trip runs under one
  cumulative budget: the per-call deadline, capped by the client-wide
  ``timeout_s``.  One ``loop.call_later`` timer fails that future with
  :class:`~repro.errors.DeadlineExceededError` when the budget expires,
  however slowly the peer trickles bytes;
- **bounded retries with backoff** -- connectivity failures (refused,
  reset, EOF, garbled frames) retry idempotent calls up to ``retries``
  times, reconnecting with exponential backoff plus *full jitter*
  (uniform in ``[0, delay]``, seeded per client) so the retries of many
  brokers hitting one recovering searcher spread out instead of
  arriving in synchronized waves.  Timeouts and server-side
  :class:`~repro.errors.RemoteCallError` s never retry: the former
  would double tail latency, the latter would repeat a bug.

A dead connection is always discarded, never returned to the pool, so
one crash can't poison later requests.

:class:`RemoteSearcherClient` is the same client for plain threads --
the control plane (deploy / verify / undeploy / stats), the CLI, test
and benchmark drivers.  It holds no socket, pool, timeout or retry code:
each method submits the core's coroutine to the process-wide
:func:`~repro.net.loop.client_loop` thread and blocks for the result.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
import zlib
from functools import partial

import numpy as np

from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    ProtocolError,
    TransportError,
)
from repro.net.loop import client_loop
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    REPLY_TYPE,
    FrameReader,
    MsgType,
    ShardCall,
    ShardReply,
    encode_frame,
    pack,
    raise_if_error,
    unpack,
)
from repro.obs.metrics import Tally, get_registry

#: Failures that mean "the searcher is unreachable/broken", as opposed to
#: "the searcher answered with an error".  The broker's ``degrade``
#: policy drops a shard on exactly these.
CONNECTIVITY_FAILURES = (
    ConnectionLostError,
    ProtocolError,
    DeadlineExceededError,
)
#: What a client counts, by :class:`~repro.obs.metrics.Tally` name.
_COUNTERS = get_registry().counters(
    "lanns_client",
    queries_served="Query rows searchers answered a client.",
    requests_sent="RPC attempts a client sent, retries included.",
    connects="Connections a client opened.",
    closes="Connections a client closed.",
    retried="RPC retries a client made after a connectivity failure.",
)


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


class _Connection(asyncio.Protocol):
    """One pooled socket: at most one RPC in flight.

    :meth:`expect` parks the future the next frame (or the hang-up, or
    the caller's timer through :meth:`fail`) resolves.  A connection
    that died while idle in the pool stays there, and fails the request
    that next draws it with the error it died of -- which is what makes
    that request retry on a fresh dial.
    """

    def __init__(self, max_frame: int) -> None:
        self.transport: asyncio.Transport | None = None
        self._reader = FrameReader(max_frame=max_frame)
        self._reply: asyncio.Future | None = None
        self._lost: TransportError | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def expect(self, loop) -> asyncio.Future:
        self._reply = loop.create_future()
        if self._lost is not None:
            self.fail(self._lost)
        return self._reply

    def fail(self, exc: TransportError) -> None:
        if self._reply is not None and not self._reply.done():
            self._reply.set_exception(exc)

    def data_received(self, data: bytes) -> None:
        try:
            for frame in self._reader.feed(data):
                if self._reply is None or self._reply.done():
                    raise ProtocolError("the searcher sent an unrequested frame")
                self._reply.set_result(frame)
        except ProtocolError as exc:
            self._lost = exc
            self.fail(exc)
            self.transport.close()

    def connection_lost(self, exc: Exception | None) -> None:
        if self._lost is None:
            self._lost = (
                self._reader.eof_error()
                if exc is None
                else ConnectionLostError(f"connection failed: {exc}")
            )
        self.fail(self._lost)


class AsyncRemoteSearcherClient:
    """Asyncio RPC client for one remote searcher process.

    Every RPC is a coroutine, so a broker can keep N shard requests in
    flight on **one** event-loop thread instead of burning a thread per
    RPC.

    Connections are pooled *per event loop*: an asyncio transport is
    bound to the loop that opened it, and one client instance may be driven by
    several loops (the service shares its transports across deployed
    indices, each broker owning its own loop, and the blocking facade
    drives the shared client loop).  Checkout inside a coroutine always
    hands back a connection opened on the running loop.

    Cancellation safety -- what hedging leans on: an RPC cancelled
    mid-flight (the hedge race's loser) always **discards** its
    connection instead of pooling it, because the abandoned response is
    still in the pipe and would poison whatever request checked the
    connection out next.  Closing the socket also tells the searcher to
    stop caring about the abandoned request's answer.

    Parameters
    ----------
    address:
        ``"host:port"`` string or ``(host, port)`` tuple.
    timeout_s:
        Default per-request time budget when the caller passes no
        deadline (send + receive).
    connect_timeout_s:
        Budget for establishing one TCP connection.
    pool_size:
        Idle connections kept per searcher and loop.  More concurrent
        requests than this still work -- extras dial fresh connections
        and the surplus is closed on return.
    retries:
        Connectivity-failure retries for idempotent calls.
    backoff_s / backoff_max_s:
        Reconnect backoff ceiling schedule: retry ``n`` waits a uniform
        random ("full jitter") slice of ``min(backoff_s * 2**n,
        backoff_max_s)``.
    backoff_seed:
        Seed for the jitter RNG; defaults to a per-address hash so each
        client desynchronizes deterministically without configuration.
    """

    def __init__(
        self,
        address: str | tuple,
        *,
        timeout_s: float = 30.0,
        connect_timeout_s: float = 5.0,
        pool_size: int = 2,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_max_s: float = 1.0,
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
        self.timeout_s = float(timeout_s)
        self.connect_timeout_s = float(connect_timeout_s)
        self.pool_size = int(pool_size)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.backoff_max_s = float(backoff_max_s)
        self._backoff_rng = random.Random(
            zlib.crc32(self.address.encode())
            if backoff_seed is None
            else backoff_seed
        )
        self.max_frame = int(max_frame)
        self._lock = threading.Lock()
        self._pools: dict[object, list[tuple]] = {}
        self._closed = False
        #: Rows answered, RPCs sent, connections opened / closed and
        #: retries; ``connects - closes`` is :attr:`open_connections`.
        self.tally = Tally(_COUNTERS, searcher=self.address)

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
    async def _dial(self, deadline: float | None) -> _Connection:
        budget = self.connect_timeout_s
        if deadline is not None:
            budget = min(budget, self._remaining(deadline))
        loop = asyncio.get_running_loop()
        dialing = asyncio.ensure_future(
            loop.create_connection(
                partial(_Connection, self.max_frame), self.host, self.port
            )
        )
        try:
            done, _ = await asyncio.wait({dialing}, timeout=budget)
        except asyncio.CancelledError:
            dialing.cancel()
            raise
        if not done:
            dialing.cancel()
            # A blown *caller* deadline must not retry; a plain connect
            # timeout (SYN dropped: firewall, host mid-reboot) is a
            # connectivity failure like refused/reset and should get the
            # same bounded retries.
            if deadline is not None and deadline - time.monotonic() <= 0:
                raise DeadlineExceededError(
                    f"connect to {self.address} timed out after "
                    f"{budget:.3f}s"
                )
            raise ConnectionLostError(
                f"connect to {self.address} timed out after {budget:.3f}s"
            )
        try:
            _, conn = dialing.result()
        except OSError as exc:
            raise ConnectionLostError(
                f"cannot connect to searcher {self.address}: {exc}"
            ) from None
        self.tally.count("connects")
        return conn

    async def _checkout(self, deadline: float | None) -> _Connection:
        loop = asyncio.get_running_loop()
        with self._lock:
            if self._closed:
                raise ConnectionLostError(
                    f"client for {self.address} is closed"
                )
            pool = self._pools.get(loop)
            if pool:
                return pool.pop()
        if pool is None:
            # A loop can only have died since the last time a *new* loop
            # showed up, so this is the one place that needs to look.
            self._reap_dead_pools()
            with self._lock:
                self._pools.setdefault(loop, [])
        return await self._dial(deadline)

    def _checkin(self, conn: _Connection, loop) -> None:
        with self._lock:
            if not self._closed:
                pool = self._pools[loop]  # _checkout put it there
                if len(pool) < self.pool_size:
                    pool.append(conn)
                    return
        self._discard(conn)

    def _reap_dead_pools(self) -> None:
        """Drop pools whose event loop is gone.

        One client outlives any single broker (the service shares its
        transports across deployed indices), so when a broker's fan-out
        loop closes, the connections checked in under it would
        otherwise linger unreachable -- every deploy/undeploy cycle
        leaking ``pool_size`` sockets per searcher.
        """
        with self._lock:
            dead = [loop for loop in self._pools if loop.is_closed()]
            reaped = [(loop, self._pools.pop(loop)) for loop in dead]
        for loop, pool in reaped:
            for conn in pool:
                self._close_pooled(loop, conn)

    def _discard(self, conn: _Connection) -> None:
        conn.transport.close()
        self.tally.count("closes")

    def _close_pooled(self, loop, conn: _Connection) -> None:
        """Close a pooled connection from any thread, loop alive or not."""
        try:
            loop.call_soon_threadsafe(conn.transport.close)
        except RuntimeError:
            # Loop already gone: close the underlying socket *object*
            # (idempotent, so the transport destructor's double-close
            # is a no-op -- unlike closing the raw fd, which could hit
            # a reused descriptor number).
            raw = getattr(conn.transport, "_sock", None)
            if raw is not None:
                try:
                    raw.close()
                except OSError:
                    pass
        self.tally.count("closes")

    def close(self) -> None:
        """Close every pooled connection; the client rejects further calls.

        Callable from any thread: pooled connections are closed via
        their owning loop when it is still running, or at the socket
        level when the loop is already gone (broker shut down first).
        """
        with self._lock:
            self._closed = True
            pools, self._pools = self._pools, {}
        for loop, pool in pools.items():
            for conn in pool:
                self._close_pooled(loop, conn)

    # -- core call machinery -----------------------------------------------------------
    @staticmethod
    def _remaining(deadline: float) -> float:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceededError("request deadline already expired")
        return remaining

    def _expire(self, conn: _Connection, budget: float) -> None:
        conn.fail(
            DeadlineExceededError(
                f"searcher {self.address} did not answer within {budget:.3f}s"
            )
        )

    async def _once(
        self,
        msg_type: MsgType,
        header: dict,
        arrays: tuple,
        deadline: float | None,
    ) -> tuple[MsgType, dict, list[np.ndarray]]:
        conn = await self._checkout(deadline)
        loop = asyncio.get_running_loop()
        budget = self.timeout_s
        if deadline is not None:
            try:
                budget = min(budget, self._remaining(deadline))
            except DeadlineExceededError:
                self._checkin(conn, loop)
                raise
        # One frame, one write, one future: the reply (or the hang-up)
        # resolves it from data_received, and one timer bounds the whole
        # round trip, however slowly the peer trickles bytes.
        reply = conn.expect(loop)
        timer = loop.call_later(budget, self._expire, conn, budget)
        try:
            conn.transport.writelines(encode_frame(msg_type, header, arrays))
            response = await reply
        except BaseException:
            # A timed-out or cancelled RPC (hedge loser, torn-down
            # fan-out) leaves its response in the pipe, a failed one a
            # dead socket: never pool this connection.
            self._discard(conn)
            raise
        finally:
            timer.cancel()
        self._checkin(conn, loop)
        return response

    async def call(
        self,
        msg_type: MsgType,
        header: dict | None = None,
        arrays: tuple = (),
        *,
        deadline: float | None = None,
        idempotent: bool = True,
    ) -> tuple[MsgType, dict, list[np.ndarray]]:
        """One RPC round trip; returns ``(msg_type, header, arrays)``.

        ``deadline`` is an absolute ``time.monotonic()`` instant shared
        across retries.  Error frames raise
        :class:`~repro.errors.RemoteCallError` (never retried).
        """
        header = header or {}
        attempts = (self.retries + 1) if idempotent else 1
        delay = self.backoff_s
        last: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                self.tally.count("retried")
                pause = self._jitter(delay)
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        # The deadline died during backoff: the timeout
                        # is a symptom.  Keep the connectivity failure
                        # that drove the retries as the cause, or a
                        # refused connection reads as a slow searcher.
                        raise DeadlineExceededError(
                            "request deadline expired during retry backoff"
                        ) from last
                    pause = min(pause, remaining)
                await asyncio.sleep(max(pause, 0.0))
                delay = min(delay * 2.0, self.backoff_max_s)
            try:
                self.tally.count("requests_sent")
                resp_type, resp_header, resp_arrays = await self._once(
                    msg_type, header, arrays, deadline
                )
            except DeadlineExceededError as exc:
                # Retrying a blown budget only makes it later.  Chain
                # the connectivity error from earlier attempts (an
                # expired deadline discovered inside _dial/_once raises
                # bare) so the real cause isn't masked as a timeout.
                if last is not None and exc.__cause__ is None:
                    raise exc from last
                raise
            except (ConnectionLostError, ProtocolError) as exc:
                last = exc
                continue
            raise_if_error(resp_type, resp_header)
            return resp_type, resp_header, resp_arrays
        assert last is not None
        raise last

    async def _request(
        self,
        msg_type: MsgType,
        arrays: tuple = (),
        *,
        deadline: float | None = None,
        idempotent: bool = True,
        **fields,
    ) -> tuple:
        """One schema-checked RPC: pack ``fields`` into the request
        header, :meth:`call`, and unpack the reply, which must be of the
        type that answers ``msg_type``.  Returns ``(reply, arrays)``."""
        reply_type, header, reply_arrays = await self.call(
            msg_type,
            pack(msg_type, **fields),
            arrays,
            deadline=deadline,
            idempotent=idempotent,
        )
        if reply_type != REPLY_TYPE[msg_type]:
            raise ProtocolError(
                f"{msg_type.name} was answered with {reply_type.name}, "
                f"expected {REPLY_TYPE[msg_type].name}"
            )
        return unpack(reply_type, header), reply_arrays

    # -- the searcher RPC surface ------------------------------------------------------
    async def search(self, call: ShardCall) -> ShardReply:
        """One shard search over the wire: the one place a
        :class:`ShardCall` is packed and a :class:`ShardReply` unpacked.

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
        result, arrays = await self._request(
            MsgType.SEARCH,
            (queries,),
            deadline=deadline,
            deadline_ms=(
                None
                if deadline is None
                else max((deadline - time.monotonic()) * 1e3, 0.0)
            ),
            **fields,
        )
        if len(arrays) != 2:
            raise ProtocolError(
                f"search result carries {len(arrays)} arrays, expected 2"
            )
        ids = np.asarray(arrays[0], dtype=np.int64)
        dists = np.asarray(arrays[1], dtype=np.float64)
        want = (queries.shape[0], int(call.top_k))
        if ids.shape != want or dists.shape != want:
            raise ProtocolError(
                f"search result shapes {ids.shape}/{dists.shape} do not "
                f"match the requested {want}"
            )
        self.tally.count("queries_served", queries.shape[0])
        del result.index  # the RESULT's echo of the call's own field
        return ShardReply(ids, dists, **vars(result))

    async def deploy(
        self,
        index_name: str,
        index_path: str,
        *,
        root: str | None = None,
        deadline: float | None = None,
    ) -> list[str]:
        """Host this searcher's shard of an exported index (not retried)."""
        reply, _ = await self._request(
            MsgType.DEPLOY,
            deadline=deadline,
            idempotent=False,
            index=index_name,
            path=index_path,
            root=root,
        )
        return reply.hosted or []

    async def undeploy(
        self, index_name: str, *, deadline: float | None = None
    ) -> list[str]:
        """Unhost an index (not retried)."""
        reply, _ = await self._request(
            MsgType.UNDEPLOY,
            deadline=deadline,
            idempotent=False,
            index=index_name,
        )
        return reply.hosted or []

    async def stats(self, *, deadline: float | None = None) -> dict:
        """The remote server's STATS reply (see ``SearcherServer.stats``)."""
        reply, _ = await self._request(MsgType.STATS, deadline=deadline)
        return reply.stats or {}

    async def ping(self, *, deadline: float | None = None) -> int:
        """Liveness probe; returns the remote node's shard id."""
        reply, _ = await self._request(MsgType.PING, deadline=deadline)
        if reply.shard_id is None:
            raise ProtocolError("the OK reply to PING names no shard id")
        return reply.shard_id

    def __repr__(self) -> str:
        return f"AsyncRemoteSearcherClient({self.address!r})"


def _core_view(name: str) -> property:
    """Read-only facade attribute showing the core's ``name``."""
    return property(lambda self: getattr(self.core, name))


class RemoteSearcherClient:
    """Blocking facade over one :class:`AsyncRemoteSearcherClient`.

    Takes the core's constructor arguments and offers its RPC surface to
    plain threads: each method runs the same-named coroutine of
    :attr:`core` on the shared :func:`~repro.net.loop.client_loop`
    thread and blocks for its result (or re-raises its exception).  Safe
    to share between threads; the connections it opens are pooled by the
    core under that loop.
    """

    def __init__(self, address: str | tuple, **core_kwargs) -> None:
        self.core = AsyncRemoteSearcherClient(address, **core_kwargs)

    def _block(self, coroutine_fn, *args, **kwargs):
        name = coroutine_fn.__name__
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass  # no loop on this thread: blocking it stalls nothing
        else:
            # Waiting here would stall every task of the caller's loop --
            # and deadlock outright when that loop is the client loop.
            raise RuntimeError(
                f"RemoteSearcherClient.{name}() blocks and was called "
                f"from a running event loop; await "
                f"AsyncRemoteSearcherClient.{name}() (this client's "
                f"`.core.{name}`) instead"
            )
        return client_loop().submit(coroutine_fn(*args, **kwargs)).result()

    def search(self, call: ShardCall) -> ShardReply:
        """Blocking :meth:`AsyncRemoteSearcherClient.search`."""
        return self._block(self.core.search, call)

    def deploy(self, *args, **kwargs) -> list[str]:
        """Blocking :meth:`AsyncRemoteSearcherClient.deploy`."""
        return self._block(self.core.deploy, *args, **kwargs)

    def undeploy(self, *args, **kwargs) -> list[str]:
        """Blocking :meth:`AsyncRemoteSearcherClient.undeploy`."""
        return self._block(self.core.undeploy, *args, **kwargs)

    def stats(self, **kwargs) -> dict:
        """Blocking :meth:`AsyncRemoteSearcherClient.stats`."""
        return self._block(self.core.stats, **kwargs)

    def ping(self, **kwargs) -> int:
        """Blocking :meth:`AsyncRemoteSearcherClient.ping`."""
        return self._block(self.core.ping, **kwargs)

    def close(self) -> None:
        """Close every pooled connection; the client rejects further calls."""
        self.core.close()

    address = _core_view("address")
    open_connections = _core_view("open_connections")
    tally = _core_view("tally")

    def __repr__(self) -> str:
        return f"RemoteSearcherClient({self.address!r})"
