"""``SearcherServer``: a thread-per-connection TCP front for one searcher node.

One server process hosts one :class:`~repro.online.searcher.SearcherNode`
(= one shard position of every deployed index) and serves the broker's
RPCs over the :mod:`repro.net.protocol` framing:

- ``SEARCH``    -- lockstep ``search_batch`` over a hosted index;
- ``DEPLOY``    -- load this node's shard of an exported index from a
  :class:`~repro.storage.hdfs.LocalHdfs` root and host it;
- ``UNDEPLOY``  -- unhost an index;
- ``STATS``     -- identity, ``options`` and ``counts`` (one
  :meth:`SearcherServer.stats` dict, see there);
- ``PING``      -- liveness + shard-id handshake.

One accept thread hands each accepted socket to **its own thread**,
which feeds ``recv`` chunks to a sans-IO
:class:`~repro.net.protocol.FrameReader` and answers each frame it
completes where it stands: check, admit, search, then the response's
single ``sendall`` -- one frame in, one write out, no hand-off between
threads.  Request handling is per-connection sequential, which keeps the
protocol trivially orderable (a pipelined frame waits its turn in the
socket, which is not read while one is answered); concurrency comes from
the client's connection pool, one thread per pooled connection.

Why a thread per connection: a searcher's peers are a few brokers with
a small pool each, so the threads are few, and a SEARCH answered on the
thread that read it pays for no task and no hand-off between threads.
Those cost an asyncio front with an executor ~0.16 ms of searcher CPU
per one-query SEARCH RPC (0.74-0.86 ms -> 0.58-0.70 ms, one pinned CPU
of a 2-vCPU KVM guest).  Nothing serialises --
searches from different connections run on different threads -- and a
connection's thread sheds or refuses a frame the moment it reads it.

Overload safety: the server *admits* SEARCH work instead of
executing everything that arrives.  ``max_in_flight`` bounds concurrent
searches across all connections, ``queue_cap`` bounds how many more may
wait; anything beyond both is shed instantly with a structured
``OVERLOADED`` error frame carrying a ``retry_after_s`` hint, so a
broker still has budget to fail over instead of discovering the
overload via timeout.  Requests that ship a ``deadline_ms`` remaining
budget are rejected (cheaply) once that budget is spent -- on arrival
or after queueing -- and a client that hangs up mid-request (a
cancelled hedge loser) has its work abandoned rather than answered to
nobody: a thread waiting for a slot or sleeping an injected stall
watches its socket for the hang-up, one that searched checks it before
replying.  Rows are coalesced once, before the fan-out, by the broker's
micro-batcher (``BrokerPolicy.max_batch``); a searcher searches each
SEARCH as it arrives.

Launch standalone via ``repro.cli serve-searcher --shard-id S --port P``
(prints a ``SEARCHER-READY`` line used by :mod:`repro.net.fleet`), or
in-process via :meth:`SearcherServer.start_in_thread` (tests).
"""

from __future__ import annotations

import contextlib
import select
import socket
import threading
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
)
from repro.net.chaos import FaultPlan
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    FrameReader,
    MsgType,
    ShardCall,
    encode_frame,
    error_frame,
    pack,
    unpack,
)
from repro.obs.metrics import Tally, get_registry
from repro.obs.tracing import SpanRecorder, maybe_span
from repro.online.searcher import SearcherNode, observed_search
from repro.utils.flags import CASTS, FlagFields, knob

_REGISTRY = get_registry()
#: What a server counts, by :class:`~repro.obs.metrics.Tally` name.
_COUNTERS = {
    **_REGISTRY.counters(
        "lanns_searcher",
        connections_accepted="Connections a searcher server accepted.",
        frames_served="Response frames a searcher server wrote (errors included).",
        shed="SEARCH frames refused at admission with an OVERLOADED error frame.",
        expired="SEARCH frames rejected because their deadline budget was spent.",
        abandoned="In-flight SEARCH frames abandoned because the client hung up.",
        abandoned_errors="Abandoned SEARCH frames that ended in an error.",
    ),
    **_REGISTRY.counters(
        "lanns_chaos",
        faults="Chaos faults injected at the server boundary, labelled by kind.",
    ),
}

#: Bytes asked of one ``recv``: a frame of a few hundred query rows.
_RECV_BYTES = 1 << 16
#: How often a request queued for an admission slot looks for a hang-up.
_QUEUED_POLL_S = 0.01
#: Pause before the next ``accept`` after one failed (out of descriptors).
_ACCEPT_RETRY_S = 1.0
#: The ``poll`` event of a peer that closed its sending side (Linux);
#: a hang-up or a socket error is reported whatever the mask.
_HANG_UP = getattr(select, "POLLRDHUP", 0)

#: Stdout line a launched server prints once it is accepting connections.
READY_PREFIX = "SEARCHER-READY"


def ready_line(shard_id: int, port: int) -> str:
    """The machine-parseable readiness announcement."""
    return f"{READY_PREFIX} shard={shard_id} port={port}"


def parse_ready_line(line: str) -> tuple[int, int] | None:
    """Inverse of :func:`ready_line`; ``None`` if the line is not one."""
    parts = line.strip().split()
    if len(parts) != 3 or parts[0] != READY_PREFIX:
        return None
    try:
        shard = dict(part.split("=", 1) for part in parts[1:])
        return int(shard["shard"]), int(shard["port"])
    except (ValueError, KeyError):
        return None


@dataclass(frozen=True)
class ServerOptions(FlagFields):
    """How one searcher admits and perturbs its SEARCH work.

    The one place a server knob's name, type, default, validation and
    help line are written.  The ``serve-searcher`` flags
    (:meth:`add_flags` / :meth:`from_args`), the child argv of
    :func:`~repro.net.fleet.launch_searcher` (:meth:`argv`), the
    keywords :class:`SearcherServer` and the ``launch_*`` functions
    accept (``replace(options or ServerOptions(), **fields)``: a keyword
    that is no field is a ``TypeError`` naming it) and the ``options``
    echo of the STATS RPC are loops over these fields: a new knob is
    one more field here.
    """

    max_in_flight: int = knob(
        0,
        "admission control: concurrent SEARCH executions before "
        "requests queue (0 = unbounded, admission disabled)",
    )
    queue_cap: int = knob(
        0,
        "admission control: SEARCH requests allowed to wait for a "
        "slot; beyond this the server sheds with OVERLOADED",
    )
    retry_after_s: float = knob(
        0.05, "backoff hint carried inside OVERLOADED error frames"
    )
    #: A seeded :class:`~repro.net.chaos.FaultPlan` in its ``spec()``
    #: form (a plan is accepted and stored as that string, which is what
    #: crosses the process boundary); one fault decision is drawn per
    #: SEARCH frame in arrival order.
    chaos: str | None = knob(
        None,
        "seeded fault injection, e.g. "
        "'seed=42,reset_rate=0.05,delay_every=10,delay_s=0.02' "
        "(see repro.net.chaos.FaultPlan)",
        flag="--chaos-spec",
    )

    def __post_init__(self) -> None:
        for spec in fields(self):
            if spec.type in CASTS:
                value = CASTS[spec.type](getattr(self, spec.name))
                object.__setattr__(self, spec.name, value)
        if self.max_in_flight < 0 or self.queue_cap < 0:
            raise ValueError("max_in_flight / queue_cap must be >= 0")
        if self.retry_after_s < 0:
            raise ValueError(
                f"retry_after_s must be >= 0, got {self.retry_after_s}"
            )
        chaos = self.chaos
        if isinstance(chaos, FaultPlan):
            chaos = chaos.spec()
        elif chaos:
            FaultPlan.parse(chaos)  # a bad spec is refused here, not at serve time
        object.__setattr__(self, "chaos", chaos or None)


class SearcherServer:
    """Serve one :class:`SearcherNode` over TCP.

    Parameters
    ----------
    node:
        The searcher this server fronts.
    host, port:
        Bind address; ``port=0`` picks a free port (``self.port`` holds
        the actual one once started).
    root:
        Optional :class:`LocalHdfs` root this server loads shards from.
        When ``None``, each ``DEPLOY`` request must carry a ``root`` --
        fine over loopback, where broker and searcher share a disk.
    options, **fields:
        The knobs: a :class:`ServerOptions`, its fields as keywords, or
        both (the keywords win).  The admission knobs are read off
        ``self.options`` per request, and ``self.chaos`` is the live
        :class:`FaultPlan` (a test may assign a fresh one).  Frames are
        capped at ``DEFAULT_MAX_FRAME`` bytes both ways.
    """

    def __init__(
        self,
        node: SearcherNode,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        root: str | None = None,
        options: ServerOptions | None = None,
        **fields,
    ) -> None:
        self.options = replace(options or ServerOptions(), **fields)
        self.node = node
        self.host = host
        self.port = int(port)
        self.root = root
        #: The live plan ``options.chaos`` describes (its RNG is the schedule).
        self.chaos = (
            FaultPlan.parse(self.options.chaos) if self.options.chaos else None
        )
        #: Connections, frames, sheds, expiries, abandonments and
        #: injected faults: the ``counts`` of the STATS reply.
        self.tally = Tally(_COUNTERS, shard=node.shard_id)
        #: The repr of the last abandoned request that died with an
        #: error rather than a clean hang-up, for postmortems.
        self._last_abandoned_error: str | None = None
        #: Searches running and requests waiting for an admission slot
        #: (the ``in_flight`` / ``queued`` gauges of STATS); a finished
        #: search notifies one waiter.
        self._slot_freed = threading.Condition()
        self._in_flight = 0
        self._queued = 0
        #: Live connections, each with the thread serving it.
        self._lock = threading.Lock()
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._listener: socket.socket | None = None
        #: Set once serving ends: a hang-up from then on is the server's
        #: own, not a client abandoning its request.
        self._stopping = threading.Event()
        #: The accept thread of :meth:`start_in_thread`.
        self._thread: threading.Thread | None = None

    # -- request handling --------------------------------------------------------------
    def _answer(self, sock: socket.socket, hung_up, frame: tuple) -> bool:
        """Answer one frame on its connection's thread; ``False`` ends
        the connection (an injected reset, or the peer hung up on a
        SEARCH)."""
        msg_type = frame[0]
        stall_s = 0.0
        if msg_type == MsgType.SEARCH and self.chaos is not None:
            kind = self._inject_fault(sock)
            if kind in ("reset", "drop", "overload"):
                return kind != "reset"
            if kind == "delay":
                stall_s = self.chaos.delay_s
        try:
            response = self._dispatch(*frame, hung_up, stall_s)
        except _HungUp:
            self._abandoned(None)
            return False
        except Exception as exc:  # -> structured error frame
            if msg_type == MsgType.SEARCH and hung_up():
                self._abandoned(exc)
                return False
            response = error_frame(exc)
        else:
            if msg_type == MsgType.SEARCH and hung_up():
                self._abandoned(None)
                return False
        self.tally.count("frames_served")
        _send(sock, response)
        return True

    def _inject_fault(self, sock: socket.socket) -> str | None:
        """Apply the chaos plan's next decision to this SEARCH frame.

        Returns the drawn kind so the caller knows whether to serve
        (``None``), serve after a stall (``"delay"``, which
        :meth:`_dispatch` holds and counts), skip the response
        (``"drop"``/``"overload"``) or kill the connection (``"reset"``).
        """
        kind = self.chaos.draw()
        if kind in (None, "delay"):  # a stall is counted where it is slept
            return kind
        self.tally.count("faults", kind=kind)
        if kind == "overload":
            shed = OverloadedError(
                f"injected overload (shard {self.node.shard_id})",
                retry_after_s=self.options.retry_after_s,
            )
            self.tally.count("frames_served")
            _send(sock, error_frame(shed))
        # "reset" and "drop" need no action here: the caller closes the
        # connection / withholds the response respectively.
        return kind

    def _abandoned(self, exc: Exception | None) -> None:
        """A SEARCH whose client hung up ended in ``exc`` (``None``: it
        was searched, or left its queue or stall), not an answer."""
        if self._stopping.is_set():
            return  # the server hung up, not the client
        if exc is not None:
            # Nobody is listening for this error any more; keep it
            # visible in stats rather than folding it into a clean hang-up.
            self.tally.count("abandoned_errors")
            self._last_abandoned_error = repr(exc)
        self.tally.count("abandoned")

    def _admit(self, hung_up) -> None:
        """Take a search slot, queue for one, or shed with OVERLOADED.

        The shed decision and both gauges live under one lock, so
        check-then-act is race-free across connection threads.  A
        queued request watches its socket while it waits: a hang-up
        leaves the queue at once (:class:`_HungUp`) and never takes the
        slot.
        """
        limit = self.options.max_in_flight
        with self._slot_freed:
            full = limit and self._in_flight >= limit
            shed = full and self._queued >= self.options.queue_cap
            if not full:
                self._in_flight += 1
            elif not shed:
                self._queued += 1
            queued = self._queued
        if shed:
            self.tally.count("shed")
            raise OverloadedError(
                f"searcher shard {self.node.shard_id} is at capacity "
                f"({limit} in flight, {queued} queued)",
                retry_after_s=self.options.retry_after_s,
            )
        while full:
            gone = hung_up()
            with self._slot_freed:
                full = self._in_flight >= limit
                if gone:
                    self._queued -= 1
                    self._slot_freed.notify()  # pass the wake-up on
                    raise _HungUp
                if full:
                    self._slot_freed.wait(_QUEUED_POLL_S)
                else:
                    self._queued -= 1
                    self._in_flight += 1

    def _release(self) -> None:
        with self._slot_freed:
            self._in_flight -= 1
            self._slot_freed.notify()

    def _dispatch(
        self,
        msg_type: MsgType,
        header: dict,
        arrays: list,
        hung_up,
        stall_s: float = 0.0,
    ) -> list:
        if msg_type == MsgType.PING:
            return self._ok(shard_id=self.node.shard_id)
        if msg_type == MsgType.SEARCH:
            arrived = time.perf_counter()
            request = unpack(MsgType.SEARCH, header)
            if len(arrays) != 1:
                raise ProtocolError(
                    f"SEARCH expects 1 query array, got {len(arrays)}"
                )
            # The peer shipped its *remaining* budget; pin it to this
            # host's clock once, then every later check is a cheap
            # comparison.  Everything else in the header is the call,
            # field for field.
            deadline_ms = request.deadline_ms
            del request.deadline_ms
            call = ShardCall(
                queries=arrays[0],
                deadline=(
                    time.monotonic() + deadline_ms / 1e3
                    if deadline_ms is not None
                    else None
                ),
                **vars(request),
            )
            self._check(call)
            # Only the call says whether this request is traced
            # (protocol v2: a trace context turns on span recording, a
            # cost flag search-cost accounting); an untraced one builds
            # no recorder at all.
            recorder = None
            if call.trace is not None:
                recorder = SpanRecorder(at=arrived)
                recorder.end_span(recorder.start_span("decode", at=arrived))
            self._refuse_if_spent(call, "on arrival")
            self._admit(hung_up)
            try:
                # Queueing may have eaten the rest of the budget: the
                # client has already given up, so executing now would
                # burn CPU on an answer nobody reads.
                self._refuse_if_spent(call, "waiting for admission")
                if stall_s:
                    # An injected ``delay`` stalls this request only and
                    # holds its admission slot, as a real stall would;
                    # a hang-up ends it early.
                    self.tally.count("faults", kind="delay")
                    with maybe_span(recorder, "stall", injected=True):
                        if hung_up(stall_s):
                            raise _HungUp
                ids, dists, cost = observed_search(self.node, call, recorder)
            finally:
                self._release()
            if recorder is not None:
                with recorder.span("encode"):
                    ids = np.ascontiguousarray(ids)
                    dists = np.ascontiguousarray(dists)
            return encode_frame(
                MsgType.RESULT,
                pack(
                    MsgType.RESULT,
                    index=call.index,
                    cost=cost,
                    trace=recorder.export() if recorder is not None else None,
                ),
                [ids, dists],
            )
        if msg_type == MsgType.DEPLOY:
            self._deploy(unpack(MsgType.DEPLOY, header))
            return self._ok(hosted=self.node.hosted_indices)
        if msg_type == MsgType.UNDEPLOY:
            self.node.unhost(unpack(MsgType.UNDEPLOY, header).index)
            return self._ok(hosted=self.node.hosted_indices)
        if msg_type == MsgType.STATS:
            return self._ok(stats=self.stats())
        raise ProtocolError(f"unexpected message type {msg_type!r}")

    def stats(self) -> dict:
        """The STATS reply: the node's identity, ``options``, ``counts``
        (the node's and this server's tallies, and the live ``in_flight``
        / ``queued`` admission gauges), ``last_abandoned_error`` and the
        process-wide ``metrics`` snapshot, which a broker (or
        ``repro.cli stats``) merges across a fleet into one view."""
        stats = self.node.stats()
        counts = stats["counts"]
        counts.update(self.tally.snapshot())
        with self._slot_freed:
            counts.update(in_flight=self._in_flight, queued=self._queued)
        stats["options"] = asdict(self.options)
        stats["last_abandoned_error"] = self._last_abandoned_error
        stats["metrics"] = _REGISTRY.snapshot()
        return stats

    def _refuse_if_spent(self, call: ShardCall, where: str) -> None:
        if call.deadline is not None and time.monotonic() >= call.deadline:
            self.tally.count("expired")
            raise DeadlineExceededError(f"request budget was spent {where}")

    def _check(self, call: ShardCall) -> None:
        """Reject, before admission, a call the shard must not run.

        The header was well-typed; the *values* are still the peer's.
        A reply block is ``rows x top_k`` ids and as many distances (16
        bytes a cell), so one that cannot fit a frame this server may
        send is refused before anything allocates it, and a NaN budget
        would never be spent.  (``top_k < 1``, a dimension mismatch and
        non-finite query rows are the shard's own ``ValueError`` s.)
        """
        if call.deadline is not None and np.isnan(call.deadline):
            raise ValueError("SEARCH deadline_ms is NaN")
        queries = call.queries
        if queries.ndim != 2:
            raise ValueError(f"SEARCH queries must be (rows, dim), got {queries.shape}")
        if queries.shape[0] * call.top_k * 16 > DEFAULT_MAX_FRAME:
            raise ValueError(
                f"a reply of {queries.shape[0]} rows x top_k={call.top_k} "
                f"cannot fit the {DEFAULT_MAX_FRAME}-byte frame limit"
            )

    def _deploy(self, request) -> None:
        root = self.root if self.root is not None else request.root
        if not root:
            raise ValueError(
                "DEPLOY needs a filesystem root: start the server with "
                "--root or include 'root' in the request"
            )
        self.node.deploy(request.index, request.path, root=root)

    @staticmethod
    def _ok(**fields) -> list:
        return encode_frame(MsgType.OK, pack(MsgType.OK, **fields))

    # -- connections -------------------------------------------------------------------
    def _serve_connection(self, sock: socket.socket) -> None:
        """One accepted socket, on its own thread: frames in, one at a
        time, answers out, until either side hangs up."""
        reader = FrameReader()
        hung_up = _hang_up_watch(sock)
        try:
            while data := sock.recv(_RECV_BYTES):
                for frame in reader.feed(data):
                    if not self._answer(sock, hung_up, frame):
                        return
            # The protocol is one frame in, one frame out, so a peer that
            # closes its sending side is gone -- with a ProtocolError to
            # hear if it was cut off mid-frame.
            error = reader.eof_error()
            if isinstance(error, ProtocolError):
                raise error
        except ProtocolError as exc:
            # Tell the peer what broke, then drop the connection: after a
            # garbled frame the stream offset is unknown.
            with contextlib.suppress(OSError):
                _send(sock, error_frame(exc))
        except OSError:
            pass  # a reset peer, or a stopping server
        finally:
            with self._lock:
                del self._connections[sock]
            sock.close()

    def _accept(self) -> None:
        """Hand each accepted socket to a thread of its own until
        :meth:`stop`; then hang up on every connection and join its
        thread, so a stopped server leaves no thread behind."""
        listener = self._listener
        try:
            while not self._stopping.is_set():
                try:
                    sock, _ = listener.accept()
                except OSError:
                    # Shut down by stop(), or out of descriptors: wait a
                    # moment rather than spin.
                    self._stopping.wait(_ACCEPT_RETRY_S)
                    continue
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.tally.count("connections_accepted")
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(sock,),
                    name=f"searcher-{self.node.shard_id}-connection",
                    daemon=True,
                )
                with self._lock:
                    self._connections[sock] = thread
                thread.start()
        finally:
            self._stopping.set()
            listener.close()
            with self._lock:
                live = list(self._connections.items())
                for sock, _ in live:
                    with contextlib.suppress(OSError):
                        sock.shutdown(socket.SHUT_RDWR)
            for _, thread in live:
                thread.join()

    # -- lifecycle ---------------------------------------------------------------------
    def _listen(self) -> None:
        self._stopping.clear()
        self._listener = socket.create_server((self.host, self.port))
        self.port = self._listener.getsockname()[1]

    def run(self) -> int:
        """Serve until interrupted (the ``serve-searcher`` entry point),
        announcing the bound port with :func:`ready_line` on stdout."""
        self._listen()
        print(ready_line(self.node.shard_id, self.port), flush=True)
        try:
            self._accept()
        except KeyboardInterrupt:
            pass
        return 0

    def start_in_thread(self) -> "SearcherServer":
        """Serve on a daemon accept thread; returns once it is listening.

        For tests and embedded fleets: the caller's thread stays free,
        ``self.port`` holds the bound port, :meth:`stop` shuts down.
        """
        self._listen()
        self._thread = threading.Thread(
            target=self._accept,
            name=f"searcher-server-{self.node.shard_id}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Stop a :meth:`start_in_thread` server (idempotent).

        Raises :class:`TimeoutError` if the accept thread -- which joins
        every connection's thread on its way out -- is still alive after
        ``timeout``: a silent return here would leak a live server
        holding the port and make the next bind-to-same-port restart
        fail mysteriously.
        """
        self._stopping.set()
        if self._listener is not None:
            with contextlib.suppress(OSError):
                # Wakes the accept() the accept thread is blocked in.
                self._listener.shutdown(socket.SHUT_RDWR)
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise TimeoutError(
                    f"searcher server thread (shard {self.node.shard_id}, "
                    f"port {self.port}) still alive after {timeout}s"
                )
            self._thread = None

    @property
    def address(self) -> str:
        """``host:port`` once the server is listening."""
        return f"{self.host}:{self.port}"


class _HungUp(Exception):
    """The peer hung up while its SEARCH queued for a slot or stalled."""


def _hang_up_watch(sock: socket.socket):
    """``hung_up(wait_s=0.0)``: whether the peer of ``sock`` has hung up,
    waiting up to ``wait_s`` for it, without reading a byte -- a
    pipelined frame is not a hang-up, a closed sending side is."""
    poller = select.poll()
    poller.register(sock, _HANG_UP)
    return lambda wait_s=0.0: bool(poller.poll(wait_s * 1e3))


def _send(sock: socket.socket, frame: list) -> None:
    """Write one encoded frame: one ``sendall``."""
    sock.sendall(b"".join(frame))
