"""``SearcherServer``: an asyncio TCP front for one searcher node.

One server process hosts one :class:`~repro.online.searcher.SearcherNode`
(= one shard position of every deployed index) and serves the broker's
RPCs over the :mod:`repro.net.protocol` framing:

- ``SEARCH``    -- lockstep ``search_batch`` over a hosted index;
- ``DEPLOY``    -- load this node's shard of an exported index from a
  :class:`~repro.storage.hdfs.LocalHdfs` root and host it;
- ``UNDEPLOY``  -- unhost an index;
- ``STATS``     -- node counters + hosted indices;
- ``PING``      -- liveness + shard-id handshake.

One :class:`_Connection` (an :class:`asyncio.Protocol`) per accepted
socket feeds ``data_received`` chunks to a sans-IO
:class:`~repro.net.protocol.FrameReader`; a complete frame starts **one
task** running :meth:`SearcherServer._dispatch`, and that task's last
act is the response's single ``transport.writelines`` -- one frame in,
one wake-up, one write out.  Request handling is per-connection
sequential, which keeps the protocol trivially orderable (a pipelined
frame waits its turn, and the socket is not read while one waits);
concurrency comes from the client's connection pool.  A hang-up is
``connection_lost`` / ``eof_received`` cancelling the in-flight task.

What stays off the loop, and why: searches and shard loads run on a
thread-pool executor (or the micro-batcher's flusher thread), so the
loop keeps accepting connections, answering pings, shedding with
``OVERLOADED`` and noticing hang-ups while numpy works.  Running a
search inline on the loop would save its two thread hand-offs but
serialise every search of the process on one thread and make
``max_in_flight`` meaningless.

Overload safety (PR 10): the server *admits* SEARCH work instead of
executing everything that arrives.  ``max_in_flight`` bounds concurrent
searches, ``queue_cap`` bounds how many more may wait; anything beyond
both is shed instantly with a structured ``OVERLOADED`` error frame
carrying a ``retry_after_s`` hint, so a broker still has budget to fail
over instead of discovering the overload via timeout.  Requests that
ship a ``deadline_ms`` remaining budget are rejected (cheaply) once
that budget is spent -- on arrival or after queueing -- and a client
that hangs up mid-request (a cancelled hedge loser) has its in-flight
work abandoned rather than computed for nobody.  With ``batch_max > 1``
a server-side :class:`~repro.online.microbatch.MicroBatcher` coalesces
SEARCH frames arriving from many broker connections into lockstep
batches (safe because the kernels are batch-composition invariant).

Launch standalone via ``repro.cli serve-searcher --shard-id S --port P``
(prints a ``SEARCHER-READY`` line used by :mod:`repro.net.fleet`), or
in-process via :meth:`SearcherServer.start_in_thread` (tests).
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

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
from repro.obs.metrics import get_registry
from repro.obs.tracing import SpanRecorder, maybe_span
from repro.online.microbatch import AdmissionKey, MicroBatcher, admission_key
from repro.online.searcher import SearcherNode, observed_search
from repro.utils.flags import CASTS, FlagFields, knob

_SHED = get_registry().counter(
    "lanns_searcher_shed_total",
    "SEARCH frames refused at admission with an OVERLOADED error frame.",
)
_EXPIRED = get_registry().counter(
    "lanns_searcher_expired_total",
    "SEARCH frames rejected because their deadline budget was spent.",
)
_ABANDONED = get_registry().counter(
    "lanns_searcher_abandoned_total",
    "In-flight SEARCH frames abandoned because the client hung up.",
)
_FAULTS = get_registry().counter(
    "lanns_chaos_faults_total",
    "Chaos faults injected at the server boundary, labelled by kind.",
)

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
    """How one searcher admits, batches and perturbs its SEARCH work.

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

    #: Every ``slow_every``-th SEARCH (starting with the first) sleeps
    #: ``slow_delay_s`` before executing: a per-request stall (GC pause,
    #: queueing spike), not a uniformly slow machine.  ``slow_every=2``
    #: lets a hedged retry of a stalled request land on a fast slot;
    #: ``1`` stalls every request.
    slow_every: int = knob(
        0,
        "straggler injection: stall every Nth SEARCH request "
        "(benchmarks/tests; 0 disables)",
    )
    slow_delay_s: float = knob(
        0.0, "stall duration in seconds for --slow-every"
    )
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
    #: Only plain SEARCH frames (no probes/trace/cost extras) coalesce.
    batch_max: int = knob(
        1,
        "server-side micro-batching: coalesce up to this many query "
        "rows across connections per lockstep batch (1 disables)",
    )
    batch_wait_ms: float = knob(
        2.0, "max wait before a partial server-side micro-batch flushes"
    )
    #: A seeded :class:`~repro.net.chaos.FaultPlan` in its ``spec()``
    #: form (a plan is accepted and stored as that string, which is what
    #: crosses the process boundary); one fault decision is drawn per
    #: SEARCH frame in arrival order.
    chaos: str | None = knob(
        None,
        "seeded fault injection, e.g. "
        "'seed=42,reset_rate=0.05,delay_rate=0.1,delay_s=0.02' "
        "(see repro.net.chaos.FaultPlan)",
        flag="--chaos-spec",
    )

    def __post_init__(self) -> None:
        for spec in fields(self):
            if spec.type in CASTS:
                value = CASTS[spec.type](getattr(self, spec.name))
                object.__setattr__(self, spec.name, value)
        if self.slow_every < 0 or self.slow_delay_s < 0:
            raise ValueError("slow_every / slow_delay_s must be >= 0")
        if self.max_in_flight < 0 or self.queue_cap < 0:
            raise ValueError("max_in_flight / queue_cap must be >= 0")
        if self.retry_after_s < 0:
            raise ValueError(
                f"retry_after_s must be >= 0, got {self.retry_after_s}"
            )
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {self.batch_max}")
        chaos = self.chaos
        if isinstance(chaos, FaultPlan):
            chaos = chaos.spec()
        elif chaos:
            FaultPlan.parse(chaos)  # a bad spec is refused here, not at serve time
        object.__setattr__(self, "chaos", chaos or None)

    def without_straggler(self) -> ServerOptions:
        """This value for the members ``launch_fleet(slow_shard=)`` did not pick."""
        return replace(self, slow_every=0, slow_delay_s=0.0)


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
        both (the keywords win).  The straggler, ``queue_cap`` and
        ``retry_after_s`` fields are read off ``self.options`` per
        request, so a test may assign a ``dataclasses.replace`` copy to
        a live server; the rest is consumed when serving starts.  Frames
        are capped at ``DEFAULT_MAX_FRAME`` bytes both ways.
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
        #: Lifetime counters (surfaced through the STATS RPC).
        self.connections_accepted = 0
        self.frames_served = 0
        #: SEARCH requests seen (drives the straggler injection cycle).
        self.searches_seen = 0
        self.searches_shed = 0
        self.searches_expired = 0
        self.searches_abandoned = 0
        #: Abandoned dispatches that died with an error rather than a
        #: clean cancel; the repr of the last one aids postmortems.
        self.abandoned_errors = 0
        self._last_abandoned_error: str | None = None
        self._batcher = (
            MicroBatcher(
                self._batched_search,
                max_batch=self.options.batch_max,
                max_wait_ms=self.options.batch_wait_ms,
            )
            if self.options.batch_max > 1
            else None
        )
        #: Live connections; only the event-loop thread touches the set.
        self._connections: set[_Connection] = set()
        self._admission: asyncio.Semaphore | None = None
        #: SEARCH frames currently waiting for an admission slot.  Only
        #: the event-loop thread touches this, so no lock is needed.
        self._queued = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._failed: BaseException | None = None

    # -- request handling --------------------------------------------------------------
    async def _inject_fault(self, transport: asyncio.Transport) -> str | None:
        """Apply the chaos plan's next decision to this SEARCH frame.

        Returns the drawn kind so the connection knows whether to keep
        serving (``None``/``"delay"``), skip the response
        (``"drop"``/``"overload"``) or kill the connection (``"reset"``).
        """
        kind = self.chaos.draw()
        if kind is None:
            return None
        _FAULTS.inc(kind=kind)
        if kind == "delay":
            await asyncio.sleep(self.chaos.delay_s)
        elif kind == "overload":
            shed = OverloadedError(
                f"injected overload (shard {self.node.shard_id})",
                retry_after_s=self.options.retry_after_s,
            )
            transport.writelines(error_frame(shed))
            self.frames_served += 1
        # "reset" and "drop" need no action here: the caller closes the
        # connection / withholds the response respectively.
        return kind

    def _abandoned(self, exc: BaseException) -> None:
        """A SEARCH whose client hung up ended in ``exc``, not an answer."""
        if not isinstance(exc, asyncio.CancelledError):
            # Nobody is listening for this error any more; keep it
            # visible in stats rather than folding it into a clean cancel.
            self.abandoned_errors += 1
            self._last_abandoned_error = repr(exc)
        self.searches_abandoned += 1
        _ABANDONED.inc()

    async def _admit(self) -> bool:
        """Take an admission slot, or shed the request with OVERLOADED.

        Returns whether a slot was actually taken (``False`` when
        admission is disabled).  The shed decision and the waiter count
        both live on the event-loop thread, so check-then-act is
        race-free without a lock.
        """
        if self._admission is None:
            return False
        options = self.options
        if self._admission.locked() and self._queued >= options.queue_cap:
            self.searches_shed += 1
            _SHED.inc()
            raise OverloadedError(
                f"searcher shard {self.node.shard_id} is at capacity "
                f"({options.max_in_flight} in flight, {self._queued} queued)",
                retry_after_s=options.retry_after_s,
            )
        self._queued += 1
        try:
            await self._admission.acquire()
        finally:
            self._queued -= 1
        return True

    async def _dispatch(
        self, msg_type: MsgType, header: dict, arrays: list
    ) -> list:
        loop = asyncio.get_running_loop()
        if msg_type == MsgType.PING:
            return self._ok(shard_id=self.node.shard_id)
        if msg_type == MsgType.SEARCH:
            arrived = time.perf_counter()
            request = unpack(MsgType.SEARCH, header)
            if len(arrays) != 1:
                raise ProtocolError(
                    f"SEARCH expects 1 query array, got {len(arrays)}"
                )
            self.searches_seen += 1
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
            admitted = await self._admit()
            try:
                # Queueing may have eaten the rest of the budget: the
                # client has already given up, so executing now would
                # burn CPU on an answer nobody reads.
                self._refuse_if_spent(call, "waiting for admission")
                options = self.options
                if (
                    options.slow_every
                    and options.slow_delay_s > 0
                    and (self.searches_seen - 1) % options.slow_every == 0
                ):
                    # Injected straggler: stall this request only (the
                    # event loop keeps serving other connections).  The
                    # stall holds its admission slot -- a stalled
                    # request occupies real capacity.
                    with maybe_span(recorder, "stall", injected=True):
                        await asyncio.sleep(options.slow_delay_s)
                ids, dists, cost = await self._execute_search(loop, call, recorder)
            finally:
                if admitted:
                    self._admission.release()
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
            request = unpack(MsgType.DEPLOY, header)
            await loop.run_in_executor(None, self._deploy, request)
            return self._ok(hosted=self.node.hosted_indices)
        if msg_type == MsgType.UNDEPLOY:
            self.node.unhost(unpack(MsgType.UNDEPLOY, header).index)
            return self._ok(hosted=self.node.hosted_indices)
        if msg_type == MsgType.STATS:
            stats = self.node.stats()
            stats["connections_accepted"] = self.connections_accepted
            stats["frames_served"] = self.frames_served
            stats["options"] = asdict(self.options)
            stats["admission"] = {
                "max_in_flight": self.options.max_in_flight,
                "queue_cap": self.options.queue_cap,
                "searches_shed": self.searches_shed,
                "searches_expired": self.searches_expired,
                "searches_abandoned": self.searches_abandoned,
                "abandoned_errors": self.abandoned_errors,
                "last_abandoned_error": self._last_abandoned_error,
            }
            if self._batcher is not None:
                stats["server_microbatch"] = {
                    key: (dict(value) if isinstance(value, dict) else value)
                    for key, value in self._batcher.stats.items()
                }
            if self.chaos is not None:
                stats["chaos"] = self.chaos.snapshot()
            # The process-wide metrics snapshot rides along so a broker
            # (or `repro.cli stats`) can merge a fleet into one view.
            stats["metrics"] = get_registry().snapshot()
            return self._ok(stats=stats)
        raise ProtocolError(f"unexpected message type {msg_type!r}")

    def _refuse_if_spent(self, call: ShardCall, where: str) -> None:
        if call.deadline is not None and time.monotonic() >= call.deadline:
            self.searches_expired += 1
            _EXPIRED.inc()
            raise DeadlineExceededError(f"request budget was spent {where}")

    def _check(self, call: ShardCall) -> None:
        """Reject, before admission, a call the shard must not run.

        The header was well-typed; the *values* are still the peer's.
        A reply block is ``rows x top_k`` ids and as many distances (16
        bytes a cell), so one that cannot fit a frame this server may
        send is refused before anything allocates it, and non-finite
        query rows would search to garbage.  (``top_k < 1``, a dimension
        mismatch and bad ``probes`` are the shard's own ``ValueError`` s.)
        """
        queries = call.queries
        if queries.ndim != 2:
            raise ValueError(f"SEARCH queries must be (rows, dim), got {queries.shape}")
        if queries.shape[0] * call.top_k * 16 > DEFAULT_MAX_FRAME:
            raise ValueError(
                f"a reply of {queries.shape[0]} rows x top_k={call.top_k} "
                f"cannot fit the {DEFAULT_MAX_FRAME}-byte frame limit"
            )
        if not np.isfinite(queries).all():
            raise ValueError("SEARCH queries hold NaN or infinite values")

    async def _execute_search(
        self, loop, call: ShardCall, recorder
    ) -> tuple[np.ndarray, np.ndarray, dict | None]:
        """Run one admitted search: coalesced server-side when possible.

        Plain calls (no per-request probes/trace/cost extras) go
        through the server-side micro-batcher, which merges frames from
        *different* broker connections into one lockstep batch --
        batch-composition invariance guarantees the rows come back
        bit-identical to a solo execution.  Calls carrying extras
        execute alone on the thread-pool executor.
        """
        if (
            self._batcher is not None
            and call.probes is None
            and not call.cost
            and recorder is None
        ):
            key = admission_key(call.index, call.top_k, call.ef, call.queries)
            ids, dists = await asyncio.wrap_future(
                self._batcher.submit(key, call.queries)
            )
            return ids, dists, None
        return await loop.run_in_executor(
            None, observed_search, self.node, call, recorder
        )

    def _batched_search(
        self, key: AdmissionKey, queries: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Micro-batcher execute hook (runs on the flusher thread)."""
        return self.node.search_batch(
            key.index_name, queries, key.top_k, ef=key.ef
        )

    def _deploy(self, request) -> None:
        # Imported here: the server must start fast and the storage stack
        # pulls in the whole offline layer.
        from repro.storage.hdfs import LocalHdfs
        from repro.storage.manifest import load_shard

        root = self.root if self.root is not None else request.root
        if not root:
            raise ValueError(
                "DEPLOY needs a filesystem root: start the server with "
                "--root or include 'root' in the request"
            )
        shard = load_shard(LocalHdfs(root), request.path, self.node.shard_id)
        self.node.host(request.index, shard)

    @staticmethod
    def _ok(**fields) -> list:
        return encode_frame(MsgType.OK, pack(MsgType.OK, **fields))

    # -- lifecycle ---------------------------------------------------------------------
    async def _serve(self, on_ready=None) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        # Fresh per serve: an asyncio primitive binds to the loop that
        # first awaits it, and each run()/start_in_thread() owns a new
        # loop.
        self._admission = (
            asyncio.Semaphore(self.options.max_in_flight)
            if self.options.max_in_flight > 0
            else None
        )
        self._queued = 0
        server = await self._loop.create_server(
            partial(_Connection, self), self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        if on_ready is not None:
            on_ready(self)
        self._ready.set()
        async with server:
            await self._stop.wait()
            # No task owns a connection, so nothing else would close the
            # idle ones; an in-flight request is cancelled (not counted
            # as abandoned) by its connection_lost.
            for connection in list(self._connections):
                connection.transport.abort()
            await asyncio.sleep(0)

    def run(self, *, announce: bool = True) -> int:
        """Serve until interrupted (the ``serve-searcher`` entry point)."""

        def on_ready(server: "SearcherServer") -> None:
            if announce:
                print(
                    ready_line(server.node.shard_id, server.port), flush=True
                )

        try:
            asyncio.run(self._serve(on_ready))
        except KeyboardInterrupt:
            pass
        finally:
            if self._batcher is not None:
                self._batcher.close()
        return 0

    def start_in_thread(self, timeout: float = 30.0) -> "SearcherServer":
        """Run the server on a daemon thread; returns once it is listening.

        For tests and embedded fleets: the caller's thread stays free,
        ``self.port`` holds the bound port, :meth:`stop` shuts down.
        """

        def runner() -> None:
            try:
                asyncio.run(self._serve())
            except BaseException as exc:  # surfaced by the waiter below
                self._failed = exc
                self._ready.set()

        self._thread = threading.Thread(
            target=runner, name=f"searcher-server-{self.node.shard_id}",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("searcher server did not start in time")
        if self._failed is not None:
            raise RuntimeError("searcher server failed to start") from self._failed
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Stop a :meth:`start_in_thread` server (idempotent).

        Raises :class:`TimeoutError` if the server thread is still alive
        after ``timeout`` -- a silent return here would leak a live
        server holding the port and make the next bind-to-same-port
        restart fail mysteriously.
        """
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise TimeoutError(
                    f"searcher server thread (shard {self.node.shard_id}, "
                    f"port {self.port}) still alive after {timeout}s"
                )
            self._thread = None
        if self._batcher is not None:
            self._batcher.close()

    @property
    def address(self) -> str:
        """``host:port`` once the server is listening."""
        return f"{self.host}:{self.port}"


class _Connection(asyncio.Protocol):
    """One accepted socket: frames in, one request at a time, frames out.

    ``data_received`` feeds the frame reader and queues what it
    completes; the head of the queue runs as one task (:meth:`_answer`)
    that ends with the response's single ``writelines``.  The next
    frame starts when that task is done *and* the transport is not
    holding an unflushed response (``pause_writing``), and while frames
    are queued behind it the socket is not read, so a peer that
    pipelines or stops reading is back-pressured instead of buffered.
    """

    def __init__(self, server: SearcherServer) -> None:
        self.server = server
        self.reader = FrameReader()
        self.transport: asyncio.Transport | None = None
        #: Decoded frames not started yet -- or, last, the
        #: :class:`ProtocolError` that ended the stream.
        self.pending: deque = deque()
        self.task: asyncio.Task | None = None
        self.write_paused = False
        #: The peer went away while ``task`` was running.
        self.hung_up = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server.connections_accepted += 1
        self.server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            self.pending.extend(self.reader.feed(data))
        except ProtocolError as exc:
            self.pending.append(exc)
        self._pump()

    def eof_received(self) -> None:
        """The protocol is one frame in, one frame out, so a peer that
        closes its sending side is gone: returning ``None`` closes the
        transport and :meth:`connection_lost` abandons what is in flight."""
        if self.task is None:
            error = self.reader.eof_error()
            if isinstance(error, ProtocolError):  # cut off mid-frame
                self.pending.append(error)
                self._pump()

    def connection_lost(self, exc: Exception | None) -> None:
        """Hang-up (client timed out, failed over, or cancelled a hedge
        loser): nobody wants the answer any more, so the request is
        cancelled -- queued work frees its admission slot at once, work
        already on an executor thread finishes and is discarded."""
        self.server._connections.discard(self)
        self.pending.clear()
        if self.task is not None:
            self.hung_up = not self.server._stop.is_set()
            self.task.cancel()

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._pump()

    def _hang_up(self) -> None:
        self.pending.clear()
        self.transport.close()  # after flushing what was already written

    def _pump(self) -> None:
        """Start the next queued request if the connection is free."""
        if self.task is None and not self.write_paused and self.pending:
            item = self.pending.popleft()
            if isinstance(item, ProtocolError):
                # Tell the peer what broke, then drop the connection:
                # after a garbled frame the stream offset is unknown.
                self.transport.writelines(error_frame(item))
                self._hang_up()
            else:
                self.task = self.server._loop.create_task(self._answer(*item))
        # Both calls are idempotent: read only while nothing is waiting.
        if self.pending:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()

    async def _answer(
        self, msg_type: MsgType, header: dict, arrays: list
    ) -> None:
        server = self.server
        try:
            if msg_type == MsgType.SEARCH and server.chaos is not None:
                action = await server._inject_fault(self.transport)
                if action == "reset":
                    self._hang_up()
                if action in ("reset", "drop", "overload"):
                    return
            try:
                response = await server._dispatch(msg_type, header, arrays)
            except Exception as exc:  # -> structured error frame
                if self.hung_up:
                    raise
                response = error_frame(exc)
            server.frames_served += 1
            self.transport.writelines(response)
        except BaseException as exc:
            if not self.hung_up:
                raise  # server shutdown, or a bug asyncio should report
            if msg_type == MsgType.SEARCH:
                server._abandoned(exc)
        finally:
            self.task = None
            self._pump()
