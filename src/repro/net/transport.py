"""``SearcherTransport``: one interface for in-process and remote shards.

The broker fans a batch out to *transports*; whether a shard lives in
this process (a :class:`~repro.online.searcher.SearcherNode`) or behind
a TCP connection (a :class:`~repro.net.client.RemoteSearcherClient`) is
invisible above this line.  That is what lets the micro-batcher, the
result cache, the perShardTopK math and the merge run unchanged when the
fleet moves out of process.

The data contract is ``start_search(call).result() -> reply``: one
immutable :class:`~repro.net.protocol.ShardCall` (the SEARCH message:
index, query block, ``top_k``, ``ef``, ``trace``, ``cost``,
``deadline``) in, one :class:`~repro.net.protocol.ShardReply` (ids,
dists, ``cost``, ``trace``) out.  No transport spells those fields: a
new per-request signal is one entry appended to ``FRAME_FIELDS`` and
one dataclass field, set where the call is built and read where it is
served.

The broker's fan-out starts every shard's RPC with ``start_search`` and
polls them together on the caller's thread; the service deploys with
``verify`` / ``deploy`` / ``undeploy``.  Those four and ``stats`` are
the abstract set, so a fleet may mix the two transports freely.  An
in-process ``start_search`` searches before it returns
(:class:`AnsweredRpc`): numpy work cannot be cancelled, so that attempt
is never hedged, failed over or paused.
``remote`` is the one thing a caller may ask: whether a blocking poll
or a hedge can ever be needed.

Deadlines: ``call.deadline`` is an absolute ``time.monotonic()`` instant.
The remote transport enforces it on the wire; the local transport
*ignores* it -- in-process numpy work is not cancellable.
"""

from __future__ import annotations

import abc
import asyncio
import math

from repro.net.client import CONNECTIVITY_FAILURES, RemoteSearcherClient, Rpc
from repro.net.protocol import ShardCall, ShardReply
from repro.obs.tracing import SpanRecorder
from repro.online.searcher import SearcherNode, observed_search
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import load_shard

__all__ = [
    "SearcherTransport",
    "LocalSearcherTransport",
    "RemoteSearcherTransport",
    "as_transport",
    "CONNECTIVITY_FAILURES",
]


class SearcherTransport(abc.ABC):
    """What the broker and the service need from a shard, wherever it runs."""

    shard_id: int
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


class AnsweredRpc:
    """An in-process shard RPC: answered before :meth:`start_search`
    returned, so the fan-out's poll never waits on it."""

    __slots__ = ("reply",)
    done = True
    error = None
    wake_at = math.inf

    def __init__(self, reply: ShardReply) -> None:
        self.reply = reply

    def result(self) -> ShardReply:
        return self.reply


class LocalSearcherTransport(SearcherTransport):
    """In-process shard: the observed search of a :class:`SearcherNode`.

    The control plane mirrors :class:`~repro.net.server.SearcherServer`'s:
    ``deploy`` loads the node's shard from the filesystem at ``root``.
    """

    def __init__(self, node: SearcherNode) -> None:
        self.node = node
        self.shard_id = node.shard_id

    def start_search(self, call: ShardCall) -> AnsweredRpc:
        """Search ``call`` now; an exception is the caller's."""
        recorder = SpanRecorder() if call.trace is not None else None
        ids, dists, cost = observed_search(self.node, call, recorder)
        return AnsweredRpc(ShardReply(
            ids, dists, cost, recorder.export() if recorder is not None else None
        ))

    def verify(self) -> None:
        """Nothing to check: the node is the shard."""

    def deploy(self, index_name: str, index_path: str, *, root: str) -> None:
        shard = load_shard(LocalHdfs(root), index_path, self.shard_id)
        self.node.host(index_name, shard)

    def undeploy(self, index_name: str) -> None:
        self.node.unhost(index_name)

    def stats(self) -> dict:
        return self.node.stats()

    def __repr__(self) -> str:
        return f"LocalSearcherTransport({self.node!r})"


class RemoteSearcherTransport(SearcherTransport):
    """A shard behind TCP, driven through one :class:`RemoteSearcherClient`.

    :meth:`start_search` starts a shard RPC for the broker's fan-out to
    poll; :meth:`search` and the control plane (``verify`` / ``deploy``
    / ``undeploy`` / ``stats``) block the calling thread on the same
    client.

    ``shard_id`` is the position this transport holds in the broker's
    fleet; :meth:`verify` confirms the process at ``address`` actually
    serves that shard (deploy-time sanity check).
    """

    remote = True

    def __init__(
        self, address: str | tuple, shard_id: int, **client_kwargs
    ) -> None:
        self.client = RemoteSearcherClient(address, **client_kwargs)
        self.shard_id = int(shard_id)

    @property
    def address(self) -> str:
        return self.client.address

    def verify(self) -> None:
        """Ping the remote process and check it serves our shard."""
        remote_shard = self.client.ping()
        if remote_shard != self.shard_id:
            raise ValueError(
                f"searcher at {self.address} serves shard {remote_shard}, "
                f"expected shard {self.shard_id}"
            )

    def search(self, call: ShardCall) -> ShardReply:
        return self.client.search(call)

    def start_search(self, call: ShardCall) -> Rpc:
        """Send ``call``; the fan-out polls the returned RPC."""
        return self.client.start_search(call)

    # The frozen ``benchmarks/ledger`` imports, calls or patches these;
    # nothing under ``src/`` does.  They go with ROADMAP 2(a).
    async def search_batch_async(self, call: ShardCall) -> ShardReply:
        return await asyncio.to_thread(self.search, call)

    def search_batch(self, *call, **fields) -> ShardReply:
        return self.search(ShardCall(*call, **fields))

    def deploy(
        self, index_name: str, index_path: str, *, root: str | None = None
    ) -> None:
        self.client.deploy(index_name, index_path, root=root)

    def undeploy(self, index_name: str) -> None:
        self.client.undeploy(index_name)

    def stats(self) -> dict:
        return self.client.stats()

    def close(self) -> None:
        self.client.close()

    def __repr__(self) -> str:
        return (
            f"RemoteSearcherTransport({self.address!r}, "
            f"shard_id={self.shard_id})"
        )


#: The frozen ``benchmarks/ledger`` imports this name; goes with ROADMAP 2(a).
AsyncRemoteSearcherTransport = RemoteSearcherTransport


def as_transport(searcher) -> SearcherTransport:
    """Wrap a raw :class:`SearcherNode` (transports pass through)."""
    if isinstance(searcher, SearcherTransport):
        return searcher
    if isinstance(searcher, SearcherNode):
        return LocalSearcherTransport(searcher)
    raise TypeError(
        f"cannot drive {type(searcher).__name__} as a searcher transport"
    )
