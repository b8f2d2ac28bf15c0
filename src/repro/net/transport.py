"""``SearcherTransport``: one interface for in-process and remote shards.

The broker fans a batch out to *transports*; whether a shard lives in
this process (a :class:`~repro.online.searcher.SearcherNode`) or behind
a TCP connection (a :class:`~repro.net.client.RemoteSearcherClient`) is
invisible above this line.  That is what lets the micro-batcher, the
result cache, the perShardTopK math and the merge run unchanged when the
fleet moves out of process.

The whole shard contract is ``search(call) -> reply``: one immutable
:class:`~repro.net.protocol.ShardCall` (the SEARCH message: index, query
block, ``top_k``, ``ef``, ``trace``, ``cost``, ``deadline``)
in, one :class:`~repro.net.protocol.ShardReply` (ids, dists, ``cost``,
``trace``) out.  No transport spells those fields: a new per-request
signal is one entry appended to ``FRAME_FIELDS`` and one dataclass
field, set where the call is built and read where it is served.

A transport that also implements :class:`AsyncSearcherTransport` is
awaited on the broker's fan-out loop; the one remote transport does, so
any fleet holding it is searched there (failover, hedging and the
retry-after pause live only on that loop).

Deadlines: ``call.deadline`` is an absolute ``time.monotonic()`` instant.
The remote transport enforces it on the wire; the local transport
*ignores* it -- in-process numpy work is not cancellable, and the broker
already bounds its own wait on the fan-out future.
"""

from __future__ import annotations

import abc

from repro.net.client import CONNECTIVITY_FAILURES, RemoteSearcherClient
from repro.net.protocol import ShardCall, ShardReply
from repro.obs.tracing import SpanRecorder
from repro.online.searcher import SearcherNode, observed_search

__all__ = [
    "SearcherTransport",
    "AsyncSearcherTransport",
    "LocalSearcherTransport",
    "RemoteSearcherTransport",
    "as_transport",
    "CONNECTIVITY_FAILURES",
]


class SearcherTransport(abc.ABC):
    """What the broker needs from a shard, wherever it runs."""

    shard_id: int

    @abc.abstractmethod
    def search(self, call: ShardCall) -> ShardReply:
        """Lockstep shard search of ``call.queries``."""

    @abc.abstractmethod
    def stats(self) -> dict:
        """The underlying searcher's identity and ``counts`` (in process
        ``SearcherNode.stats``, remotely its STATS reply)."""

    def close(self) -> None:
        """Release transport resources (no-op for in-process shards)."""


class AsyncSearcherTransport(abc.ABC):
    """Marker + contract for transports with a native-async search path.

    The broker's asyncio fan-out multiplexes every transport that
    implements this on one event loop; transports without it (the
    in-process kind) fall back to an executor call.  Implementations
    must tolerate several concurrent :meth:`search_batch_async` calls
    for one shard -- that is exactly what a hedged request is.
    """

    @abc.abstractmethod
    async def search_batch_async(self, call: ShardCall) -> ShardReply:
        """Coroutine twin of :meth:`SearcherTransport.search` (the name
        is the frozen ledger's patch point; goes with ROADMAP 1(c))."""


class LocalSearcherTransport(SearcherTransport):
    """In-process shard: the observed search of a :class:`SearcherNode`."""

    def __init__(self, node: SearcherNode) -> None:
        self.node = node
        self.shard_id = node.shard_id

    def search(self, call: ShardCall) -> ShardReply:
        recorder = SpanRecorder() if call.trace is not None else None
        ids, dists, cost = observed_search(self.node, call, recorder)
        return ShardReply(
            ids, dists, cost, recorder.export() if recorder is not None else None
        )

    def stats(self) -> dict:
        return self.node.stats()

    def __repr__(self) -> str:
        return f"LocalSearcherTransport({self.node!r})"


class RemoteSearcherTransport(SearcherTransport, AsyncSearcherTransport):
    """A shard behind TCP, driven through one :class:`RemoteSearcherClient`.

    Both search paths are the same client code on different threads:
    :meth:`search_batch_async` awaits the client's asyncio core on the
    caller's event loop (the broker's fan-out), while :meth:`search`
    and the control plane (``verify`` / ``deploy`` / ``undeploy`` /
    ``stats``) block a plain thread on the facade.

    ``shard_id`` is the position this transport holds in the broker's
    fleet; :meth:`verify` confirms the process at ``address`` actually
    serves that shard (deploy-time sanity check).
    """

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

    async def search_batch_async(self, call: ShardCall) -> ShardReply:
        return await self.client.core.search(call)

    def search_batch(self, *call, **fields) -> ShardReply:
        """The frozen ledger's blocking probe; goes with ROADMAP 1(c)."""
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


#: The name the remote transport had while a blocking-only sibling
#: existed; the frozen ``benchmarks/ledger`` still imports (and patches
#: ``search_batch_async`` on) it.  Goes with ROADMAP 1(c).
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
