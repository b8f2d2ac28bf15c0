"""``SearcherTransport``: one interface for in-process and remote shards.

The broker fans a batch out to *transports*; whether a shard lives in
this process (a :class:`~repro.online.searcher.SearcherNode`) or behind
a TCP connection (a :class:`~repro.net.client.RemoteSearcherClient`) is
invisible above this line.  That is what lets the micro-batcher, the
result cache, the perShardTopK math and the merge run unchanged when the
fleet moves out of process.

A transport that also implements :class:`AsyncSearcherTransport` is
awaited on the broker's fan-out loop; the one remote transport does, so
any fleet holding it is searched there (failover, hedging and the
retry-after pause live only on that loop).

Deadlines: ``search_batch`` takes an absolute ``time.monotonic()``
deadline.  The remote transport enforces it on the wire; the local
transport *ignores* it -- in-process numpy work is not cancellable, and
the broker already bounds its own wait on the fan-out future.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.net.client import (
    CONNECTIVITY_FAILURES,
    RemoteSearcherClient,
    fill_info_out,
)
from repro.obs.tracing import SpanRecorder
from repro.online.searcher import SearcherNode, observed_search_batch

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
    def search_batch(
        self,
        index_name: str,
        queries: np.ndarray,
        k: int,
        *,
        ef: int | None = None,
        deadline: float | None = None,
        probes: list[tuple[int, ...]] | None = None,
        trace_ctx: dict | None = None,
        collect_cost: bool = False,
        info_out: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lockstep shard search; ``(B, k)`` id/distance arrays.

        ``trace_ctx`` propagates the broker's trace context (the shard
        then reports its span tree), ``collect_cost`` asks for
        search-cost counters; both land in ``info_out`` under the
        ``"trace"`` / ``"cost"`` keys when produced.  Results are
        bit-identical with or without them.
        """

    @property
    @abc.abstractmethod
    def queries_served(self) -> int:
        """Query rows this transport answered (fleet traffic counter)."""

    @abc.abstractmethod
    def stats(self) -> dict:
        """Counters of the underlying searcher."""

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
    async def search_batch_async(
        self,
        index_name: str,
        queries: np.ndarray,
        k: int,
        *,
        ef: int | None = None,
        deadline: float | None = None,
        probes: list[tuple[int, ...]] | None = None,
        trace_ctx: dict | None = None,
        collect_cost: bool = False,
        info_out: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Coroutine twin of :meth:`SearcherTransport.search_batch`."""


class LocalSearcherTransport(SearcherTransport):
    """In-process shard: direct method calls on a :class:`SearcherNode`."""

    def __init__(self, node: SearcherNode) -> None:
        self.node = node
        self.shard_id = node.shard_id

    def search_batch(
        self,
        index_name: str,
        queries: np.ndarray,
        k: int,
        *,
        ef: int | None = None,
        deadline: float | None = None,
        probes: list[tuple[int, ...]] | None = None,
        trace_ctx: dict | None = None,
        collect_cost: bool = False,
        info_out: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        recorder = SpanRecorder() if trace_ctx is not None else None
        ids, dists, cost = observed_search_batch(
            self.node,
            index_name,
            queries,
            k,
            ef=ef,
            probes=probes,
            collect_cost=collect_cost,
            recorder=recorder,
        )
        fill_info_out(
            info_out,
            cost=cost,
            trace=recorder.export() if recorder is not None else None,
        )
        return ids, dists

    @property
    def queries_served(self) -> int:
        return self.node.queries_served

    def stats(self) -> dict:
        return self.node.stats()

    def __repr__(self) -> str:
        return f"LocalSearcherTransport({self.node!r})"


class RemoteSearcherTransport(SearcherTransport, AsyncSearcherTransport):
    """A shard behind TCP, driven through one :class:`RemoteSearcherClient`.

    Both search paths are the same client code on different threads:
    :meth:`search_batch_async` awaits the client's asyncio core on the
    caller's event loop (the broker's fan-out), while
    :meth:`search_batch` and the control plane (``verify`` / ``deploy``
    / ``undeploy`` / ``stats``) block a plain thread on the facade.

    ``shard_id`` is the position this transport holds in the broker's
    fleet; :meth:`verify` confirms the process at ``address`` actually
    serves that shard (deploy-time sanity check).
    """

    def __init__(
        self,
        address: str | tuple,
        shard_id: int,
        *,
        client: RemoteSearcherClient | None = None,
        **client_kwargs,
    ) -> None:
        self.client = (
            client
            if client is not None
            else RemoteSearcherClient(address, **client_kwargs)
        )
        self.shard_id = int(shard_id)

    @property
    def address(self) -> str:
        return self.client.address

    def verify(self, *, deadline: float | None = None) -> None:
        """Ping the remote process and check it serves our shard."""
        remote_shard = self.client.ping(deadline=deadline)
        if remote_shard != self.shard_id:
            raise ValueError(
                f"searcher at {self.address} serves shard {remote_shard}, "
                f"expected shard {self.shard_id}"
            )

    def search_batch(
        self,
        index_name: str,
        queries: np.ndarray,
        k: int,
        *,
        ef: int | None = None,
        deadline: float | None = None,
        probes: list[tuple[int, ...]] | None = None,
        trace_ctx: dict | None = None,
        collect_cost: bool = False,
        info_out: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.client.search_batch(
            index_name,
            queries,
            k,
            ef=ef,
            deadline=deadline,
            probes=probes,
            trace_ctx=trace_ctx,
            collect_cost=collect_cost,
            info_out=info_out,
        )

    async def search_batch_async(
        self,
        index_name: str,
        queries: np.ndarray,
        k: int,
        *,
        ef: int | None = None,
        deadline: float | None = None,
        probes: list[tuple[int, ...]] | None = None,
        trace_ctx: dict | None = None,
        collect_cost: bool = False,
        info_out: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        return await self.client.core.search_batch(
            index_name,
            queries,
            k,
            ef=ef,
            deadline=deadline,
            probes=probes,
            trace_ctx=trace_ctx,
            collect_cost=collect_cost,
            info_out=info_out,
        )

    def deploy(
        self,
        index_name: str,
        index_path: str,
        *,
        root: str | None = None,
        deadline: float | None = None,
    ) -> None:
        self.client.deploy(
            index_name, index_path, root=root, deadline=deadline
        )

    def undeploy(
        self, index_name: str, *, deadline: float | None = None
    ) -> None:
        self.client.undeploy(index_name, deadline=deadline)

    @property
    def queries_served(self) -> int:
        # Client-side count of rows answered: stats() would cost an RPC
        # (and fail for a dead searcher) on every Broker.stats() call.
        return self.client.queries_served

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
#: ``search_batch_async`` on) it.
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
