"""``SearcherTransport``: one interface for in-process and remote shards.

The broker fans a batch out to *transports*: ``LocalSearcherTransport``
in process (a :class:`~repro.online.searcher.SearcherNode`),
:class:`~repro.net.client.RemoteSearcherClient` over TCP.  Which one a
shard is stays invisible above this line, so the micro-batcher, the
result cache, the perShardTopK math and the merge run unchanged when
the fleet moves out of process.  The interface itself lives beside the
messages it carries, in :mod:`repro.net.protocol`.

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
The remote client enforces it on the wire; the local transport
*ignores* it -- in-process numpy work is not cancellable.
"""

from __future__ import annotations

import math

from repro.net.client import RemoteSearcherClient
from repro.net.protocol import SearcherTransport, ShardCall, ShardReply
from repro.obs.tracing import SpanRecorder
from repro.online.searcher import SearcherNode, observed_search

__all__ = [
    "SearcherTransport",
    "LocalSearcherTransport",
    "as_transport",
]


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
    ``deploy`` is the node's own, loading its shard from ``root``.
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
        self.node.deploy(index_name, index_path, root=root)

    def undeploy(self, index_name: str) -> None:
        self.node.unhost(index_name)

    def stats(self) -> dict:
        return self.node.stats()

    def __repr__(self) -> str:
        return f"LocalSearcherTransport({self.node!r})"


#: The frozen ``benchmarks/ledger`` imports these names; nothing under
#: ``src/`` does.  They go with ROADMAP 2(a).
RemoteSearcherTransport = AsyncRemoteSearcherTransport = RemoteSearcherClient


def as_transport(searcher) -> SearcherTransport:
    """Wrap a raw :class:`SearcherNode` (transports pass through)."""
    if isinstance(searcher, SearcherTransport):
        return searcher
    if isinstance(searcher, SearcherNode):
        return LocalSearcherTransport(searcher)
    raise TypeError(
        f"cannot drive {type(searcher).__name__} as a searcher transport"
    )
