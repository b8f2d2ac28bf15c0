"""Searcher nodes: the per-shard serving processes.

"The first stage of the two-step merging, i.e., the shard level merging,
happens at the machine where the shard is hosted (called a 'searcher')."

A searcher can host the same shard of *several* indices ("to enable
online A/B tests between different modeling techniques"), keyed by index
name.  Hosting changes (deploy/undeploy) may race in-flight searches on
other threads (an in-process broker's callers, the searcher server's
connection threads), so the hosting table is copy-on-write: a search
either sees an index fully attached or not at all, never a half-mutated
dict.

What a searcher process holds beside its shard (``VmRSS`` of a fresh
``python3.11`` on x86-64 with numpy 2.4, serving a 600 x 32 shard whose
vectors take 75 KiB): the interpreter 13.3 MiB, numpy 13.7 MiB, the
package and the stdlib it imports 9.8 MiB, the deploy 1.9 MiB, and 50
SEARCHes and a STATS 0.7 MiB more -- 39.4 MiB in all, 44.3 MiB when the
client imported asyncio (and with it ssl, 2.6 MiB) and every loaded
segment built a level RNG (numpy.random, 2.3 MiB) and an id list and
dict (~90 B per vector).  A loaded segment keeps its arrays: its ids
are one int64 array, and nothing on the load path calls ``np.unique``,
which imports numpy.ma (~3 MiB).  ``tests/test_serving_footprint.py``
pins both.  Each serving thread's visited scratch is the next cost per
vector (ROADMAP 6).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.core.index import ShardIndex
from repro.obs.cost import FIELDS as _COST_FIELDS
from repro.obs.cost import SearchCost
from repro.obs.metrics import Tally, get_registry
from repro.obs.tracing import SpanRecorder, activate, deactivate

if TYPE_CHECKING:  # repro.net imports this module: annotation only
    from repro.net.protocol import ShardCall

_REGISTRY = get_registry()
#: What a searcher counts, by :class:`~repro.obs.metrics.Tally` name: the
#: fan-out requests and query rows it served, and the search work of
#: the requests that asked for cost accounting.
_COUNTERS = {
    "requests_served": _REGISTRY.counter(
        "lanns_searcher_requests_total", "Fan-out requests served by a searcher."
    ),
    "queries_served": _REGISTRY.counter(
        "lanns_searcher_queries_total", "Query rows served by a searcher."
    ),
    **_REGISTRY.counters(
        "lanns_search_cost",
        **{field: f"Accumulated search cost: {field}." for field in _COST_FIELDS},
    ),
}
_MEMORY_VECTORS = _REGISTRY.gauge(
    "lanns_searcher_memory_vectors",
    "Vectors resident on a searcher across hosted indices.",
)


class SearcherNode:
    """One serving machine hosting shard ``shard_id`` of named indices."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = int(shard_id)
        self._indices: dict[str, ShardIndex] = {}
        self._host_lock = threading.Lock()
        self.tally = Tally(_COUNTERS, shard=self.shard_id)

    # -- hosting -----------------------------------------------------------------
    def host(self, index_name: str, shard: ShardIndex) -> None:
        """Attach one index's shard under ``index_name``."""
        if shard.shard_id != self.shard_id:
            raise ValueError(
                f"searcher {self.shard_id} cannot host shard "
                f"{shard.shard_id}"
            )
        with self._host_lock:
            if index_name in self._indices:
                raise ValueError(
                    f"searcher {self.shard_id} already hosts index "
                    f"{index_name!r}"
                )
            updated = dict(self._indices)
            updated[index_name] = shard
            self._indices = updated
            _MEMORY_VECTORS.set(
                sum(len(s) for s in updated.values()), shard=self.shard_id
            )

    def deploy(self, index_name: str, index_path: str, *, root: str) -> None:
        """Load this node's shard of the index exported at ``index_path``
        under the filesystem ``root`` and host it as ``index_name``."""
        # Imported here: a searcher server must start fast and the
        # storage stack pulls in the whole offline layer.
        from repro.storage.hdfs import LocalHdfs
        from repro.storage.manifest import load_shard

        self.host(index_name, load_shard(LocalHdfs(root), index_path, self.shard_id))

    def unhost(self, index_name: str) -> None:
        """Detach a hosted index (e.g. at the end of an A/B test)."""
        with self._host_lock:
            if index_name not in self._indices:
                raise KeyError(f"index {index_name!r} is not hosted here")
            updated = dict(self._indices)
            del updated[index_name]
            self._indices = updated
            _MEMORY_VECTORS.set(
                sum(len(s) for s in updated.values()), shard=self.shard_id
            )

    @property
    def hosted_indices(self) -> list[str]:
        """Names of the indices this searcher serves."""
        return sorted(self._indices)

    def stats(self) -> dict:
        """Identity and counts: the core of the STATS RPC's reply.

        ``hosted_indices`` and ``memory_vectors`` (total stored vectors:
        "the majority of storage needed in the online node comes from the
        vector representations") come from one read of the copy-on-write
        hosting table, so a concurrent deploy cannot make them disagree.
        """
        with self._host_lock:
            indices = self._indices
        return {
            "shard_id": self.shard_id,
            "hosted_indices": sorted(indices),
            "memory_vectors": sum(len(shard) for shard in indices.values()),
            "counts": self.tally.snapshot(),
        }

    # -- serving --------------------------------------------------------------------
    def search_batch(
        self,
        index_name: str,
        queries: np.ndarray,
        k: int,
        *,
        ef: int | None = None,
        cost=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Serve a query batch against the hosted shard of ``index_name``.

        One network round-trip's worth of work in the real system: the
        broker ships the whole batch, the searcher lockstep-searches its
        shard and returns ``(B, k)`` id/distance arrays (padded with
        ``-1`` / ``inf``); the shard routes each row itself.

        ``cost`` optionally accumulates this request's search work; the
        collected increments are also counted into this searcher's tally.
        """
        counts = {
            "requests_served": 1,
            "queries_served": int(np.asarray(queries).shape[0]),
        }
        before = cost.as_dict() if cost is not None else None
        try:
            result = self._shard(index_name).search_batch(
                queries, k, ef=ef, cost=cost
            )
            if cost is not None:
                for field in _COST_FIELDS:
                    delta = getattr(cost, field) - before[field]
                    if delta:
                        counts[field] = delta
        finally:
            # A refused request is served too; only a search's work counts.
            self.tally.count_each(counts)
        return result

    def _shard(self, index_name: str):
        try:
            return self._indices[index_name]
        except KeyError:
            raise KeyError(
                f"searcher {self.shard_id} does not host index "
                f"{index_name!r} (hosted: {self.hosted_indices})"
            ) from None

    def __repr__(self) -> str:
        return (
            f"SearcherNode(shard_id={self.shard_id}, "
            f"indices={self.hosted_indices})"
        )


def observed_search(
    node: SearcherNode, call: ShardCall, recorder: SpanRecorder | None = None
) -> tuple[np.ndarray, np.ndarray, dict | None]:
    """Serve one :class:`~repro.net.protocol.ShardCall` on ``node`` under
    the call's observability extras; returns ``(ids, dists, cost)``.

    ``call.cost`` accounts the search work (``cost`` is the counters
    dict, else ``None``); ``recorder`` is installed as the ambient span
    recorder for the duration, so the kernels report their
    descend/beam/rescore spans into it.  Call it on the thread that
    searches: context variables do not follow ``run_in_executor``.
    Results are bit-identical with or without the extras.
    """
    cost = SearchCost() if call.cost else None
    token = activate(recorder) if recorder is not None else None
    try:
        ids, dists = node.search_batch(
            call.index,
            call.queries,
            call.top_k,
            ef=call.ef,
            cost=cost,
        )
    finally:
        if token is not None:
            deactivate(token)
    return ids, dists, (cost.as_dict() if cost is not None else None)
