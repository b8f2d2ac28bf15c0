"""Searcher nodes: the per-shard serving processes.

"The first stage of the two-step merging, i.e., the shard level merging,
happens at the machine where the shard is hosted (called a 'searcher')."

A searcher can host the same shard of *several* indices ("to enable
online A/B tests between different modeling techniques"), keyed by index
name.  Hosting changes (deploy/undeploy) may race in-flight searches on
other threads (an in-process broker's callers, the searcher server's
executor), so the hosting table is copy-on-write: a search either sees
an index fully attached or not at all, never a half-mutated dict.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.core.index import ShardIndex
from repro.obs.cost import FIELDS as _COST_FIELDS
from repro.obs.cost import SearchCost
from repro.obs.metrics import get_registry
from repro.obs.tracing import SpanRecorder, activate, deactivate

if TYPE_CHECKING:  # repro.net imports this module: annotation only
    from repro.net.protocol import ShardCall

_REGISTRY = get_registry()
_REQUESTS = _REGISTRY.counter(
    "lanns_searcher_requests_total", "Fan-out requests served by a searcher."
)
_QUERIES = _REGISTRY.counter(
    "lanns_searcher_queries_total", "Query rows served by a searcher."
)
_MEMORY_VECTORS = _REGISTRY.gauge(
    "lanns_searcher_memory_vectors",
    "Vectors resident on a searcher across hosted indices.",
)
_COST_COUNTERS = {
    field: _REGISTRY.counter(
        f"lanns_search_cost_{field}_total",
        f"Accumulated per-query search cost: {field}.",
    )
    for field in _COST_FIELDS
}


class SearcherNode:
    """One serving machine hosting shard ``shard_id`` of named indices."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = int(shard_id)
        self._indices: dict[str, ShardIndex] = {}
        self._host_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        #: Lifetime counters: fan-out requests and query rows served.
        self.requests_served = 0
        self.queries_served = 0

    def _count_request(self, num_queries: int) -> None:
        # Fan-out pools may run several batches against this searcher at
        # once; += on an attribute is not atomic, so take the lock.
        with self._stats_lock:
            self.requests_served += 1
            self.queries_served += num_queries
        _REQUESTS.inc(shard=self.shard_id)
        _QUERIES.inc(num_queries, shard=self.shard_id)

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
        """Counters snapshot (served verbatim by the STATS RPC).

        One *consistent* snapshot: the hosting table reference and the
        counters are captured under the same lock, so a concurrent
        deploy/undeploy cannot yield a report whose ``hosted_indices``
        and ``memory_vectors`` disagree with the counters' point in
        time.  (The table itself is copy-on-write, so the captured
        reference is immutable.)
        """
        with self._stats_lock:
            indices = self._indices
            requests, queries = self.requests_served, self.queries_served
        return {
            "shard_id": self.shard_id,
            "hosted_indices": sorted(indices),
            "memory_vectors": sum(len(shard) for shard in indices.values()),
            "requests_served": requests,
            "queries_served": queries,
        }

    def memory_vectors(self) -> int:
        """Total stored vectors across hosted indices.

        "The majority of storage needed in the online node comes from the
        vector representations" -- this is the proxy the capacity tests
        use.
        """
        return sum(len(shard) for shard in self._indices.values())

    # -- serving --------------------------------------------------------------------
    def search_batch(
        self,
        index_name: str,
        queries: np.ndarray,
        k: int,
        *,
        ef: int | None = None,
        probes: list[tuple[int, ...]] | None = None,
        cost=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Serve a query batch against the hosted shard of ``index_name``.

        One network round-trip's worth of work in the real system: the
        broker ships the whole batch, the searcher lockstep-searches its
        shard and returns ``(B, k)`` id/distance arrays (padded with
        ``-1`` / ``inf``).  ``probes`` carries the broker router's
        segment choice (see :meth:`ShardIndex.search_batch`).

        ``cost`` optionally accumulates this request's search work; the
        collected increments are also flushed into the process metrics
        registry under this searcher's ``shard`` label.
        """
        self._count_request(int(np.asarray(queries).shape[0]))
        before = cost.as_dict() if cost is not None else None
        result = self._shard(index_name).search_batch(
            queries, k, ef=ef, probes=probes, cost=cost
        )
        if cost is not None:
            for field, counter in _COST_COUNTERS.items():
                delta = getattr(cost, field) - before[field]
                if delta:
                    counter.inc(delta, shard=self.shard_id)
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
            probes=call.probes,
            cost=cost,
        )
    finally:
        if token is not None:
            deactivate(token)
    return ids, dists, (cost.as_dict() if cost is not None else None)
