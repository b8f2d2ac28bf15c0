"""The broker: routing, perShardTopK, fan-out, final merge.

"The final merge happens at the broker or the client. The broker is also
responsible for calculating and passing the perShardTopK to each shard."

:meth:`Broker.execute` takes a frozen
:class:`~repro.online.types.SearchRequest` and returns a
:class:`~repro.online.types.SearchResponse`, the one way to ask a
fleet.  It is a pipeline, each step one stage of the broker's
:class:`~repro.obs.clock.StageClock`::

    validate -> cache -> admit -> route -> fan out -> merge -> record

- **cache -> admit** (:meth:`Broker._serve`): every row is answered
  from the result cache (:mod:`repro.online.cache`) where it can be,
  and the misses are one block the micro-batcher
  (:mod:`repro.online.microbatch`) may coalesce with other threads'
  blocks under the same admission key.
- **route** (:mod:`repro.online.router`), per admitted block, only
  where the index's occupancy table leaves something to prune: each
  row is routed by the segmenter's own rule -- the one every shard
  runs -- and sent only to the shard groups hosting its segments.
  Routing is a pure function of the query, so it changes no answer,
  cache key or admission key.
- **fan out** (:mod:`repro.online.fanout`) on the calling thread, one
  path for in-process and remote shards alike, with replica failover
  (:mod:`repro.online.failover`) and hedged requests
  (:mod:`repro.online.hedging`) for the remote ones.
- **merge**: :func:`~repro.core.merge.merge_shard_results_batch` over
  the fan-out's full-width parts.  None of those modules imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from repro.core.config import LannsConfig
from repro.core.merge import empty_part, merge_shard_results_batch
from repro.net.protocol import ShardCall
from repro.obs.clock import StageClock
from repro.obs.cost import SearchCost
from repro.obs.metrics import Tally, get_registry
from repro.obs.tracing import Trace, Tracer
from repro.online.cache import QueryResultCache, result_cache_key
from repro.online.failover import PARTIAL_POLICIES, deadline_after
from repro.online.fanout import Batch, FanOut, work_list
from repro.online.hedging import resolve_hedge_delay
from repro.online.microbatch import AdmissionKey, MicroBatcher, admission_key
from repro.online.replicas import ReplicaGroup
from repro.online.router import Router
from repro.online.types import SearchRequest, SearchResponse
from repro.segmenters.base import Segmenter
from repro.utils.flags import FlagFields, knob

_REGISTRY = get_registry()
#: What a broker counts, by :class:`~repro.obs.metrics.Tally` name.
_COUNTERS = {
    "queries_served": _REGISTRY.counter(
        "lanns_broker_queries_total",
        "Query rows admitted per broker (cache hits included).",
    ),
    **_REGISTRY.counters(
        "lanns_broker",
        hedges="Hedged shard RPCs issued per broker.",
        hedge_wins="Hedge races where the hedge, not the primary, answered.",
        failovers="Requests re-issued on a sibling replica after a failure.",
        degraded_batches="Batches that returned partial results (degrade policy).",
        shard_failures="Shard groups failed after replica failover, by shard.",
        overloaded="Shard RPCs shed by a searcher's admission control (OVERLOADED).",
    ),
    **_REGISTRY.counters(
        "lanns_router",
        routed_rows="Query rows routed, labelled by fan-out width (groups selected).",
    ),
}
_REQUEST_SECONDS = _REGISTRY.histogram(
    "lanns_broker_request_seconds",
    "End-to-end Broker.execute wall time, in seconds.",
)


def _seconds_or_auto(text: str) -> float | str:
    return text if text == "auto" else float(text)


@dataclass(frozen=True)
class BrokerPolicy(FlagFields):
    """How a broker batches, hedges, degrades, caches and observes.

    The one place a broker knob's name, type, default and validation are
    written: :class:`Broker` and
    :class:`~repro.online.service.OnlineService` accept a policy, its
    fields as keywords, or both (``replace(policy or BrokerPolicy(),
    **fields)``: a keyword that is no field is a ``TypeError`` naming
    it), keep it whole (``broker.policy``) and hand the fields to the
    components that consume them.  A new knob is one more field here;
    a :func:`~repro.utils.flags.knob` field is also a flag of
    ``repro.cli query --searchers``.
    """

    #: Tail-tolerance knob (needs a remote shard in the fleet -- a hedge
    #: that could never fire is rejected, not dropped): when a shard has
    #: not answered within this many seconds and budget remains before
    #: the deadline, the same RPC is re-issued -- on a *different
    #: replica* of the group when one is available, else on a second
    #: connection to the same process.  First reply wins, the loser is
    #: cancelled.  ``None`` disables hedging; ``"auto"`` derives the
    #: delay per batch from the live ``shard_rpc`` window (median x
    #: ``AUTO_HEDGE_MULTIPLIER``).
    hedge_after_s: float | str | None = knob(
        None,
        "hedge a straggling shard RPC on a second connection after this "
        "many seconds ('auto' derives the delay from the live shard_rpc "
        "latency window), budget permitting (remote mode)",
        parse=_seconds_or_auto,
    )
    #: Micro-batching: coalesce up to ``max_batch`` rows, flushing after
    #: ``max_wait_ms`` at the latest.  ``max_batch <= 1`` disables it.
    max_batch: int = 1
    max_wait_ms: float = 2.0
    #: ``"fail"``: any shard failure fails the request.  ``"degrade"``:
    #: connectivity failures drop that shard's rows from the merge and
    #: the response is annotated with ``shards_answered``; requests
    #: where *every* shard failed still raise.  With replica groups, a
    #: shard only counts as failed after every eligible replica was
    #: tried.
    partial_policy: str = knob(
        "fail",
        "what a dead searcher does to a request (remote mode)",
        choices=PARTIAL_POLICIES,
    )
    #: Deadline for each request's whole fan-out (``None`` = wait
    #: forever).
    request_timeout_s: float | None = knob(
        None, "per-request fan-out deadline in seconds (remote mode)"
    )
    #: Per-replica circuit breakers (see
    #: :class:`~repro.online.replicas.ReplicaGroup`):
    #: ``breaker_threshold`` consecutive transport failures open the
    #: breaker for ``breaker_cooldown_s`` seconds, after which one
    #: half-open probe decides recovery.  ``0`` disables breakers.
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 1.0
    #: Ask the searchers for per-batch search-cost counters (hops,
    #: distance computations, ...; see :mod:`repro.obs.cost`) and attach
    #: the aggregate to ``SearchResponse.cost``.  Requests coalesced by
    #: the micro-batcher report costs to the metrics registry only:
    #: per-request attribution of a shared lockstep batch is ambiguous.
    collect_cost: bool = True
    #: Request tracing (see :mod:`repro.obs.tracing`): the probability
    #: a request is traced end to end, the wall-time threshold beyond
    #: which a request is force-kept and logged as a slow query, and the
    #: sampling seed (tests want determinism).  Both default off, so the
    #: hot path never builds a span.
    trace_sample_rate: float = 0.0
    slow_query_log_s: float | None = None
    trace_seed: int | None = None

    def __post_init__(self) -> None:
        self.check_choices()
        # ``not x > 0`` rather than ``x <= 0``: NaN is refused too.
        if self.request_timeout_s is not None and not self.request_timeout_s > 0:
            raise ValueError(
                "request_timeout_s must be positive, "
                f"got {self.request_timeout_s}"
            )
        hedge_after_s = self.hedge_after_s
        if isinstance(hedge_after_s, str):
            if hedge_after_s != "auto":
                raise ValueError(
                    "hedge_after_s must be a positive delay in seconds "
                    f"or 'auto', got {hedge_after_s!r}"
                )
        elif hedge_after_s is not None:
            if not hedge_after_s > 0:
                raise ValueError(
                    f"hedge_after_s must be positive, got {hedge_after_s}"
                )
            object.__setattr__(self, "hedge_after_s", float(hedge_after_s))
        object.__setattr__(self, "collect_cost", bool(self.collect_cost))


class Broker:
    """Fans queries out to a searcher fleet and merges shard results.

    Parameters
    ----------
    searchers:
        One entry per shard, in shard order.  Each entry is either a
        single searcher (a raw
        :class:`~repro.online.searcher.SearcherNode` or a
        :class:`~repro.net.transport.SearcherTransport`) or a
        list/tuple of interchangeable replicas serving that shard.
        ``self.groups`` holds one
        :class:`~repro.online.replicas.ReplicaGroup` per shard, the
        broker's one view of its fleet.
    config:
        The index configuration (for perShardTopK parameters).
    segmenter, segment_sizes:
        The index's trained segmenter and its per-shard per-segment
        occupancy (the manifest's ``segment_sizes``).  When the table
        shows some segment missing from some shard, the broker builds a
        :class:`~repro.online.router.Router` and asks each shard group
        only about the rows routed to a segment it hosts; otherwise (or
        without them) every group receives every row.
    cache / cache_size / cache_epoch:
        Result-cache wiring; see :mod:`repro.online.cache`.
    name:
        Label under which this broker reports to the metrics registry
        (A/B deployments run several brokers in one process).
    policy, **fields:
        The knobs: a :class:`BrokerPolicy`, its fields as keywords, or
        both (the keywords win).
    """

    def __init__(
        self,
        searchers: list,
        config: LannsConfig,
        *,
        cache: QueryResultCache | None = None,
        cache_size: int = 0,
        cache_epoch: int = 0,
        segmenter: Segmenter | None = None,
        segment_sizes: list[list[int]] | None = None,
        name: str = "broker",
        policy: BrokerPolicy | None = None,
        **fields,
    ) -> None:
        self.policy = policy = replace(policy or BrokerPolicy(), **fields)
        if len(searchers) != config.num_shards:
            raise ValueError(
                f"{len(searchers)} searchers for {config.num_shards} shards"
            )
        self.name = str(name)
        self.groups: list[ReplicaGroup] = [
            ReplicaGroup(
                shard_id,
                entry if isinstance(entry, (list, tuple)) else [entry],
                breaker_threshold=policy.breaker_threshold,
                breaker_cooldown_s=policy.breaker_cooldown_s,
                broker=self.name,
            )
            for shard_id, entry in enumerate(searchers)
        ]
        self.config = config
        self.router: Router | None = (
            Router(segmenter, segment_sizes)
            if segmenter is not None and Router.prunes(segment_sizes)
            else None
        )
        #: The one clock: every stage duration of this broker -- the
        #: ``stats()["stages"]`` windows and adaptive hedging's
        #: ``shard_rpc`` median included -- is recorded through it.
        self.timings = StageClock(broker=self.name)
        #: Query rows answered (cache hits included), hedges and hedge
        #: wins, failovers, sheds, degraded batches, per-shard failures (a
        #: shard counts once per request, after replica failover is
        #: exhausted) and routed rows by fan-out width.
        self.tally = Tally(_COUNTERS, broker=self.name)
        self.tracer = Tracer(
            policy.trace_sample_rate,
            policy.slow_query_log_s,
            seed=policy.trace_seed,
        )
        self.cache = (
            cache if cache is not None else QueryResultCache(cache_size)
        )
        self.cache_epoch = int(cache_epoch)
        #: A row's cache key; the deployment's share of it is fixed here.
        self._row_key = partial(
            result_cache_key,
            num_shards=config.num_shards,
            epoch=self.cache_epoch,
        )
        self._fanout = FanOut(
            self.groups, self.timings, self.tally, policy.partial_policy
        )
        # A hedge delay no shard could honor is refused, not silently
        # dropped.
        if policy.hedge_after_s is not None and not self._fanout.remote:
            raise ValueError("hedge_after_s needs a remote fleet")
        # The micro-batcher slices the per-row arrays (the first four)
        # back across the blocks it coalesced.
        self._batcher: MicroBatcher | None = (
            MicroBatcher(
                lambda key, queries: self._search(key, queries)[:4],
                max_batch=policy.max_batch,
                max_wait_ms=policy.max_wait_ms,
                on_queue_wait=partial(self.timings.record, "queue_wait"),
            )
            if policy.max_batch > 1
            else None
        )

    def close(self) -> None:
        """Drain the micro-batcher.

        Idempotent and safe to call with requests in flight: pending
        micro-batches execute before the flusher exits.
        """
        if self._batcher is not None:
            self._batcher.close()

    def stats(self) -> dict:
        """Serving state: this broker's ``counts`` (its tally's snapshot),
        the cache's and the micro-batcher's, the per-stage latency
        windows, the tracer and the replica ledgers.  The
        knobs are ``self.policy``; a searcher's own counts are its STATS
        reply."""
        batcher = self._batcher
        return {
            "counts": self.tally.snapshot(),
            "cache": self.cache.stats.as_dict(),
            "microbatch": (
                dict(batcher.tally.snapshot(), largest_batch=batcher.largest_batch)
                if batcher is not None
                else None
            ),
            "stages": self.timings.summary(),
            "tracer": self.tracer.stats(),
            "replicas": [group.stats() for group in self.groups],
        }

    def per_shard_budget(self, top_k: int) -> int:
        """The perShardTopK this broker passes to each searcher.

        A pruned group hosts none of a row's segments, so pruning never
        changes the budget: it is the deployment's.

        Degenerate cases (all reachable through micro-batch coalescing,
        pinned by ``tests/test_online_serving.py::
        TestBudgetAndPaddingDegenerateCases``; the segment-aligned one by
        the ``segment`` cells of ``tests/test_path_matrix.py``):

        - **single shard**: the budget is exactly ``top_k`` -- Eq. 5-6
          degrade to the identity, so one-shard serving never truncates.
        - **segment-aligned sharding**: Eq. 5-6 model neighbors as
          uniformly hashed across shards; ``sharding="segment"``
          concentrates a query's neighbors in its few nearby segments,
          so the only budget that cannot truncate is the full ``top_k``.
        - **top_k larger than a segment/shard**: the budget is a
          *request* size, not a guarantee; shards with fewer points
          return short rows padded with the ``-1`` id / ``inf`` distance
          sentinels, which :func:`~repro.core.topk.batch_top_k` keeps
          ordered after every real result.
        - **empty batch**: no fan-out happens at all; the budget is only
          computed for batches with at least one row.
        """
        return self.config.per_shard_budget(top_k)

    def effective_ef(self, ef: int | None) -> int:
        """Canonicalise ``ef``: ``None`` means the config's ``ef_search``.

        The HNSW layer resolves ``ef=None`` to ``params.ef_search``
        itself, so pinning the default here changes nothing downstream --
        but it gives the cache and the micro-batcher a stable key, so
        ``ef=None`` and an explicit ``ef=ef_search`` share cache entries
        and micro-batches.
        """
        return int(ef) if ef is not None else int(self.config.hnsw.ef_search)

    # -- the structured entry point ----------------------------------------------------
    def execute(self, request: SearchRequest) -> SearchResponse:
        """Serve one :class:`SearchRequest` end to end.

        Every request flows through the result cache and the
        micro-batcher.  A request that fails is in the latency histogram,
        the ``stats()["stages"]["request"]`` window and the slow-query log
        like any other.
        """
        queries = request.queries
        num_queries = queries.shape[0]
        num_shards = len(self.groups)
        if num_queries == 0:
            ids, dists = empty_part(0, request.top_k)
            return SearchResponse(
                ids=ids,
                dists=dists,
                shards_answered=np.zeros(0, dtype=np.int64),
                shards_routed=np.zeros(0, dtype=np.int64),
                num_shards=num_shards,
            )
        key = admission_key(
            request.index_name,
            request.top_k,
            self.effective_ef(request.ef),
            queries,
        )
        self.tally.count("queries_served", num_queries)
        trace = self.tracer.begin()
        whole = self.timings.stage(
            "request", window="request", histogram=_REQUEST_SECONDS
        )
        try:
            with whole:
                response = self._serve(key, queries, trace)
        finally:
            kept = self.tracer.finish(trace, whole.seconds, whole.error)
        return replace(response, trace=trace.to_dict()) if kept else response

    def _serve(
        self, key: AdmissionKey, queries: np.ndarray, trace: Trace | None
    ) -> SearchResponse:
        """Answer rows from the cache; admit the rest as one block.

        Cache hits always count as fully answered by the groups their
        row was routed to: degraded rows are never cached.
        """
        num_queries = queries.shape[0]
        cost = None
        if not self.cache.enabled:
            ids, dists, answered, routed, cost = self._admit(key, queries, trace)
        else:
            with self.timings.stage("cache", trace) as stage:
                keys = [
                    self._row_key(key.index_name, row, key.top_k, key.ef)
                    for row in queries
                ]
                ids, dists = empty_part(num_queries, key.top_k)
                routed = np.zeros(num_queries, dtype=np.int64)
                miss_rows: list[int] = []
                for row, row_key in enumerate(keys):
                    cached = self.cache.get(row_key)
                    if cached is None:
                        miss_rows.append(row)
                    else:
                        ids[row], dists[row], routed[row] = cached
                stage.annotate(
                    hits=num_queries - len(miss_rows), misses=len(miss_rows)
                )
            answered = routed.copy()
            if miss_rows:
                misses = np.asarray(miss_rows, dtype=np.int64)
                fresh_ids, fresh_dists, fresh_answered, fresh_routed, cost = (
                    self._admit(key, queries[misses], trace)
                )
                ids[misses] = fresh_ids
                dists[misses] = fresh_dists
                answered[misses] = fresh_answered
                routed[misses] = fresh_routed
                for slot, row in enumerate(miss_rows):
                    if fresh_answered[slot] == fresh_routed[slot]:
                        self.cache.put(
                            keys[row],
                            fresh_ids[slot],
                            fresh_dists[slot],
                            int(fresh_routed[slot]),
                        )
        return SearchResponse(
            ids=ids,
            dists=dists,
            shards_answered=answered,
            shards_routed=routed,
            num_shards=len(self.groups),
            cost=cost,
        )

    def _admit(
        self, key: AdmissionKey, queries: np.ndarray, trace: Trace | None
    ) -> tuple:
        """:meth:`_search` one block, through the micro-batcher when on.

        Traced requests bypass the micro-batcher: the batch kernels are
        batch-composition invariant, so executing the block alone is
        bit-identical, and bypassing keeps the whole span tree -- and
        the cost counters -- attributable to *this* request instead of
        to whichever strangers it would have coalesced with (a coalesced
        block reports no cost: per-request attribution of a shared
        lockstep batch is ambiguous).
        """
        if self._batcher is None or trace is not None:
            with self.timings.stage("queue_wait", trace, coalesced=False):
                pass
            return self._search(key, queries, trace)
        return (*self._batcher.submit(key, queries).result(), None)

    def _search(
        self, key: AdmissionKey, queries: np.ndarray, trace: Trace | None = None
    ) -> tuple:
        """Route -> fan out -> merge: one lockstep batch, as ``(ids,
        dists, shards_answered, shards_routed, cost)`` -- what
        :meth:`_admit` runs per (possibly coalesced) block.  Without a
        router every shard group is asked about every row.
        """
        policy = self.policy
        num_queries = queries.shape[0]
        num_shards = len(self.groups)
        plan = None
        if self.router is not None:
            with self.timings.stage("route", trace, window="route") as route:
                plan = self.router.plan(queries)
                route.annotate(groups=plan.groups_queried)
            for width, count in enumerate(np.bincount(plan.routed_counts).tolist()):
                if count:
                    self.tally.count("routed_rows", count, groups=width)
        work, routed = work_list(queries, plan, num_shards)
        if not work:
            # Every row routed nowhere (its segments are hosted on no
            # shard): nothing to ask.
            ids, dists = empty_part(num_queries, key.top_k)
            return (
                ids,
                dists,
                np.zeros(num_queries, dtype=np.int64),
                routed,
                SearchCost().as_dict() if policy.collect_cost else None,
            )
        budget = self.per_shard_budget(key.top_k)
        batch = Batch(
            call=ShardCall(
                key.index_name,
                queries,
                budget,
                key.ef,
                trace=trace.context() if trace is not None else None,
                cost=policy.collect_cost or None,
                deadline=deadline_after(policy.request_timeout_s),
            ),
            hedge_delay=resolve_hedge_delay(policy.hedge_after_s, self.timings),
            trace=trace,
        )
        with self.timings.stage(
            "fanout", trace, window="fanout", groups=len(work), budget=budget
        ) as fanout:
            result = self._fanout.run(batch, work, routed, fanout.span)
        with self.timings.stage(
            "merge", trace, window="merge", parts=len(result.parts)
        ):
            ids, dists = merge_shard_results_batch(result.parts, key.top_k)
        return ids, dists, result.answered, routed, result.cost
