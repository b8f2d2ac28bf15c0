"""The broker: routing, perShardTopK, fan-out, final merge.

"The final merge happens at the broker or the client. The broker is also
responsible for calculating and passing the perShardTopK to each shard."

:meth:`Broker.execute` takes a frozen
:class:`~repro.online.types.SearchRequest` and returns a
:class:`~repro.online.types.SearchResponse`; ``search``/``search_batch``
are thin wrappers over it.  It is a pipeline, each step one stage of the
broker's :class:`~repro.obs.clock.StageClock`::

    validate -> route -> cache -> admit -> fan out -> merge -> record

- **route** (:mod:`repro.online.router`): a routed request maps each
  query to its top-``spill`` segments and fans out only to the shard
  groups hosting them (``spill=None``/``"all"`` queries every group).
- **cache -> admit** (:mod:`repro.online.admission`).  Routed requests
  and requests overriding broker policy (per-request deadline/hedging)
  bypass both: cache keys and admission keys do not carry the
  spill/policy knobs, and coalescing rows with different fan-out shapes
  would change answers.
- **fan out** (:mod:`repro.online.fanout`), inline or on one event loop
  as the fleet dictates, with replica failover
  (:mod:`repro.online.failover`) and hedged requests
  (:mod:`repro.online.hedging`) on the loop.
- **merge**: :func:`~repro.core.merge.merge_shard_results_batch` over
  the fan-out's full-width parts.  None of those modules imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import LannsConfig
from repro.core.merge import empty_part, merge_shard_results_batch
from repro.net.protocol import ShardCall
from repro.net.transport import AsyncSearcherTransport, SearcherTransport
from repro.obs.clock import StageClock
from repro.obs.cost import SearchCost
from repro.obs.metrics import Tally, get_registry
from repro.obs.tracing import Trace, Tracer
from repro.online.admission import Admission
from repro.online.cache import QueryResultCache
from repro.online.failover import PARTIAL_POLICIES, deadline_after
from repro.online.fanout import Batch, FanOut, work_list
from repro.online.hedging import resolve_hedge_delay
from repro.online.microbatch import AdmissionKey, admission_key
from repro.online.replicas import ReplicaGroup
from repro.online.router import Router, RoutingPlan
from repro.online.searcher import SearcherNode  # noqa: F401 (re-export)
from repro.online.types import INHERIT, SearchRequest, SearchResponse
from repro.segmenters.base import Segmenter
from repro.utils.flags import FlagFields, knob
from repro.utils.validation import as_vector

_REGISTRY = get_registry()
#: What a broker counts, by :class:`~repro.obs.metrics.Tally` name.
_COUNTERS = {
    "queries_served": _REGISTRY.counter(
        "lanns_broker_queries_total",
        "Query rows admitted per broker (cache hits included).",
    ),
    "hedges": _REGISTRY.counter(
        "lanns_broker_hedges_total",
        "Hedged shard RPCs issued per broker.",
    ),
    "hedge_wins": _REGISTRY.counter(
        "lanns_broker_hedge_wins_total",
        "Hedge races where the hedge, not the primary, delivered the reply.",
    ),
    "failovers": _REGISTRY.counter(
        "lanns_broker_failovers_total",
        "Requests re-issued on a sibling replica after a failure.",
    ),
    "degraded_batches": _REGISTRY.counter(
        "lanns_broker_degraded_batches_total",
        "Batches that returned partial results under the degrade policy.",
    ),
    "shard_failures": _REGISTRY.counter(
        "lanns_broker_shard_failures_total",
        "Shard-group failures after replica failover was exhausted, "
        "labelled by shard.",
    ),
    "overloaded": _REGISTRY.counter(
        "lanns_broker_overloaded_total",
        "Shard RPCs shed by a searcher's admission control (OVERLOADED).",
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

    #: Tail-tolerance knob (needs at least one
    #: :class:`~repro.net.transport.AsyncSearcherTransport` in the
    #: fleet -- a hedge that could never fire is rejected, not dropped):
    #: when an async-capable shard has not answered within this many
    #: seconds and budget remains before the deadline, the same RPC is
    #: re-issued -- on a *different replica* of the group when one is
    #: available, else on a second connection to the same process.
    #: First reply wins, the loser is cancelled.  ``None`` disables
    #: hedging; ``"auto"`` derives the delay per batch from the live
    #: ``shard_rpc`` window (median x ``AUTO_HEDGE_MULTIPLIER``).
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
    #: Per-request deadline for the whole fan-out (``None`` = wait
    #: forever).  ``SearchRequest.deadline_s`` overrides it per request.
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
    #: Cosine cache-key quantization; see :mod:`repro.online.cache`.
    cache_quantize_decimals: int | None = None
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
        single searcher (a raw :class:`SearcherNode` or a
        :class:`~repro.net.transport.SearcherTransport`) or a
        list/tuple of interchangeable replicas serving that shard.
        ``self.searchers`` keeps the argument as given; ``self.groups``
        holds one :class:`~repro.online.replicas.ReplicaGroup` per
        shard; ``self.transports`` is the flat wrapped view (groups
        concatenated in shard order).
    config:
        The index configuration (for perShardTopK parameters).
    segmenter:
        The index's trained segmenter.  When given, the broker builds a
        :class:`~repro.online.router.Router` and accepts routed requests
        (``SearchRequest.spill``); without it, only ``spill=None/"all"``
        requests are served.
    segment_sizes:
        Per-shard per-segment occupancy (the manifest's
        ``segment_sizes``), letting the router prune fan-out to the
        shards actually hosting a segment.  ``None`` assumes full
        occupancy (probes are restricted, fan-out is not).
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
        self.groups: list[ReplicaGroup] = [
            ReplicaGroup(
                shard_id,
                entry if isinstance(entry, (list, tuple)) else [entry],
                breaker_threshold=policy.breaker_threshold,
                breaker_cooldown_s=policy.breaker_cooldown_s,
            )
            for shard_id, entry in enumerate(searchers)
        ]
        self.searchers = searchers
        self.transports: list[SearcherTransport] = [
            transport
            for group in self.groups
            for transport in group.transports
        ]
        if policy.hedge_after_s is not None:
            self._require_hedge_target("hedge_after_s")
        self.config = config
        self.router: Router | None = (
            Router(
                segmenter,
                config.num_shards,
                segment_sizes=segment_sizes,
            )
            if segmenter is not None
            else None
        )
        self.name = str(name)
        #: The one clock: every stage duration of this broker -- the
        #: ``stats()["stages"]`` windows and adaptive hedging's
        #: ``shard_rpc`` median included -- is recorded through it.
        self.timings = StageClock(broker=self.name)
        #: Query rows answered (cache hits included), hedges and hedge
        #: wins, failovers, degraded batches, per-shard failures (a shard
        #: counts once per request, after replica failover is exhausted).
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
        self._fanout = FanOut(
            self.groups, self.timings, self.tally, policy.partial_policy
        )
        #: Where the fan-out runs -- derived from the fleet, see
        #: :mod:`repro.online.fanout`.
        self.venue = self._fanout.venue
        self._admission = Admission(
            self._search,
            self.cache,
            self.timings,
            num_shards=config.num_shards,
            metric=config.metric,
            epoch=self.cache_epoch,
            quantize_decimals=policy.cache_quantize_decimals,
            max_batch=policy.max_batch,
            max_wait_ms=policy.max_wait_ms,
        )

    def _require_hedge_target(self, knob: str) -> None:
        """Reject a hedge delay no transport of this broker could honor.

        Hedges race a second RPC on the fan-out loop, which only an
        :class:`~repro.net.transport.AsyncSearcherTransport` can
        multiplex; accepting the knob anyway would silently drop it.
        """
        if not any(
            isinstance(t, AsyncSearcherTransport) for t in self.transports
        ):
            raise ValueError(
                f"{knob} needs at least one AsyncSearcherTransport in the "
                "fleet (hedges are raced on the fan-out event loop; "
                "in-process transports cannot hedge)"
            )

    def close(self) -> None:
        """Drain the admission layer and stop the fan-out loop.

        Idempotent and safe to call with requests in flight: pending
        micro-batches execute before the flusher exits, and requests
        the loop can no longer serve re-run their fan-out on the
        caller's thread instead of hanging.
        """
        self._admission.close()
        self._fanout.close()

    def stats(self) -> dict:
        """Serving counters: cache, micro-batching, per-stage latency."""
        # One snapshot of every count, so a stats() scrape never reads a
        # half-updated view.
        counts = self.tally.snapshot()
        batcher = self._admission.batcher
        return {
            "cache": self.cache.stats.as_dict(),
            "microbatch": dict(batcher.stats) if batcher is not None else None,
            "stages": self.timings.summary(),
            "venue": self.venue,
            "hedge_after_s": self.policy.hedge_after_s,
            "hedges": counts.get("hedges", 0),
            "hedge_wins": counts.get("hedge_wins", 0),
            "failovers": counts.get("failovers", 0),
            "queries_served": counts.get("queries_served", 0),
            "collect_cost": self.policy.collect_cost,
            "tracer": self.tracer.stats(),
            "replicas": [group.stats() for group in self.groups],
            "partial": {
                "policy": self.policy.partial_policy,
                "request_timeout_s": self.policy.request_timeout_s,
                "degraded_batches": counts.get("degraded_batches", 0),
                "shard_failures": [
                    counts.get(("shard_failures", shard), 0)
                    for shard in range(len(self.groups))
                ],
            },
            # The fleet is shared between brokers (A/B deployments), so
            # this counts ALL traffic the searchers saw, not just ours.
            # (For remote transports this is the rows *this process*
            # shipped -- a per-node view needs the STATS RPC.)
            "fleet_queries_served": sum(
                transport.queries_served for transport in self.transports
            ),
        }

    def per_shard_budget(
        self, top_k: int, num_groups: int | None = None
    ) -> int:
        """The perShardTopK this broker passes to each searcher.

        ``num_groups`` is the fan-out width the budget must cover:
        routed requests pass the widest per-row group count of their
        plan, because Eq. 5-6 size the budget for answers spread over
        *every* shard queried -- sizing from the full deployment while
        querying ``spill`` groups would cap each answer below ``top_k``.

        Degenerate cases (all reachable through micro-batch coalescing,
        pinned by ``tests/test_online_serving.py``):

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
        return self.config.per_shard_budget(top_k, num_groups)

    def effective_ef(self, ef: int | None) -> int:
        """Canonicalise ``ef``: ``None`` means the config's ``ef_search``.

        The HNSW layer resolves ``ef=None`` to ``params.ef_search``
        itself, so pinning the default here changes nothing downstream --
        but it gives the cache and the admission layer a stable key, so
        ``ef=None`` and an explicit ``ef=ef_search`` share cache entries
        and micro-batches.
        """
        return int(ef) if ef is not None else int(self.config.hnsw.ef_search)

    # -- the structured entry point ----------------------------------------------------
    def execute(self, request: SearchRequest) -> SearchResponse:
        """Serve one :class:`SearchRequest` end to end.

        The one serving path: ``search``/``search_batch`` wrap this.
        Unrouted requests without policy overrides flow through the
        result cache and the micro-batching admission layer (their
        responses carry ``replicas_used=None`` -- coalescing makes
        per-request replica attribution ambiguous); routed requests and
        per-request overrides go straight to the fan-out with full
        metadata.  A request the broker cannot serve is rejected
        before it is counted or traced; one that fails later is in the
        latency histogram and the slow-query log like any other.
        """
        queries = request.queries
        num_queries = queries.shape[0]
        num_shards = len(self.groups)
        if (
            request.hedging != INHERIT
            and request.hedging is not False
            and request.hedging is not None
        ):
            self._require_hedge_target("per-request hedging override")
        if request.routed and self.router is None:
            raise ValueError(
                "routed request (spill set) on a broker without a "
                "router: construct the Broker with the index's "
                "segmenter (OnlineService does this automatically)"
            )
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
        whole = self.timings.stage("request", histogram=_REQUEST_SECONDS)
        try:
            with whole:
                plan: RoutingPlan | None = None
                route_s = 0.0
                if request.routed:
                    with self.timings.stage(
                        "route", trace, window="route", spill=request.spill
                    ) as route:
                        plan = self.router.plan(
                            queries,
                            request.spill
                            if isinstance(request.spill, int)
                            else self.config.num_segments,
                            hints=request.routing_hints,
                        )
                        route.annotate(groups=plan.groups_queried)
                    route_s = route.seconds
                if plan is None and not request.overrides_policy:
                    response = self._admission.serve(key, queries, trace)
                else:
                    response = self._search(
                        key,
                        queries,
                        trace,
                        plan=plan,
                        timeout_s=request.deadline_s,
                        hedging=request.hedging,
                    )
                    response.timings["route_ms"] = route_s * 1000.0
        finally:
            kept = self.tracer.finish(trace, whole.seconds, whole.error)
        return replace(response, trace=trace.to_dict()) if kept else response

    def _search(
        self,
        key: AdmissionKey,
        queries: np.ndarray,
        trace: Trace | None = None,
        *,
        plan: RoutingPlan | None = None,
        timeout_s: float | str | None = INHERIT,
        hedging: bool | float | str | None = INHERIT,
    ) -> SearchResponse:
        """Fan out -> merge: one lockstep batch, full serving metadata.

        Also what the admission layer runs per (possibly coalesced)
        block.  ``plan=None`` asks every shard group; a routing plan
        asks each group about its routed rows only, so the per-shard
        budget must cover the plan's width, not the full deployment's.
        """
        policy = self.policy
        num_queries = queries.shape[0]
        num_shards = len(self.groups)
        work, routed = work_list(queries, plan, num_shards)
        if not work:
            # Every row routed nowhere (empty hints): nothing to ask.
            ids, dists = empty_part(num_queries, key.top_k)
            return SearchResponse(
                ids=ids,
                dists=dists,
                shards_answered=np.zeros(num_queries, dtype=np.int64),
                shards_routed=routed,
                num_shards=num_shards,
                replicas_used=(-1,) * num_shards,
                cost=SearchCost().as_dict() if policy.collect_cost else None,
            )
        budget = self.per_shard_budget(
            key.top_k,
            None if plan is None else int(plan.routed_counts.max()),
        )
        if timeout_s == INHERIT:
            timeout_s = policy.request_timeout_s
        if hedging == INHERIT:
            hedging = policy.hedge_after_s
        batch = Batch(
            call=ShardCall(
                key.index_name,
                queries,
                budget,
                key.ef,
                trace=trace.context() if trace is not None else None,
                cost=policy.collect_cost or None,
                deadline=deadline_after(timeout_s),
            ),
            hedge_delay=resolve_hedge_delay(
                None if hedging is False else hedging, self.timings
            ),
            trace=trace,
        )
        with self.timings.stage(
            "fanout", trace, window="fanout", groups=len(work), budget=budget
        ) as fanout:
            result = self._fanout.run(batch, work, routed, fanout.span)
        with self.timings.stage(
            "merge", trace, window="merge", parts=len(result.parts)
        ) as merge:
            ids, dists = merge_shard_results_batch(result.parts, key.top_k)
        return SearchResponse(
            ids=ids,
            dists=dists,
            shards_answered=result.answered,
            shards_routed=routed,
            num_shards=num_shards,
            replicas_used=result.replicas_used,
            timings={
                "fanout_ms": fanout.seconds * 1000.0,
                "merge_ms": merge.seconds * 1000.0,
            },
            cost=result.cost,
        )

    # -- array-in / array-out wrappers ------------------------------------------------
    def search(
        self,
        index_name: str,
        query: np.ndarray,
        top_k: int,
        *,
        ef: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Serve one query end to end (a batch of one).

        Returns
        -------
        (ids, distances): ascending by distance, at most ``top_k``.
        """
        query = as_vector(query, name="query")
        ids, dists = self.search_batch(
            index_name, query[np.newaxis, :], top_k, ef=ef
        )
        valid = ids[0] >= 0
        return ids[0][valid], dists[0][valid]

    def search_batch(
        self,
        index_name: str,
        queries: np.ndarray,
        top_k: int,
        *,
        ef: int | None = None,
        spill: int | str | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Serve a query batch: a thin wrapper over :meth:`execute`.

        Returns ``(B, top_k)`` id/distance arrays padded with ``-1`` /
        ``inf``; call :meth:`execute` for the serving metadata.
        """
        response = self.execute(
            SearchRequest(
                queries=queries,
                top_k=top_k,
                index_name=index_name,
                ef=ef,
                spill=spill,
            )
        )
        return response.ids, response.dists
