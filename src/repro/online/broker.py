"""The broker: admission, routing, query fan-out, perShardTopK, final merge.

"The final merge happens at the broker or the client. The broker is also
responsible for calculating and passing the perShardTopK to each shard."

:meth:`Broker.execute` takes a frozen
:class:`~repro.online.types.SearchRequest` and returns a
:class:`~repro.online.types.SearchResponse`; ``search``/``search_batch``
are thin wrappers over it.  In front of the lockstep batch engine sit

1. an LRU **result cache** (:mod:`repro.online.cache`) consulted per
   query row before admission and filled after the final merge;
2. an opportunistic **micro-batching admission layer**
   (:mod:`repro.online.microbatch`) that coalesces requests arriving from
   many client threads into one lockstep batch (flush on ``max_batch``
   rows or ``max_wait_ms``, whichever first);
3. a **router** (:mod:`repro.online.router`) that embeds the trained
   segmenter and maps each query to its top-``spill`` segments, so a
   routed request fans out only to the shard groups hosting those
   segments and pushes the chosen segments down as explicit probes
   (``spill=None``/``"all"`` queries every group).

The fan-out itself runs in one of two **venues**, chosen from the fleet
the broker was given, never by an option:

- ``"inline"`` -- every transport is a
  :class:`~repro.net.transport.LocalSearcherTransport`.  In-process numpy
  work cannot be shed, hedged, failed over or deadline-cancelled, so each
  shard group is ``pick -> attempt -> part`` on the calling thread.
  (Routing it through the event loop instead costs +0.5-0.7 ms on a
  2.5-3.0 ms single-query request -- the whole latency budget of the
  ledger's ``local_single`` workload.)
- ``"loop"`` -- the fleet holds any other transport.  All shard RPCs of
  a batch are multiplexed on one private asyncio loop thread, the only
  home of replica **failover**, the ``OVERLOADED`` retry-after pause and
  **hedged requests** (:mod:`repro.online.replicas` keeps the per-replica
  health/load ledger both venues report to).

Routed requests and requests overriding broker policy (per-request
deadline/hedging) bypass the result cache and the micro-batcher: cache
keys and admission keys do not carry the spill/policy knobs, and
coalescing rows with different fan-out shapes would change answers.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from concurrent.futures import CancelledError as FutureCancelledError
from dataclasses import replace
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.core.config import LannsConfig
from repro.core.merge import merge_shard_results_batch
from repro.core.topk import per_shard_top_k
from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    RemoteCallError,
    TransportError,
)
from repro.eval.timing import StageLatencyRecorder
from repro.net.loop import LoopThread
from repro.net.transport import (
    AsyncSearcherTransport,
    LocalSearcherTransport,
    SearcherTransport,
)
from repro.obs.cost import SearchCost
from repro.obs.metrics import get_registry
from repro.obs.tracing import Trace, Tracer
from repro.online.cache import QueryResultCache, result_cache_key
from repro.online.microbatch import MicroBatcher
from repro.online.replicas import ReplicaGroup, ReplicaState
from repro.online.router import Router, RoutingPlan
from repro.online.searcher import SearcherNode  # noqa: F401 (re-export)
from repro.online.types import INHERIT, SearchRequest, SearchResponse
from repro.segmenters.base import Segmenter
from repro.utils.validation import as_vector

_REGISTRY = get_registry()
_QUERIES_TOTAL = _REGISTRY.counter(
    "lanns_broker_queries_total",
    "Query rows admitted per broker (cache hits included).",
)
_HEDGES = _REGISTRY.counter(
    "lanns_broker_hedges_total",
    "Hedged shard RPCs issued per broker.",
)
_HEDGE_WINS = _REGISTRY.counter(
    "lanns_broker_hedge_wins_total",
    "Hedge races where the hedge, not the primary, delivered the reply.",
)
_FAILOVERS = _REGISTRY.counter(
    "lanns_broker_failovers_total",
    "Requests re-issued on a sibling replica after a failure.",
)
_DEGRADED = _REGISTRY.counter(
    "lanns_broker_degraded_batches_total",
    "Batches that returned partial results under the degrade policy.",
)
_SHARD_FAILURES = _REGISTRY.counter(
    "lanns_broker_shard_failures_total",
    "Shard-group failures after replica failover was exhausted, "
    "labelled by shard.",
)
_OVERLOADED = _REGISTRY.counter(
    "lanns_broker_overloaded_total",
    "Shard RPCs shed by a searcher's admission control (OVERLOADED).",
)
_REQUEST_SECONDS = _REGISTRY.histogram(
    "lanns_broker_request_seconds",
    "End-to-end Broker.execute wall time, in seconds.",
)

#: Partial-result policies for shard failures during the fan-out.
PARTIAL_POLICIES = ("fail", "degrade")

#: Adaptive hedging (``hedge_after_s="auto"``): the delay is derived per
#: batch from the live ``shard_rpc`` latency window as
#: ``median * AUTO_HEDGE_MULTIPLIER``.  The *median* anchors the healthy
#: RPC latency -- unlike a high quantile, it stays honest even when up to
#: half the recent samples come from the very stragglers hedging exists
#: to cut -- and the multiplier lifts the trigger above normal jitter.
#: No hedges are issued until the window holds
#: ``AUTO_HEDGE_MIN_SAMPLES`` samples (cold caches and first connects
#: would otherwise look like stragglers), and the delay never drops
#: below ``AUTO_HEDGE_MIN_DELAY_S`` (hedging every RPC on a
#: microsecond-fast fleet is pure connection churn).
AUTO_HEDGE_QUANTILE = 0.5
AUTO_HEDGE_MULTIPLIER = 3.0
AUTO_HEDGE_MIN_SAMPLES = 32
AUTO_HEDGE_MIN_DELAY_S = 0.001


class _Batch(NamedTuple):
    """What every shard RPC of one fan-out shares."""

    index_name: str
    budget: int
    eff_ef: int
    deadline: float | None
    hedge_delay: float | None
    trace: Trace | None
    collect_cost: bool


class _Attempt:
    """One replica attempt in either venue: ledger slot, span, info dict.

    A context manager around the shard RPC.  Construction opens the
    ``attempt`` child span of ``group_span`` and the ``info_out`` dict
    to hand the transport (``None`` when neither cost nor trace is
    wanted); the ``with`` block holds the replica's in-flight slot.  On
    exit the group's in-flight/EWMA ledger is settled and the span
    closed with ``outcome`` ``ok`` / ``error`` / ``cancelled`` (a
    cancelled hedge loser releases its slot without polluting the
    latency EWMA); the searcher's own spans are spliced under a
    successful attempt.  ``win`` is left ``False`` -- a completed loser
    (both answered in one tick) stays a loss; :meth:`settle` flips the
    race winner.
    """

    __slots__ = ("group", "replica", "trace", "span", "info", "_tick")

    def __init__(
        self,
        batch: _Batch,
        group: ReplicaGroup,
        replica: ReplicaState,
        group_span: dict | None,
        *,
        hedge: bool = False,
    ) -> None:
        self.group = group
        self.replica = replica
        self.trace = trace = batch.trace
        self.span = (
            trace.start_span(
                "attempt",
                parent=group_span,
                replica=replica.replica_id,
                hedge=hedge,
            )
            if trace is not None
            else None
        )
        self.info: dict | None = (
            {} if (batch.collect_cost or trace is not None) else None
        )

    def __enter__(self) -> _Attempt:
        self.group.begin(self.replica)
        self._tick = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc is None:
            outcome = "ok"
            self.group.finish(self.replica, time.perf_counter() - self._tick)
        else:
            cancelled = isinstance(exc, asyncio.CancelledError)
            outcome = "cancelled" if cancelled else "error"
            self.group.finish(self.replica, outcome=outcome)
        span = self.span
        if span is not None:
            span["annotations"].update(outcome=outcome, win=False)
            if outcome == "error":
                span["annotations"]["error"] = type(exc).__name__
            elif outcome == "ok" and self.info.get("trace"):
                self.trace.attach_remote(span, self.info["trace"])
            self.trace.end_span(span)

    def settle(
        self, part: tuple[np.ndarray, np.ndarray]
    ) -> tuple[tuple[np.ndarray, np.ndarray], int, dict | None]:
        """Mark this attempt, which delivered ``part``, as the winner.

        Returns the ``(part, replica_id, cost)`` triple both venues
        report per shard group.
        """
        if self.span is not None:
            self.span["annotations"]["win"] = True
        cost = self.info.get("cost") if self.info else None
        return part, self.replica.replica_id, cost


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
    partial_policy:
        ``"fail"`` (default): any shard failure fails the request.
        ``"degrade"``: connectivity failures drop that shard's rows from
        the merge and the response is annotated with ``shards_answered``;
        requests where *every* shard failed still raise.  With replica
        groups, a shard only counts as failed after every eligible
        replica was tried.
    request_timeout_s:
        Per-request deadline for the whole fan-out (``None`` = wait
        forever).  ``SearchRequest.deadline_s`` overrides it per request.
    hedge_after_s:
        Tail-tolerance knob (needs at least one
        :class:`~repro.net.transport.AsyncSearcherTransport` in the
        fleet -- a hedge that could never fire is rejected, not
        dropped): when an async-capable shard has not answered within
        this many seconds and budget remains before the deadline, the
        same RPC is re-issued -- on a *different replica* of the group
        when one is available, else on a second connection to the same
        process.  First reply wins, the loser is cancelled.  ``None``
        disables hedging; ``"auto"`` derives the delay per batch from
        the live ``shard_rpc`` window (median x
        ``AUTO_HEDGE_MULTIPLIER``).
    max_batch, max_wait_ms:
        Micro-batching knobs.  ``max_batch <= 1`` disables admission.
    cache / cache_size / cache_epoch / cache_quantize_decimals:
        Result-cache wiring; see :mod:`repro.online.cache`.
    collect_cost:
        Ask the searchers for per-batch search-cost counters (hops,
        distance computations, ...; see :mod:`repro.obs.cost`) and
        attach the aggregate to ``SearchResponse.cost``.  Requests
        coalesced by the micro-batcher report costs to the metrics
        registry only: per-request attribution of a shared lockstep
        batch is ambiguous.
    trace_sample_rate / slow_query_log_s / trace_seed:
        Request-tracing knobs (see :mod:`repro.obs.tracing`):
        the probability a request is traced end to end, the wall-time
        threshold beyond which a request is force-kept and logged as a
        slow query, and the sampling seed (tests want determinism).
        Both knobs default off, so the hot path never builds a span.
    breaker_threshold, breaker_cooldown_s:
        Per-replica circuit breakers (see
        :class:`~repro.online.replicas.ReplicaGroup`):
        ``breaker_threshold`` consecutive transport failures open the
        breaker for ``breaker_cooldown_s`` seconds, after which one
        half-open probe decides recovery.  ``breaker_threshold=0``
        disables breakers.
    name:
        Label under which this broker reports to the metrics registry
        (A/B deployments run several brokers in one process).
    """

    def __init__(
        self,
        searchers: list,
        config: LannsConfig,
        *,
        hedge_after_s: float | str | None = None,
        max_batch: int = 1,
        max_wait_ms: float = 2.0,
        cache: QueryResultCache | None = None,
        cache_size: int = 0,
        cache_epoch: int = 0,
        cache_quantize_decimals: int | None = None,
        partial_policy: str = "fail",
        request_timeout_s: float | None = None,
        segmenter: Segmenter | None = None,
        segment_sizes: list[list[int]] | None = None,
        collect_cost: bool = True,
        trace_sample_rate: float = 0.0,
        slow_query_log_s: float | None = None,
        trace_seed: int | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 1.0,
        name: str = "broker",
    ) -> None:
        if len(searchers) != config.num_shards:
            raise ValueError(
                f"{len(searchers)} searchers for {config.num_shards} shards"
            )
        self.groups: list[ReplicaGroup] = [
            ReplicaGroup(
                shard_id,
                entry if isinstance(entry, (list, tuple)) else [entry],
                breaker_threshold=breaker_threshold,
                breaker_cooldown_s=breaker_cooldown_s,
            )
            for shard_id, entry in enumerate(searchers)
        ]
        transports: list[SearcherTransport] = [
            transport
            for group in self.groups
            for transport in group.transports
        ]
        if partial_policy not in PARTIAL_POLICIES:
            raise ValueError(
                f"partial_policy must be one of {PARTIAL_POLICIES}, "
                f"got {partial_policy!r}"
            )
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be positive, got {request_timeout_s}"
            )
        if hedge_after_s is not None:
            if isinstance(hedge_after_s, str):
                if hedge_after_s != "auto":
                    raise ValueError(
                        "hedge_after_s must be a positive delay in seconds "
                        f"or 'auto', got {hedge_after_s!r}"
                    )
            elif hedge_after_s <= 0:
                raise ValueError(
                    f"hedge_after_s must be positive, got {hedge_after_s}"
                )
        self.searchers = searchers
        self.transports = transports
        #: Where the fan-out runs -- derived from the fleet, see the
        #: module docstring.
        self.venue = (
            "inline"
            if all(isinstance(t, LocalSearcherTransport) for t in transports)
            else "loop"
        )
        if hedge_after_s is not None:
            self._require_hedge_target("hedge_after_s")
        self.config = config
        self.partial_policy = partial_policy
        self.request_timeout_s = request_timeout_s
        self.cache_quantize_decimals = cache_quantize_decimals
        self.hedge_after_s = (
            hedge_after_s
            if hedge_after_s is None or isinstance(hedge_after_s, str)
            else float(hedge_after_s)
        )
        self.router: Router | None = (
            Router(
                segmenter,
                config.num_shards,
                segment_sizes=segment_sizes,
            )
            if segmenter is not None
            else None
        )
        self.timings = StageLatencyRecorder()
        self.name = str(name)
        self.collect_cost = bool(collect_cost)
        self.tracer = Tracer(
            trace_sample_rate, slow_query_log_s, seed=trace_seed
        )
        self.cache = (
            cache if cache is not None else QueryResultCache(cache_size)
        )
        self.cache_epoch = int(cache_epoch)
        self._served_lock = threading.Lock()
        #: Query rows this broker answered (cache hits included).
        self.queries_served = 0
        #: Batches that returned partial results under ``degrade``.
        self.degraded_batches = 0
        #: Connectivity failures observed per shard position (a shard
        #: counts once per request, after replica failover is exhausted).
        self.shard_failures = [0] * len(self.groups)
        #: Hedged-request counters: RPCs re-issued, and races where the
        #: hedge (not the primary) delivered the winning reply.
        self.hedges = 0
        self.hedge_wins = 0
        #: Requests re-issued on a sibling replica after a connectivity
        #: failure (successful or not).
        self.failovers = 0
        self._last_failure: TransportError | None = None
        self._fanout_loop: LoopThread | None = (
            LoopThread("broker-async-loop") if self.venue == "loop" else None
        )
        self._batcher: MicroBatcher | None = (
            MicroBatcher(
                self._execute_keyed,
                max_batch=max_batch,
                max_wait_ms=max_wait_ms,
                on_queue_wait=self.timings.recorder("queue_wait"),
            )
            if max_batch > 1
            else None
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
        if self._batcher is not None:
            self._batcher.close()
        if self._fanout_loop is not None:
            self._fanout_loop.close()

    def stats(self) -> dict:
        """Serving counters: cache, micro-batching, per-stage latency."""
        with self._served_lock:
            # Snapshot every counter the serving threads bump under this
            # lock, so a stats() scrape never reads a half-updated view.
            hedges = self.hedges
            hedge_wins = self.hedge_wins
            failovers = self.failovers
            queries_served = self.queries_served
            degraded_batches = self.degraded_batches
            shard_failures = list(self.shard_failures)
        return {
            "cache": self.cache.stats.as_dict(),
            "microbatch": dict(self._batcher.stats)
            if self._batcher is not None
            else None,
            "stages": self.timings.summary(),
            "venue": self.venue,
            "hedge_after_s": self.hedge_after_s,
            "hedges": hedges,
            "hedge_wins": hedge_wins,
            "failovers": failovers,
            "queries_served": queries_served,
            "collect_cost": self.collect_cost,
            "tracer": self.tracer.stats(),
            "replicas": [group.stats() for group in self.groups],
            "partial": {
                "policy": self.partial_policy,
                "request_timeout_s": self.request_timeout_s,
                "degraded_batches": degraded_batches,
                "shard_failures": shard_failures,
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
        if not self.config.use_per_shard_topk:
            return int(top_k)
        if self.config.sharding == "segment":
            return int(top_k)
        return per_shard_top_k(
            top_k,
            self.config.num_shards if num_groups is None else num_groups,
            self.config.topk_confidence,
            paper_literal=self.config.paper_literal_probit,
        )

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
        per-request overrides execute directly through the fan-out with
        full metadata.  A request the broker cannot serve is rejected
        before it is counted or traced.
        """
        queries = request.queries
        top_k = request.top_k
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
            return SearchResponse(
                ids=np.full((0, top_k), -1, dtype=np.int64),
                dists=np.full((0, top_k), np.inf, dtype=np.float64),
                shards_answered=np.zeros(0, dtype=np.int64),
                shards_routed=np.zeros(0, dtype=np.int64),
                num_shards=num_shards,
            )
        eff_ef = self.effective_ef(request.ef)
        with self._served_lock:
            self.queries_served += num_queries
        _QUERIES_TOTAL.inc(num_queries, broker=self.name)
        started = time.perf_counter()
        trace = self.tracer.begin()

        plan: RoutingPlan | None = None
        route_s = 0.0
        if request.routed:
            route_span = (
                trace.start_span("route", spill=request.spill)
                if trace is not None
                else None
            )
            tick = time.perf_counter()
            plan = self.router.plan(
                queries,
                request.spill
                if isinstance(request.spill, int)
                else self.config.num_segments,
                hints=request.routing_hints,
            )
            route_s = time.perf_counter() - tick
            self.timings.record("route", route_s)
            if route_span is not None:
                trace.end_span(route_span)
                route_span["annotations"]["groups"] = plan.groups_queried

        if plan is None and not request.overrides_policy:
            extra: dict = {}
            ids, dists, answered = self._serve_cached(
                request.index_name,
                queries,
                top_k,
                eff_ef,
                trace=trace,
                extra_out=extra,
            )
            response = SearchResponse(
                ids=ids,
                dists=dists,
                shards_answered=answered,
                shards_routed=np.full(num_queries, num_shards, dtype=np.int64),
                num_shards=num_shards,
                cost=extra.get("cost"),
            )
        else:
            ids, dists, answered, routed, replicas_used, timings, cost = (
                self._execute_fanout(
                    request.index_name,
                    queries,
                    top_k,
                    eff_ef,
                    plan=plan,
                    timeout_s=request.deadline_s,
                    hedging=request.hedging,
                    trace=trace,
                    collect_cost=self.collect_cost,
                )
            )
            timings["route_ms"] = route_s * 1000.0
            response = SearchResponse(
                ids=ids,
                dists=dists,
                shards_answered=answered,
                shards_routed=routed,
                num_shards=num_shards,
                replicas_used=tuple(replicas_used),
                timings=timings,
                cost=cost,
            )
        duration_s = time.perf_counter() - started
        _REQUEST_SECONDS.observe(duration_s, broker=self.name)
        if self.tracer.finish(trace, duration_s):
            response = replace(response, trace=trace.to_dict())
        return response

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

    # -- cached/admitted serving (unrouted requests) -----------------------------------
    def _serve_cached(
        self,
        index_name: str,
        queries: np.ndarray,
        top_k: int,
        eff_ef: int,
        trace: Trace | None = None,
        extra_out: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cache -> admission -> execution for the default fan-out.

        Rows with a cached result are answered immediately; the
        remaining rows are admitted as one block (coalescing with other
        threads' requests when micro-batching is on) and executed
        through the lockstep fan-out; fresh results then fill the cache.
        Per-query results are identical to a batch of one regardless of
        caching or coalescing.  Cache hits always count as fully
        answered: degraded rows are never cached.
        """
        num_queries = queries.shape[0]
        if not self.cache.enabled:
            return self._admit(
                index_name,
                queries,
                top_k,
                eff_ef,
                trace=trace,
                extra_out=extra_out,
            )

        cache_span = (
            trace.start_span("cache") if trace is not None else None
        )
        keys = [
            result_cache_key(
                index_name,
                queries[row],
                top_k,
                eff_ef,
                self.config.num_shards,
                self.cache_epoch,
                metric=self.config.metric,
                quantize_decimals=self.cache_quantize_decimals,
            )
            for row in range(num_queries)
        ]
        out_ids = np.full((num_queries, top_k), -1, dtype=np.int64)
        out_dists = np.full((num_queries, top_k), np.inf, dtype=np.float64)
        # Cache hits were stored fully answered (puts skip degraded rows).
        out_answered = np.full(
            num_queries, self.config.num_shards, dtype=np.int64
        )
        miss_rows: list[int] = []
        for row, key in enumerate(keys):
            cached = self.cache.get(key)
            if cached is None:
                miss_rows.append(row)
            else:
                out_ids[row], out_dists[row] = cached
        if cache_span is not None:
            trace.end_span(cache_span)
            cache_span["annotations"].update(
                hits=num_queries - len(miss_rows), misses=len(miss_rows)
            )
        if miss_rows:
            misses = np.asarray(miss_rows, dtype=np.int64)
            fresh_ids, fresh_dists, fresh_answered = self._admit(
                index_name,
                queries[misses],
                top_k,
                eff_ef,
                trace=trace,
                extra_out=extra_out,
            )
            out_ids[misses] = fresh_ids
            out_dists[misses] = fresh_dists
            out_answered[misses] = fresh_answered
            full = int(self.config.num_shards)
            for slot, row in enumerate(miss_rows):
                if int(fresh_answered[slot]) == full:
                    self.cache.put(
                        keys[row], fresh_ids[slot], fresh_dists[slot]
                    )
        return out_ids, out_dists, out_answered

    # -- admission + execution ---------------------------------------------------------
    def _admit(
        self,
        index_name: str,
        queries: np.ndarray,
        top_k: int,
        eff_ef: int,
        trace: Trace | None = None,
        extra_out: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run a block through micro-batching when on, else directly.

        The admission key carries everything that must match for two
        requests to share one lockstep batch: the index, the requested
        ``top_k`` (hence the per-shard budget), the beam width, and the
        dimensionality (so a malformed request cannot poison a
        well-formed one it happens to coalesce with).

        Traced requests bypass the micro-batcher: the batch kernels are
        batch-composition invariant, so executing the block alone is
        bit-identical, and bypassing keeps the whole span tree -- and
        the cost counters -- attributable to *this* request instead of
        to whichever strangers it would have coalesced with.
        """
        key = (index_name, int(top_k), eff_ef, int(queries.shape[1]))
        if self._batcher is None or trace is not None:
            if trace is not None:
                queue_span = trace.start_span(
                    "queue_wait", coalesced=False
                )
                trace.end_span(queue_span)
            return self._execute_keyed(
                key, queries, trace=trace, extra_out=extra_out
            )
        return self._batcher.submit(key, queries).result()

    def _execute_keyed(
        self,
        key: tuple,
        queries: np.ndarray,
        *,
        trace: Trace | None = None,
        extra_out: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        index_name, top_k, eff_ef, _dim = key
        return self._execute_batch(
            index_name,
            queries,
            top_k,
            eff_ef,
            trace=trace,
            extra_out=extra_out,
        )

    def _execute_batch(
        self,
        index_name: str,
        queries: np.ndarray,
        top_k: int,
        eff_ef: int,
        *,
        trace: Trace | None = None,
        extra_out: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Micro-batcher callback: full fan-out, per-row result tuple.

        Returns per-row ``(ids, dists, shards_answered)`` only -- every
        element must be sliceable per row because the micro-batcher
        splits the result tuple back across the coalesced requests.
        Batch-level extras (the aggregated cost) land in ``extra_out``
        when the caller supplied one (the direct, uncoalesced path).
        """
        ids, dists, answered, _routed, _replicas, _timings, cost = (
            self._execute_fanout(
                index_name,
                queries,
                top_k,
                eff_ef,
                trace=trace,
                collect_cost=self.collect_cost,
            )
        )
        if extra_out is not None and cost is not None:
            existing = extra_out.get("cost")
            if existing is not None:
                # Partial cache hits admit miss-blocks separately; the
                # request's cost is their sum.
                cost = SearchCost.from_dict(existing).merge(cost).as_dict()
            extra_out["cost"] = cost
        return ids, dists, answered

    def _execute_fanout(
        self,
        index_name: str,
        queries: np.ndarray,
        top_k: int,
        eff_ef: int,
        *,
        plan: RoutingPlan | None = None,
        timeout_s: float | str | None = INHERIT,
        hedging: bool | float | str | None = INHERIT,
        trace: Trace | None = None,
        collect_cost: bool = False,
    ) -> tuple:
        """The lockstep path: one shard-group fan-out + one batched merge.

        ``plan=None`` fans the full batch out to every shard group (the
        pre-router behavior, bit-exact); a routing plan sends each group
        only its routed rows with their segment probes pushed down, and
        scatters the sub-batch results back into full-width parts before
        the merge (unrouted rows hold the ``-1``/``inf`` sentinels the
        merge already treats as absent).

        Returns ``(ids, dists, answered, routed, replicas_used,
        timings, cost)``; ``answered``/``routed`` are per-row ``(B,)``
        arrays, ``replicas_used`` one winning replica id per shard group
        (``-1`` for failed or unqueried groups), ``cost`` the batch's
        aggregated search-cost dict (``None`` unless ``collect_cost``).

        ``trace`` spans the fan-out: one ``shard_rpc`` span per group
        with each replica attempt (hedges included) as a child.  Spans
        are created here and handed to the RPC paths explicitly, because
        the async fan-out runs on a separate event-loop thread where the
        recorder's nesting stack cannot be used.
        """
        num_queries = queries.shape[0]
        num_shards = len(self.groups)
        # One work item per shard group that has rows to serve:
        # (group_id, sub-batch, rows or None for "all", probes or None).
        if plan is None:
            budget = self.per_shard_budget(top_k)
            work = [
                (group_id, queries, None, None)
                for group_id in range(num_shards)
            ]
            routed = np.full(num_queries, num_shards, dtype=np.int64)
        else:
            # Routed rows are answered by their plan's groups only, so
            # the per-shard budget must cover that width, not the full
            # deployment's.
            width = (
                int(plan.routed_counts.max())
                if plan.routed_counts.size
                else 0
            )
            budget = self.per_shard_budget(top_k, num_groups=max(width, 1))
            work = [
                (
                    group_id,
                    queries[plan.shard_rows[group_id]],
                    plan.shard_rows[group_id],
                    plan.shard_probes[group_id],
                )
                for group_id in plan.shard_rows
            ]
            routed = plan.routed_counts.copy()
        replicas_used = [-1] * num_shards
        timings: dict[str, float] = {}
        if not work:
            # Every row routed nowhere (empty hints): nothing to ask.
            return (
                np.full((num_queries, top_k), -1, dtype=np.int64),
                np.full((num_queries, top_k), np.inf, dtype=np.float64),
                np.zeros(num_queries, dtype=np.int64),
                routed,
                replicas_used,
                timings,
                SearchCost().as_dict() if collect_cost else None,
            )
        if timeout_s == INHERIT:
            timeout_s = self.request_timeout_s
        fanout_span = (
            trace.start_span("fanout", groups=len(work), budget=budget)
            if trace is not None
            else None
        )
        group_spans: list[dict | None] = [
            trace.start_span("shard_rpc", parent=fanout_span, shard=group_id)
            if trace is not None
            else None
            for group_id, *_ in work
        ]
        # The hedge delay is resolved once per batch: every shard of a
        # fan-out hedges against the same delay, and an "auto" knob
        # re-reads the live shard_rpc window between batches.
        batch = _Batch(
            index_name=index_name,
            budget=budget,
            eff_ef=eff_ef,
            deadline=(
                time.monotonic() + timeout_s if timeout_s is not None else None
            ),
            hedge_delay=self._resolve_hedge_delay(
                None if hedging is False else hedging
            ),
            trace=trace,
            collect_cost=collect_cost,
        )
        tick = time.perf_counter()
        fanout = (
            self._fanout_inline if self.venue == "inline" else self._run_on_loop
        )
        outcomes = fanout(batch, work, group_spans)

        parts: list[tuple[np.ndarray, np.ndarray]] = []
        answered = routed.copy()
        succeeded = 0
        failed_any = False
        batch_cost = SearchCost() if collect_cost else None
        for (group_id, sub_queries, rows, _probes), outcome, group_span in zip(
            work, outcomes, group_spans
        ):
            part, exc, replica_id, part_cost = outcome
            if group_span is not None:
                group_span["annotations"].update(
                    ok=exc is None, replica=replica_id
                )
                trace.end_span(group_span)
            if exc is not None:
                part = self._shard_failure(group_id, exc)
            if part is None:
                failed_any = True
                if rows is None:
                    answered -= 1
                else:
                    answered[rows] -= 1
                part = (
                    np.full(
                        (sub_queries.shape[0], budget), -1, dtype=np.int64
                    ),
                    np.full(
                        (sub_queries.shape[0], budget),
                        np.inf,
                        dtype=np.float64,
                    ),
                )
            else:
                succeeded += 1
                replicas_used[group_id] = replica_id
                if batch_cost is not None:
                    batch_cost.merge(part_cost)
            if rows is None:
                parts.append(part)
            else:
                full_ids = np.full(
                    (num_queries, budget), -1, dtype=np.int64
                )
                full_dists = np.full(
                    (num_queries, budget), np.inf, dtype=np.float64
                )
                full_ids[rows] = part[0]
                full_dists[rows] = part[1]
                parts.append((full_ids, full_dists))
        if succeeded == 0:
            # Degrading to an empty answer would be indistinguishable
            # from "no neighbors exist"; a fully dead fleet must fail.
            raise TransportError(
                f"all {len(work)} shards failed for this request"
            ) from self._last_failure
        if failed_any:
            with self._served_lock:
                self.degraded_batches += 1
            _DEGRADED.inc(broker=self.name)
        if fanout_span is not None:
            trace.end_span(fanout_span)
        fanned = time.perf_counter()
        merge_span = (
            trace.start_span("merge", parts=len(parts))
            if trace is not None
            else None
        )
        ids, dists = merge_shard_results_batch(parts, top_k)
        if merge_span is not None:
            trace.end_span(merge_span)
        done = time.perf_counter()
        self.timings.record("fanout", fanned - tick)
        self.timings.record("merge", done - fanned)
        timings["fanout_ms"] = (fanned - tick) * 1000.0
        timings["merge_ms"] = (done - fanned) * 1000.0
        return (
            ids,
            dists,
            answered,
            routed,
            replicas_used,
            timings,
            batch_cost.as_dict() if batch_cost is not None else None,
        )

    # -- replica selection + failover --------------------------------------------------
    @staticmethod
    def _failover_eligible(exc: TransportError) -> bool:
        """Whether a sibling replica may retry after this failure.

        Dead/unreachable/garbled connections, a replica shedding with
        ``OVERLOADED`` (the work was refused instantly, so budget
        remains and a sibling may have capacity), and a replica that
        does not host the index (restarted process) fail over; timeouts
        do not (retrying a blown budget only makes it later), and
        structured remote errors do not (the request itself is broken).
        """
        if isinstance(
            exc, (ConnectionLostError, ProtocolError, OverloadedError)
        ):
            return True
        return (
            isinstance(exc, RemoteCallError) and exc.error_type == "KeyError"
        )

    @staticmethod
    def _retry_after_pause(
        last: TransportError | None,
        deadline: float | None,
        waited: bool,
    ) -> float | None:
        """Honor an OVERLOADED retry-after hint, at most once per request.

        When every replica of a group shed with ``OVERLOADED``, the
        servers told us exactly when asking again is worth it.  Returns
        the pause to sleep before re-trying the whole group -- only if
        we have not paused yet and the hint fits inside the remaining
        deadline budget -- else ``None`` (give up with the overload).
        """
        if waited or not isinstance(last, OverloadedError):
            return None
        hint = last.retry_after_s
        if hint is None or hint < 0:
            return None
        if deadline is not None and deadline - time.monotonic() <= hint:
            return None
        return hint

    # -- inline venue (in-process fleets) -----------------------------------------------
    def _fanout_inline(
        self, batch: _Batch, work: list[tuple], group_spans: list
    ) -> list[tuple]:
        """Search every work item's shard group on the calling thread.

        Only reached when the whole fleet is in-process: there is no
        connection to lose, no admission queue to shed from and no way
        to cancel numpy mid-kernel, so there is nothing to fail over,
        retry or hedge -- each group is ``pick -> attempt -> part``, and
        an exception (unknown index, malformed batch) is the caller's.
        Same outcome tuples as :meth:`_fanout_async`.
        """
        trace_ctx = batch.trace.context() if batch.trace is not None else None
        outcomes = []
        for (group_id, sub_queries, _rows, probes), group_span in zip(
            work, group_spans
        ):
            group = self.groups[group_id]
            replica = group.pick()
            with _Attempt(batch, group, replica, group_span) as attempt:
                part = replica.transport.search_batch(
                    batch.index_name,
                    sub_queries,
                    batch.budget,
                    ef=batch.eff_ef,
                    probes=probes,
                    trace_ctx=trace_ctx,
                    collect_cost=batch.collect_cost,
                    info_out=attempt.info,
                )
            part, replica_id, cost = attempt.settle(part)
            outcomes.append((part, None, replica_id, cost))
        return outcomes

    # -- loop venue (any remote transport) ----------------------------------------------
    def _resolve_hedge_delay(
        self, knob: float | str | None = INHERIT
    ) -> float | None:
        """This batch's hedge delay: the static knob, or the live one.

        ``knob`` is a per-request override of the broker's
        ``hedge_after_s`` (omitted = the broker's own knob).  ``"auto"``
        derives the delay from the ``shard_rpc`` stage's
        sliding window: ``median * AUTO_HEDGE_MULTIPLIER`` (see the
        module constants for why the median and not a tail quantile).
        Until the window holds ``AUTO_HEDGE_MIN_SAMPLES`` samples there
        is no hedging at all -- the first requests of a fresh broker are
        establishing connections and warming caches, which must not be
        mistaken for straggling.
        """
        if knob == INHERIT:
            knob = self.hedge_after_s
        if knob != "auto":
            return knob
        sample = self.timings.quantile("shard_rpc", AUTO_HEDGE_QUANTILE)
        if sample is None or sample[0] < AUTO_HEDGE_MIN_SAMPLES:
            return None
        return max(sample[1] * AUTO_HEDGE_MULTIPLIER, AUTO_HEDGE_MIN_DELAY_S)

    def _run_on_loop(
        self, batch: _Batch, work: list[tuple], group_spans: list
    ) -> list[tuple]:
        """Run :meth:`_fanout_async` on the loop thread and wait for it.

        When :meth:`close` got there first -- the loop refuses the
        submission, or tears the running fan-out down -- the transports
        are still alive, so the same coroutine is re-run from the top
        on a private loop on the caller's thread: one implementation,
        whichever thread ends up driving it.
        """
        coro = self._fanout_async(batch, work, group_spans)
        try:
            future = self._fanout_loop.submit(coro)
        except RuntimeError:
            coro.close()
        else:
            try:
                return future.result()
            except (FutureCancelledError, asyncio.CancelledError):
                # The wrapper future raises concurrent.futures'
                # CancelledError, a *different* class from asyncio's.
                pass
        return asyncio.run(self._fanout_async(batch, work, group_spans))

    async def _fanout_async(
        self, batch: _Batch, work: list[tuple], group_spans: list
    ) -> list[tuple]:
        """Multiplex one batch's group RPCs (and their hedges) on the loop.

        Returns one ``(part, exc, replica_id, cost)`` tuple per work
        item, in work order.  Partial-result policy is applied by the
        calling thread.
        """
        return await asyncio.gather(
            *(
                self._group_call_async(
                    batch, self.groups[group_id], sub_queries, probes, span
                )
                for (group_id, sub_queries, _rows, probes), span in zip(
                    work, group_spans
                )
            )
        )

    async def _group_call_async(
        self,
        batch: _Batch,
        group: ReplicaGroup,
        queries: np.ndarray,
        probes: list[tuple[int, ...]] | None,
        group_span: dict | None,
    ) -> tuple:
        """One group's outcome on the loop: hedged search + failover.

        Picks the least-loaded replica, retries failover-eligible
        failures on untried siblings while deadline budget remains, and
        honors one ``OVERLOADED`` retry-after pause per request.  Never
        raises a :class:`TransportError`: the last failure travels in
        the outcome tuple.
        """
        deadline = batch.deadline
        tried: list[int] = []
        last: TransportError | None = None
        waited_retry = False
        while True:
            replica = group.pick(exclude=tried)
            if replica is None:
                pause = self._retry_after_pause(last, deadline, waited_retry)
                if pause is not None:
                    # Every replica shed with OVERLOADED and the hint
                    # fits the deadline: back off once, then re-try the
                    # whole group.
                    await asyncio.sleep(pause)
                    waited_retry = True
                    tried.clear()
                    continue
                return None, last, -1, None
            if tried:
                # A sibling is actually taking over, not just a dead end.
                with self._served_lock:
                    self.failovers += 1
                _FAILOVERS.inc(broker=self.name)
            tried.append(replica.replica_id)
            try:
                part, replica_id, part_cost = await self._hedged_search_async(
                    batch, group, replica, tried, queries, probes, group_span
                )
            except TransportError as exc:
                if isinstance(exc, OverloadedError):
                    _OVERLOADED.inc(broker=self.name)
                expired = (
                    deadline is not None
                    and deadline - time.monotonic() <= 0
                )
                if not self._failover_eligible(exc) or expired:
                    return None, exc, -1, None
                last = exc
                continue
            return part, None, replica_id, part_cost

    async def _search_one_async(
        self,
        batch: _Batch,
        transport: SearcherTransport,
        queries: np.ndarray,
        probes: list[tuple[int, ...]] | None,
        trace_ctx: dict | None,
        info_out: dict | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One shard RPC on the event loop.

        Async-capable transports are awaited natively (the remote
        client enforces the deadline on the wire); the in-process
        shards of a mixed fleet run on the loop's default executor with
        the wait bounded by the remaining budget.  Per-RPC wall time
        lands in the ``shard_rpc`` latency stage (the number to tune
        ``hedge_after_s`` against).
        """
        deadline = batch.deadline
        native = isinstance(transport, AsyncSearcherTransport)
        call = partial(
            transport.search_batch_async if native else transport.search_batch,
            batch.index_name,
            queries,
            batch.budget,
            ef=batch.eff_ef,
            deadline=deadline,
            probes=probes,
            trace_ctx=trace_ctx,
            collect_cost=batch.collect_cost,
            info_out=info_out,
        )
        tick = time.perf_counter()
        try:
            if native:
                return await call()
            wait = None
            if deadline is not None:
                wait = max(deadline - time.monotonic(), 0.0)
            try:
                return await asyncio.wait_for(
                    asyncio.get_running_loop().run_in_executor(None, call),
                    wait,
                )
            except (asyncio.TimeoutError, TimeoutError):
                raise DeadlineExceededError(
                    f"shard {transport.shard_id} missed the request deadline"
                ) from None
        finally:
            self.timings.record("shard_rpc", time.perf_counter() - tick)

    async def _hedged_search_async(
        self,
        batch: _Batch,
        group: ReplicaGroup,
        replica: ReplicaState,
        tried: list[int],
        queries: np.ndarray,
        probes: list[tuple[int, ...]] | None,
        group_span: dict | None,
    ) -> tuple[tuple[np.ndarray, np.ndarray], int, dict | None]:
        """One replica's answer, hedging a straggling RPC when allowed.

        The hedge fires only when (a) hedging is configured (a resolved
        delay exists for this batch), (b) the transport can multiplex a
        second in-flight RPC, and (c) budget remains before the request
        deadline.  The hedge lands on a *different* replica when the
        group has an untried, non-draining, async-capable sibling --
        that is what lets it dodge a slow process, not just a slow
        connection -- and on a second connection to the same process
        otherwise.  Each task is one :class:`_Attempt` (ledger slot +
        child span of ``group_span`` annotated ``hedge`` / ``outcome``
        / ``win``, so a trace shows the race) resolving to
        ``(attempt, part)``.
        """
        deadline, delay = batch.deadline, batch.hedge_delay
        trace_ctx = batch.trace.context() if batch.trace is not None else None

        async def issue(target: ReplicaState, hedge: bool = False):
            with _Attempt(
                batch, group, target, group_span, hedge=hedge
            ) as attempt:
                part = await self._search_one_async(
                    batch,
                    target.transport,
                    queries,
                    probes,
                    trace_ctx,
                    attempt.info,
                )
            return attempt, part

        primary = asyncio.create_task(issue(replica))
        if (
            delay is not None
            and isinstance(replica.transport, AsyncSearcherTransport)
            and (deadline is None or deadline - time.monotonic() > delay)
        ):
            done, _ = await asyncio.wait({primary}, timeout=delay)
            # Once out of budget the in-flight primary is about to raise
            # its own DeadlineExceededError; a hedge now would be a
            # second RPC that cannot answer in time either.
            if not done and (
                deadline is None or deadline - time.monotonic() > 0
            ):
                alternate = group.pick(exclude=tried)
                if alternate is not None and (
                    alternate.draining
                    or not isinstance(
                        alternate.transport, AsyncSearcherTransport
                    )
                ):
                    alternate = None
                if alternate is None:
                    alternate = replica  # second connection, same process
                else:
                    tried.append(alternate.replica_id)
                with self._served_lock:
                    self.hedges += 1
                _HEDGES.inc(broker=self.name)
                return await self._first_reply_async(
                    primary,
                    asyncio.create_task(issue(alternate, hedge=True)),
                )
        attempt, part = await primary
        return attempt.settle(part)

    async def _first_reply_async(self, primary, hedge):
        """Race the primary against its hedge; first *success* wins.

        One task failing does not settle the race while the other still
        runs -- a dead primary with a live hedge is exactly the save
        hedging exists for.  When both fail, the primary's error is
        raised.  The loser is cancelled AND awaited, so its connection
        is discarded (never pooled) before the batch returns.
        """
        pending = {primary, hedge}
        failures: dict = {}
        winner = None
        unexpected: BaseException | None = None
        while pending and winner is None:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            # Settle the whole completion wave before deciding: set
            # iteration order is arbitrary, and a success must win
            # deterministically even when the other task failed in the
            # same tick.
            for task in done:
                exc = task.exception()
                if exc is None:
                    winner = winner if winner is not None else task
                elif isinstance(exc, TransportError):
                    failures[task] = exc
                else:
                    unexpected = exc
            if winner is None and unexpected is not None:
                for straggler in pending:
                    straggler.cancel()
                for straggler in pending:
                    with contextlib.suppress(
                        asyncio.CancelledError, TransportError
                    ):
                        await straggler
                raise unexpected
        if winner is None:
            raise failures.get(primary, failures.get(hedge))
        for loser in pending:
            loser.cancel()
        for loser in pending:
            with contextlib.suppress(asyncio.CancelledError, TransportError):
                await loser
        if winner is hedge:
            with self._served_lock:
                self.hedge_wins += 1
            _HEDGE_WINS.inc(broker=self.name)
        attempt, part = winner.result()
        return attempt.settle(part)

    def _shard_failure(self, shard_id: int, exc: TransportError) -> None:
        """Handle one shard group's failure per the active policy.

        Reached only after replica failover is exhausted (or the failure
        was not failover-eligible).  Returns ``None`` (the caller
        substitutes sentinel rows) under ``degrade``; re-raises
        otherwise.  Degradeable failures are connectivity losses
        (dead/unreachable/garbled/late shard) plus one structured error:
        a remote ``KeyError`` -- "I don't host this index" -- which is
        how a searcher that restarted (or missed a degraded deploy)
        presents; its rows are as gone as a dead shard's.  Any other
        :class:`RemoteCallError` re-raises under either policy: the
        searcher executed the request and told us the request itself is
        broken, which no amount of shard-dropping can fix.  (A globally
        wrong index name still fails: every shard KeyErrors, and an
        all-shards-failed request always raises.)
        """
        unhosted = (
            isinstance(exc, RemoteCallError) and exc.error_type == "KeyError"
        )
        if self.partial_policy == "fail" or (
            isinstance(exc, RemoteCallError) and not unhosted
        ):
            raise exc
        with self._served_lock:
            self.shard_failures[shard_id] += 1
        _SHARD_FAILURES.inc(broker=self.name, shard=shard_id)
        self._last_failure = exc
        return None
