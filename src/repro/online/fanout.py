"""The shard fan-out: one batch out to the replica groups, parts back.

:class:`FanOut` owns the fleet-facing half of a request.  It runs in one
of two **venues**, chosen from the fleet it was given, never by an
option:

- ``"inline"`` -- every transport is a
  :class:`~repro.net.transport.LocalSearcherTransport`.  In-process numpy
  work cannot be shed, hedged, failed over or deadline-cancelled, so each
  shard group is ``pick -> attempt -> part`` on the calling thread.
  (Routing it through the event loop instead costs +0.5-0.7 ms on a
  2.5-3.0 ms single-query request -- the whole latency budget of the
  ledger's ``local_single`` workload.)
- ``"loop"`` -- the fleet holds any other transport.  All shard RPCs of
  a batch are multiplexed on one private asyncio loop thread, the only
  home of replica **failover**, the ``OVERLOADED`` retry-after pause
  (:mod:`repro.online.failover`) and **hedged requests**
  (:mod:`repro.online.hedging`; :mod:`repro.online.replicas` keeps the
  per-replica health/load ledger both venues report to).

Either venue yields one :class:`Outcome` per :class:`Work` item;
:func:`assemble` turns them into the :class:`FanoutResult` to merge.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import CancelledError as FutureCancelledError
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from repro.core.merge import empty_part
from repro.errors import DeadlineExceededError, OverloadedError, TransportError
from repro.net.loop import LoopThread
from repro.net.protocol import ShardCall, ShardReply
from repro.net.transport import (
    AsyncSearcherTransport,
    LocalSearcherTransport,
    SearcherTransport,
)
from repro.obs.clock import Stage, StageClock
from repro.obs.cost import SearchCost
from repro.obs.metrics import Tally
from repro.obs.tracing import Trace
from repro.online.failover import (
    budget_left,
    degrades,
    retry_after_pause,
    should_fail_over,
)
from repro.online.hedging import hedged_search
from repro.online.replicas import ReplicaGroup, ReplicaState
from repro.online.router import RoutingPlan

Part = tuple[np.ndarray, np.ndarray]


class Batch(NamedTuple):
    """What every shard RPC of one fan-out shares: the whole batch's
    :class:`~repro.net.protocol.ShardCall` (all rows -- index,
    perShardTopK budget, ``ef``, trace context, cost flag and deadline
    live there and nowhere else) plus what never crosses the wire."""

    call: ShardCall
    hedge_delay: float | None
    trace: Trace | None

    def call_for(self, item: Work) -> ShardCall:
        """``item``'s call, built once: a hedge or a failover re-issues
        the same object.  An item of all rows *is* the batch's call."""
        if item.rows is None:
            return self.call
        return replace(self.call, queries=item.queries)


class Work(NamedTuple):
    """One shard group's share of a batch: its sub-batch and the batch
    rows it covers (``None`` = all of them)."""

    group_id: int
    queries: np.ndarray
    rows: np.ndarray | None


class Outcome(NamedTuple):
    """How one :class:`Work` item ended: a part from ``replica_id``, or
    the ``error`` that outlived failover (``replica_id`` is then -1)."""

    part: Part | None
    error: TransportError | None
    replica_id: int
    cost: dict | None


class FanoutResult(NamedTuple):
    """One fan-out, ready to merge.

    ``parts``: one full-width ``(B, budget)`` block per work item (rows
    not asked about, or not answered, hold the ``-1``/``inf`` padding the
    merge treats as absent); ``answered``: per row, how many of its
    routed groups answered; ``cost``: the summed search-cost dict when
    collected; ``failures``: the errors of the groups this request
    degraded past.
    """

    parts: list[Part]
    answered: np.ndarray
    cost: dict | None
    failures: list[TransportError]


def work_list(
    queries: np.ndarray, plan: RoutingPlan | None, num_shards: int
) -> tuple[list[Work], np.ndarray]:
    """``(work, routed)`` for one batch.

    ``plan=None`` sends the full batch to every shard group; a routing
    plan sends each group only its routed rows, which the group routes
    again by the same rule.  ``work`` is empty when every row routed
    nowhere (its segments are hosted on no shard).
    """
    if plan is None:
        return (
            [Work(group_id, queries, None) for group_id in range(num_shards)],
            np.full(queries.shape[0], num_shards, dtype=np.int64),
        )
    return (
        [
            Work(group_id, queries[rows], rows)
            for group_id, rows in plan.shard_rows.items()
        ],
        plan.routed_counts.copy(),
    )


def assemble(
    work: list[Work],
    outcomes: list[Outcome],
    routed: np.ndarray,
    budget: int,
    partial_policy: str,
    tally: Tally,
    collect_cost: bool = False,
) -> FanoutResult:
    """Apply the partial-result policy and build the full-width parts.

    A failed group either re-raises its error or degrades
    (:func:`~repro.online.failover.degrades`); sub-batch results are
    scattered back onto ``(B, budget)`` blocks.  A request whose every
    group failed raises, chained to the last of *its own* failures.
    """
    num_queries = routed.shape[0]
    parts: list[Part] = []
    answered = routed.copy()
    failures: list[TransportError] = []
    cost = SearchCost() if collect_cost else None
    for item, outcome in zip(work, outcomes):
        part = outcome.part
        if outcome.error is not None:
            if not degrades(outcome.error, partial_policy):
                raise outcome.error
            tally.count("shard_failures", shard=item.group_id)
            failures.append(outcome.error)
            if item.rows is None:
                answered -= 1
            else:
                answered[item.rows] -= 1
        elif cost is not None:
            cost.merge(outcome.cost)
        if item.rows is not None or part is None:
            full = empty_part(num_queries, budget)
            if part is not None:
                full[0][item.rows], full[1][item.rows] = part
            part = full
        parts.append(part)
    if len(failures) == len(work):
        # Degrading to an empty answer would be indistinguishable
        # from "no neighbors exist"; a fully dead fleet must fail.
        raise TransportError(
            f"all {len(work)} shards failed for this request"
        ) from failures[-1]
    if failures:
        tally.count("degraded_batches")
    return FanoutResult(
        parts=parts,
        answered=answered,
        cost=cost.as_dict() if cost is not None else None,
        failures=failures,
    )


class Attempt(Stage):
    """One replica attempt in either venue: ledger slot, span, reply.

    The ``attempt`` stage around the shard RPC, a child span of the
    group's ``shard_rpc`` span.  The ``with`` block holds the replica's
    in-flight slot and stores the transport's answer in ``reply``.  On
    exit the group's in-flight/EWMA ledger is settled from the stage's
    own duration and the span closes with ``outcome`` ``ok`` / ``error``
    / ``cancelled`` (a cancelled hedge loser releases its slot without
    polluting the latency EWMA); the searcher's own spans are spliced
    under the successful attempt that produced them.  ``win`` is left
    ``False`` -- a completed loser (both answered in one tick) stays a
    loss; :meth:`settle` flips the race winner.
    """

    __slots__ = ("group", "replica", "reply")

    def __init__(
        self,
        clock: StageClock,
        trace: Trace | None,
        group: ReplicaGroup,
        replica: ReplicaState,
        group_span: dict | None,
        *,
        window: str | None,
        hedge: bool = False,
    ) -> None:
        super().__init__(
            clock, "attempt", trace, group_span, window, None,
            {
                "replica": replica.replica_id,
                "hedge": hedge,
                "outcome": "ok",
                "win": False,
            },
        )
        self.group = group
        self.replica = replica
        self.reply: ShardReply | None = None

    def __enter__(self) -> Attempt:
        self.group.begin(self.replica)
        return super().__enter__()

    def __exit__(self, exc_type, exc, traceback) -> None:
        super().__exit__(exc_type, exc, traceback)
        if exc is None:
            self.group.finish(self.replica, self.seconds)
            if self.span is not None and self.reply.trace:
                self.trace.attach_remote(self.span, self.reply.trace)
        else:
            cancelled = isinstance(exc, asyncio.CancelledError)
            self.group.finish(
                self.replica, outcome="cancelled" if cancelled else "error"
            )

    def settle(self) -> Outcome:
        """Mark this attempt, which delivered ``reply``, as the winner."""
        self.annotate(win=True)
        reply = self.reply
        return Outcome(
            (reply.ids, reply.dists), None, self.replica.replica_id, reply.cost
        )


class FanOut:
    """Runs fan-outs over one fleet of replica groups.

    ``clock`` times the ``shard_rpc`` / ``attempt`` stages (on the loop
    venue every attempt is also one sample of the ``shard_rpc`` window
    -- the per-RPC wall time ``hedge_after_s`` is tuned against);
    ``tally`` counts failovers, hedges, sheds and degraded shards.
    """

    def __init__(
        self,
        groups: list[ReplicaGroup],
        clock: StageClock,
        tally: Tally,
        partial_policy: str,
    ) -> None:
        self.groups = groups
        self.clock = clock
        self.tally = tally
        self.partial_policy = partial_policy
        self.venue = (
            "inline"
            if all(
                isinstance(transport, LocalSearcherTransport)
                for group in groups
                for transport in group.transports
            )
            else "loop"
        )
        self._loop: LoopThread | None = (
            LoopThread("broker-async-loop") if self.venue == "loop" else None
        )

    def close(self) -> None:
        """Stop the loop thread; fan-outs it can no longer serve re-run
        on their caller's thread instead of hanging."""
        if self._loop is not None:
            self._loop.close()

    def run(
        self,
        batch: Batch,
        work: list[Work],
        routed: np.ndarray,
        fanout_span: dict | None = None,
    ) -> FanoutResult:
        """Search every work item's shard group; assemble the parts.

        A traced group is one ``shard_rpc`` child of ``fanout_span``
        with each attempt (hedges included) as its child -- explicit
        parents, because the loop venue runs on a thread where the
        recorder's nesting stack cannot be used.
        """
        venue = self._inline if self.venue == "inline" else self._on_loop
        return assemble(
            work,
            venue(batch, work, fanout_span),
            routed,
            batch.call.top_k,
            self.partial_policy,
            self.tally,
            bool(batch.call.cost),
        )

    # -- inline venue (in-process fleets) -----------------------------------------------
    def _inline(
        self, batch: Batch, work: list[Work], fanout_span: dict | None
    ) -> list[Outcome]:
        """Only reached when the whole fleet is in-process: there is no
        connection to lose, no admission queue to shed from and no way
        to cancel numpy mid-kernel, so there is nothing to fail over,
        retry or hedge, and an exception (unknown index, malformed
        batch) is the caller's."""
        outcomes = []
        for item in work:
            group = self.groups[item.group_id]
            with self.clock.stage(
                "shard_rpc", batch.trace, parent=fanout_span, shard=item.group_id
            ) as rpc:
                replica = group.pick()
                with Attempt(
                    self.clock, batch.trace, group, replica, rpc.span, window=None
                ) as attempt:
                    attempt.reply = replica.transport.search(batch.call_for(item))
                outcome = attempt.settle()
                rpc.annotate(ok=True, replica=outcome.replica_id)
            outcomes.append(outcome)
        return outcomes

    # -- loop venue (any remote transport) ----------------------------------------------
    def _on_loop(
        self, batch: Batch, work: list[Work], fanout_span: dict | None
    ) -> list[Outcome]:
        """Run :meth:`_gather` on the loop thread and wait for it.

        When :meth:`close` got there first -- the loop refuses the
        submission, or tears the running fan-out down -- the transports
        are still alive, so the same coroutine is re-run from the top
        on a private loop on the caller's thread: one implementation,
        whichever thread ends up driving it.
        """
        coro = self._gather(batch, work, fanout_span)
        try:
            future = self._loop.submit(coro)
        except RuntimeError:
            coro.close()
        else:
            try:
                return future.result()
            except (FutureCancelledError, asyncio.CancelledError):
                # The wrapper future raises concurrent.futures'
                # CancelledError, a *different* class from asyncio's.
                pass
        return asyncio.run(self._gather(batch, work, fanout_span))

    async def _gather(
        self, batch: Batch, work: list[Work], fanout_span: dict | None
    ) -> list[Outcome]:
        """Multiplex one batch's group RPCs (and their hedges)."""
        return await asyncio.gather(
            *(self._group_call(batch, item, fanout_span) for item in work)
        )

    async def _group_call(
        self, batch: Batch, item: Work, fanout_span: dict | None
    ) -> Outcome:
        """One group's outcome on the loop: hedged search + failover.

        Picks the least-loaded replica, retries failures a sibling may
        retry on untried siblings while deadline budget remains, and
        honors one ``OVERLOADED`` retry-after pause per request.  Never
        raises a :class:`TransportError`: the last failure travels in
        the outcome.
        """
        group = self.groups[item.group_id]
        call = batch.call_for(item)
        deadline = call.deadline
        tried: list[int] = []
        last: TransportError | None = None
        waited_retry = False
        with self.clock.stage(
            "shard_rpc", batch.trace, parent=fanout_span, shard=item.group_id
        ) as rpc:

            async def issue(target: ReplicaState, hedge: bool = False):
                with Attempt(
                    self.clock, batch.trace, group, target, rpc.span,
                    window="shard_rpc", hedge=hedge,
                ) as attempt:
                    attempt.reply = await self._search_one(target.transport, call)
                return attempt

            while True:
                replica = group.pick(exclude=tried)
                if replica is None:
                    pause = retry_after_pause(last, deadline, waited_retry)
                    if pause is None:
                        break
                    # Every replica shed with OVERLOADED and the hint
                    # fits the deadline: back off once, then re-try the
                    # whole group.
                    await asyncio.sleep(pause)
                    waited_retry = True
                    tried.clear()
                    continue
                if tried:
                    # A sibling is actually taking over, not just a dead end.
                    self.tally.count("failovers")
                tried.append(replica.replica_id)
                try:
                    attempt = await hedged_search(
                        issue, group, replica, tried,
                        deadline, batch.hedge_delay, self.tally,
                    )
                except TransportError as exc:
                    last = exc
                    if isinstance(exc, OverloadedError):
                        self.tally.count("overloaded")
                    if not should_fail_over(exc, deadline):
                        break
                else:
                    outcome = attempt.settle()
                    rpc.annotate(ok=True, replica=outcome.replica_id)
                    return outcome
            rpc.annotate(ok=False, replica=-1)
        return Outcome(None, last, -1, None)

    @staticmethod
    async def _search_one(
        transport: SearcherTransport, call: ShardCall
    ) -> ShardReply:
        """One shard RPC on the event loop.

        Async-capable transports are awaited natively (the remote
        client enforces the deadline on the wire); the in-process
        shards of a mixed fleet run on the loop's default executor with
        the wait bounded by the remaining budget.
        """
        if isinstance(transport, AsyncSearcherTransport):
            return await transport.search_batch_async(call)
        deadline = call.deadline
        wait = None if deadline is None else max(budget_left(deadline), 0.0)
        try:
            return await asyncio.wait_for(
                asyncio.get_running_loop().run_in_executor(
                    None, transport.search, call
                ),
                wait,
            )
        except (asyncio.TimeoutError, TimeoutError):
            raise DeadlineExceededError(
                f"shard {transport.shard_id} missed the request deadline"
            ) from None
