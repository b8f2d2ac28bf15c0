"""The shard fan-out: one batch out to the replica groups, parts back.

:class:`FanOut` owns the fleet-facing half of a request, on the calling
thread, with one path for every fleet: each group's RPC is started with
``transport.start_search``, then one ``select.poll`` waits on every
attempt in flight (:func:`repro.net.client.poll`); its timeout is the
earliest pending timer -- a hedge delay, an attempt's budget, a
retry-after pause or a reconnect backoff.  A remote attempt may fail
over to a sibling replica, wait out one ``OVERLOADED`` retry-after pause
(:mod:`repro.online.failover`) or be hedged
(:mod:`repro.online.hedging`); an in-process attempt is answered when it
is issued, so none of that ever applies to it, and an exception it
raises is the caller's.  :mod:`repro.online.replicas` keeps the
per-replica health/load ledger every attempt reports to.

The fan-out yields one :class:`Outcome` per :class:`Work` item;
:func:`assemble` turns them into the :class:`FanoutResult` to merge.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from repro.core.merge import empty_part
from repro.errors import OverloadedError, TransportError
from repro.net.client import poll, refuse_in_running_loop
from repro.net.protocol import ShardCall, ShardReply
from repro.obs.clock import Stage, StageClock
from repro.obs.cost import FIELDS as COST_FIELDS
from repro.obs.metrics import Tally
from repro.obs.tracing import Trace
from repro.online.failover import (
    budget_left,
    degrades,
    retry_after_pause,
    should_fail_over,
)
from repro.online.hedging import first_reply, hedge_target
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
    cost = dict.fromkeys(COST_FIELDS, 0) if collect_cost else None
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
        elif cost is not None and outcome.cost is not None:
            for field in COST_FIELDS:
                cost[field] += int(outcome.cost.get(field, 0))
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
        cost=cost,
        failures=failures,
    )


class Attempt(Stage):
    """One replica attempt: ledger slot, span, reply.

    The ``attempt`` stage around the shard RPC, a child span of the
    group's ``shard_rpc`` span.  Entering takes the replica's in-flight
    slot; leaving settles the group's in-flight/EWMA ledger from the
    stage's own duration and closes the span with ``outcome`` ``ok`` /
    ``error``, and the searcher's own spans are spliced under the
    successful attempt that produced them.  A race's loser still in
    flight is closed by :meth:`cancel` instead: ``cancelled``, its slot released
    without polluting the latency EWMA.  ``win`` is left ``False`` -- a
    completed loser (both answered by one poll) stays a loss;
    :meth:`settle` flips the race winner.

    ``rpc`` is the transport's RPC; :meth:`close` leaves the stage once
    it is done, with its reply in ``reply``.
    """

    __slots__ = ("group", "replica", "reply", "rpc")

    def __init__(
        self,
        clock: StageClock,
        trace: Trace | None,
        group: ReplicaGroup,
        replica: ReplicaState,
        group_span: dict | None,
        hedge: bool = False,
    ) -> None:
        super().__init__(
            clock, "attempt", trace, group_span, "shard_rpc", None,
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
        self.rpc = None

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
            self.group.finish(self.replica, outcome="error")

    @property
    def done(self) -> bool:
        return self.rpc.done

    def close(self) -> None:
        """Leave the stage with the finished RPC's reply or error."""
        try:
            self.reply = self.rpc.result()
        except TransportError as exc:
            self.__exit__(type(exc), exc, None)
        else:
            self.__exit__(None, None, None)

    def cancel(self) -> None:
        """Abandon the RPC in flight (its socket is discarded, never
        pooled) and leave the stage ``cancelled``."""
        self.rpc.cancel()
        self.annotate(outcome="cancelled")
        Stage.__exit__(self, None, None, None)
        self.group.finish(self.replica, outcome="cancelled")

    def settle(self) -> Outcome:
        """Mark this attempt, which delivered ``reply``, as the winner."""
        self.annotate(win=True)
        reply = self.reply
        return Outcome(
            (reply.ids, reply.dists), None, self.replica.replica_id, reply.cost
        )


class FanOut:
    """Runs fan-outs over one fleet of replica groups.

    ``clock`` times the ``shard_rpc`` / ``attempt`` stages (every
    attempt is also one sample of the ``shard_rpc`` window -- the
    per-RPC wall time ``hedge_after_s`` is tuned against); ``tally``
    counts failovers, hedges, sheds and degraded shards.
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
        #: Whether a poll may block: only then is a running event loop
        #: on the calling thread refused.
        self.remote = any(
            transport.remote for group in groups for transport in group.transports
        )

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
        parents, because the groups' attempts interleave and the
        recorder's nesting stack cannot follow them.  Every group's RPC
        is sent, then all are polled to their outcomes; an exception
        that escapes (a bug, an interrupt, an in-process search's error)
        abandons every attempt still in flight, so no socket is pooled
        mid-reply.
        """
        if self.remote:
            refuse_in_running_loop("FanOut.run")
        calls: list[GroupCall] = []
        try:
            for item in work:
                calls.append(GroupCall(self, batch, item, fanout_span))
                calls[-1].step(time.monotonic(), set())
            poll(calls)
        except BaseException as exc:
            for call in calls:
                call.abandon(exc)
            raise
        return assemble(
            work,
            [call.outcome for call in calls],
            routed,
            batch.call.top_k,
            self.partial_policy,
            self.tally,
            bool(batch.call.cost),
        )


class GroupCall:
    """One work item: its group's attempts, stepped by
    :func:`repro.net.client.poll` until the group has an outcome.

    Picks the least-loaded replica, hedges an attempt that straggles
    past the batch's hedge delay while budget remains, retries failures
    a sibling may retry on untried siblings while deadline budget
    remains, and honors one ``OVERLOADED`` retry-after pause per
    request.  The last failure travels in the :class:`Outcome`.
    """

    __slots__ = (
        "fanout", "batch", "group", "call", "deadline", "tried", "last",
        "waited_retry", "stage", "shard_rpc", "race", "hedge_at", "resume_at",
        "outcome", "done",
    )

    def __init__(
        self, fanout: FanOut, batch: Batch, item: Work, fanout_span: dict | None
    ) -> None:
        self.fanout = fanout
        self.batch = batch
        self.group = fanout.groups[item.group_id]
        self.call = batch.call_for(item)
        self.deadline = self.call.deadline
        self.tried: list[int] = []
        self.last: TransportError | None = None
        self.waited_retry = False
        self.stage = fanout.clock.stage(
            "shard_rpc", batch.trace, parent=fanout_span, shard=item.group_id
        )
        self.shard_rpc = self.stage.__enter__()
        #: The current replica's attempts: the primary, then its hedge.
        self.race: list[Attempt] = []
        self.hedge_at = math.inf
        #: When the next replica is picked while ``race`` is empty.
        self.resume_at = -math.inf
        self.outcome: Outcome | None = None
        self.done = False

    @property
    def wake_at(self) -> float:
        return min(
            self.hedge_at,
            self.resume_at,
            *(attempt.rpc.wake_at for attempt in self.race if not attempt.done),
        )

    def rpcs(self) -> list:
        return [attempt.rpc for attempt in self.race if not attempt.done]

    def step(self, now: float, ready: set) -> None:
        for attempt in self.race:
            if not attempt.done:
                attempt.rpc.step(now, ready)
                if attempt.done:
                    attempt.close()
        self._advance(now)

    def _advance(self, now: float) -> None:
        """Act on everything due at ``now`` until the group waits."""
        while not self.done:
            if not self.race:
                if now < self.resume_at:
                    return
                self._pick()
                continue
            try:
                winner = first_reply(self.race)
            except TransportError as exc:
                self._failed(exc)
                continue
            if winner is not None:
                for attempt in self.race:
                    if not attempt.done:
                        attempt.cancel()
                if winner is not self.race[0]:
                    self.fanout.tally.count("hedge_wins")
                outcome = winner.settle()
                self.shard_rpc.annotate(ok=True, replica=outcome.replica_id)
                return self._finish(outcome)
            if now < self.hedge_at:
                return
            # Once out of budget the primary is about to time out; a
            # hedge now would be a second RPC that cannot answer in time.
            self.hedge_at = math.inf
            if budget_left(self.deadline) > 0:
                replica = self.race[0].replica
                self.fanout.tally.count("hedges")
                self._issue(hedge_target(self.group, replica, self.tried), True)

    def _pick(self) -> None:
        """Start the next replica's attempt, pause, or give up."""
        self.resume_at = math.inf
        replica = self.group.pick(exclude=self.tried)
        if replica is None:
            pause = retry_after_pause(self.last, self.deadline, self.waited_retry)
            if pause is None:
                self.shard_rpc.annotate(ok=False, replica=-1)
                return self._finish(Outcome(None, self.last, -1, None))
            # Every replica shed with OVERLOADED and the hint fits the
            # deadline: back off once, then re-try the whole group.
            self.resume_at = time.monotonic() + pause
            self.waited_retry = True
            self.tried.clear()
            return
        if self.tried:
            # A sibling is actually taking over, not just a dead end.
            self.fanout.tally.count("failovers")
        self.tried.append(replica.replica_id)
        delay = self.batch.hedge_delay
        hedging = delay is not None and budget_left(self.deadline) > delay
        self._issue(replica)
        self.hedge_at = time.monotonic() + delay if hedging else math.inf

    def _issue(self, replica: ReplicaState, hedge: bool = False) -> None:
        attempt = Attempt(
            self.fanout.clock, self.batch.trace, self.group, replica,
            self.shard_rpc.span, hedge,
        )
        attempt.__enter__()
        try:
            attempt.rpc = replica.transport.start_search(self.call)
        except BaseException as exc:
            attempt.__exit__(type(exc), exc, None)
            raise
        self.race.append(attempt)
        if attempt.done:
            attempt.close()

    def _failed(self, exc: TransportError) -> None:
        """The replica's race is lost: fail over, or give up."""
        self.race = []
        self.hedge_at = math.inf
        self.last = exc
        if isinstance(exc, OverloadedError):
            self.fanout.tally.count("overloaded")
        if should_fail_over(exc, self.deadline):
            self.resume_at = -math.inf
        else:
            self.shard_rpc.annotate(ok=False, replica=-1)
            self._finish(Outcome(None, exc, -1, None))

    def _finish(self, outcome: Outcome) -> None:
        self.outcome, self.done = outcome, True
        self.stage.__exit__(None, None, None)

    def abandon(self, exc: BaseException) -> None:
        """Tear the group down: an exception escaped the fan-out."""
        if self.done:
            return
        for attempt in self.race:
            if not attempt.done:
                attempt.rpc.cancel()
                attempt.__exit__(type(exc), exc, None)
        self.done = True
        self.stage.__exit__(type(exc), exc, None)
