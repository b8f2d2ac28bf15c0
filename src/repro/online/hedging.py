"""Hedged shard RPCs: when to fire a second request, and who wins the race.

Lives on the fan-out event loop only (in-process numpy cannot be
raced).  The module never sees an RPC: it is handed ``issue(replica,
hedge=False)``, a coroutine function that performs one attempt, and
races the tasks it makes of it -- which is what lets
``tests/test_hedge_race.py`` drive the race with stub coroutines.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections.abc import Callable, Coroutine

from repro.errors import TransportError
from repro.obs.clock import StageClock
from repro.obs.metrics import Tally
from repro.online.failover import budget_left
from repro.online.replicas import ReplicaGroup, ReplicaState

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


def resolve_hedge_delay(
    knob: float | str | None, clock: StageClock
) -> float | None:
    """One batch's hedge delay: the static knob, or the live one.

    The delay is resolved once per batch: every shard of a fan-out
    hedges against the same delay, and an ``"auto"`` knob re-reads
    ``clock``'s ``shard_rpc`` window between batches
    (``median * AUTO_HEDGE_MULTIPLIER``; see the module constants for
    why the median and not a tail quantile).  Until the window holds
    ``AUTO_HEDGE_MIN_SAMPLES`` samples there is no hedging at all -- the
    first requests of a fresh broker are establishing connections and
    warming caches, which must not be mistaken for straggling.
    """
    if knob != "auto":
        return knob
    sample = clock.quantile("shard_rpc", AUTO_HEDGE_QUANTILE)
    if sample is None or sample[0] < AUTO_HEDGE_MIN_SAMPLES:
        return None
    return max(sample[1] * AUTO_HEDGE_MULTIPLIER, AUTO_HEDGE_MIN_DELAY_S)


async def hedged_search(
    issue: Callable[..., Coroutine],
    group: ReplicaGroup,
    replica: ReplicaState,
    tried: list[int],
    deadline: float | None,
    delay: float | None,
    tally: Tally,
):
    """One replica's answer, hedging a straggling RPC when allowed.

    The hedge fires only when (a) hedging is configured (``delay`` was
    resolved for this batch) and (b) budget remains before the request
    deadline.  The hedge lands on a *different* replica when the group
    has an untried, non-draining sibling -- that is what lets it dodge a
    slow process, not just a slow connection -- and on a second
    connection to the same process otherwise.  Returns whatever the
    winning ``issue`` task returned.
    """
    if not (delay is not None and budget_left(deadline) > delay):
        return await issue(replica)  # no hedge can fire: nothing to race
    primary = asyncio.create_task(issue(replica))
    done, _ = await asyncio.wait({primary}, timeout=delay)
    # Once out of budget the in-flight primary is about to raise
    # its own DeadlineExceededError; a hedge now would be a
    # second RPC that cannot answer in time either.
    if not done and budget_left(deadline) > 0:
        alternate = group.pick(exclude=tried)
        if alternate is not None and alternate.draining:
            alternate = None
        if alternate is None:
            alternate = replica  # second connection, same process
        else:
            tried.append(alternate.replica_id)
        tally.count("hedges")
        hedge = asyncio.create_task(issue(alternate, hedge=True))
        winner = await first_reply(primary, hedge)
        if winner is hedge:
            tally.count("hedge_wins")
        return await winner
    return await primary


async def first_reply(primary: asyncio.Task, hedge: asyncio.Task):
    """Race the primary against its hedge; first *success* wins.

    Returns the winning (finished) task.  One task failing does not
    settle the race while the other still runs -- a dead primary with a
    live hedge is exactly the save hedging exists for.  When both fail,
    the primary's error is raised.  The loser is cancelled AND awaited,
    so its connection is discarded (never pooled) before the batch
    returns.
    """
    pending = {primary, hedge}
    failures: dict = {}
    winner = None
    unexpected: BaseException | None = None
    while pending and winner is None and unexpected is None:
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
    for straggler in pending:
        straggler.cancel()
    for straggler in pending:
        with contextlib.suppress(asyncio.CancelledError, TransportError):
            await straggler
    if winner is not None:
        return winner
    if unexpected is not None:
        raise unexpected
    raise failures.get(primary, failures.get(hedge))
