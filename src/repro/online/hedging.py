"""Hedged shard RPCs: when to fire a second request, and who wins the race.

The remote fan-out (:mod:`repro.online.fanout`) asks this module three
things, all pure of IO (in-process numpy cannot be raced):
:func:`resolve_hedge_delay` once per batch, :func:`hedge_target` when an
attempt straggles past that delay, and :func:`first_reply` each time an
attempt of a race finishes -- which is what lets
``tests/test_hedge_race.py`` check the rule on stub attempts.
"""

from __future__ import annotations

from repro.obs.clock import StageClock
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


def hedge_target(
    group: ReplicaGroup, replica: ReplicaState, tried: list[int]
) -> ReplicaState:
    """Where the hedge of a straggling attempt on ``replica`` goes.

    To an untried sibling when the group has one -- that is what lets
    the hedge dodge a slow process, not just a slow connection; the
    sibling is then spent for failover too -- and to a second connection
    to ``replica`` otherwise.
    """
    alternate = group.pick(exclude=tried)
    if alternate is None:
        return replica
    tried.append(alternate.replica_id)
    return alternate


def first_reply(race: list):
    """The race rule over one replica's attempts: the primary, then its
    hedge (each with ``done`` and ``error``).

    Returns the winner -- the first attempt to succeed; the primary if
    both did by the same poll -- or ``None`` while undecided.  A failure
    does not settle the race while the other attempt runs: a dead
    primary with a live hedge is exactly the save hedging exists for.
    When every attempt failed, the primary's error is raised.
    """
    for attempt in race:
        if attempt.done and attempt.error is None:
            return attempt
    if all(attempt.done for attempt in race):
        raise race[0].error
    return None
