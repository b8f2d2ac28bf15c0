"""The hedge race on stub coroutines: no RPC, no server, no ``Broker``.

:mod:`repro.online.hedging` is handed ``issue(replica, hedge=False)`` and
races the tasks it makes of it, so the whole race -- who wins, whose
error surfaces, that the loser is cancelled *and* awaited -- is
checkable with coroutines that sleep, return and raise on cue.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.errors import ConnectionLostError, DeadlineExceededError
from repro.net.transport import AsyncSearcherTransport, SearcherTransport
from repro.obs.clock import StageClock
from repro.obs.metrics import MetricsRegistry, Tally
from repro.online.hedging import (
    AUTO_HEDGE_MIN_SAMPLES,
    AUTO_HEDGE_MULTIPLIER,
    first_reply,
    hedged_search,
    resolve_hedge_delay,
)
from repro.online.replicas import ReplicaGroup


class StubTransport(SearcherTransport, AsyncSearcherTransport):
    """An async-capable transport that is never actually called."""

    shard_id = 0
    queries_served = 0

    def search(self, call):
        raise AssertionError("the race never reaches a transport")

    async def search_batch_async(self, call):
        raise AssertionError("the race never reaches a transport")

    def stats(self) -> dict:
        return {}


class SyncOnlyTransport(SearcherTransport):
    shard_id = 0
    queries_served = 0
    search = StubTransport.search
    stats = StubTransport.stats


def tally() -> Tally:
    registry = MetricsRegistry()
    return Tally(
        {
            "hedges": registry.counter("hedges"),
            "hedge_wins": registry.counter("hedge_wins"),
        }
    )


async def reply(value, after: float = 0.0, log: list | None = None):
    """Return ``value`` (or raise it) after ``after`` seconds; ``log``
    records how the coroutine ended."""
    try:
        await asyncio.sleep(after)
    except asyncio.CancelledError:
        if log is not None:
            log.append("cancelled")
        raise
    if log is not None:
        log.append("finished")
    if isinstance(value, BaseException):
        raise value
    return value


def race(primary, hedge):
    async def main():
        return await first_reply(
            asyncio.create_task(primary), asyncio.create_task(hedge)
        )

    return asyncio.run(main())


class TestFirstReply:
    def test_same_tick_success_beats_failure(self):
        # Both complete in one loop iteration, in either role.
        lost = ConnectionLostError("primary died")
        assert race(reply(lost), reply("hedge")).result() == "hedge"
        assert race(reply("primary"), reply(lost)).result() == "primary"

    def test_a_failure_does_not_settle_the_race(self):
        lost = ConnectionLostError("primary died")
        winner = race(reply(lost), reply("hedge", after=0.05))
        assert winner.result() == "hedge"

    def test_both_fail_raises_the_primarys_error(self):
        primary = ConnectionLostError("primary")
        hedge = DeadlineExceededError("hedge")
        with pytest.raises(ConnectionLostError) as excinfo:
            race(reply(primary, after=0.02), reply(hedge))
        assert excinfo.value is primary

    def test_loser_is_cancelled_and_awaited(self):
        log: list[str] = []

        async def main():
            primary = asyncio.create_task(reply("slow", after=30.0, log=log))
            hedge = asyncio.create_task(reply("fast"))
            winner = await first_reply(primary, hedge)
            # Awaited, not merely cancel()-requested: by the time the
            # race returns the loser has already unwound.
            assert primary.done() and primary.cancelled()
            assert log == ["cancelled"]
            return winner is hedge

        assert asyncio.run(main())

    def test_unexpected_exception_cancels_the_straggler(self):
        log: list[str] = []

        async def main():
            straggler = asyncio.create_task(reply("late", after=30.0, log=log))
            broken = asyncio.create_task(reply(KeyError("bug")))
            with pytest.raises(KeyError):
                await first_reply(straggler, broken)
            assert straggler.cancelled() and log == ["cancelled"]

        asyncio.run(main())


def run_hedged(issue, group, *, delay, deadline=None):
    """Race from replica 0 (already in ``tried``, as the fan-out has it)."""
    tried, counts = [0], tally()

    async def main():
        return await hedged_search(
            issue, group, group.replicas[0], tried, deadline, delay, counts
        )

    return asyncio.run(main()), tried, counts.snapshot()


class TestHedgedSearch:
    def test_no_delay_no_hedge(self):
        group = ReplicaGroup(0, [StubTransport(), StubTransport()])
        issued = []

        async def issue(replica, hedge=False):
            issued.append((replica.replica_id, hedge))
            return "primary"

        result, tried, counts = run_hedged(issue, group, delay=None)
        assert result == "primary" and issued == [(0, False)]
        assert tried == [0] and counts == {}

    def test_fast_primary_is_not_hedged(self):
        group = ReplicaGroup(0, [StubTransport(), StubTransport()])

        async def issue(replica, hedge=False):
            return (replica.replica_id, hedge)

        result, _, counts = run_hedged(issue, group, delay=5.0)
        assert result == (0, False) and counts == {}

    def test_straggler_is_hedged_on_an_untried_sibling(self):
        group = ReplicaGroup(0, [StubTransport(), StubTransport()])
        log: list[str] = []

        async def issue(replica, hedge=False):
            if not hedge:
                return await reply("primary", after=30.0, log=log)
            return (replica.replica_id, hedge)

        result, tried, counts = run_hedged(issue, group, delay=0.01)
        assert result == (1, True)
        assert tried == [0, 1], "the sibling is spent for failover too"
        assert counts == {"hedges": 1, "hedge_wins": 1}
        assert log == ["cancelled"]

    def test_lone_replica_hedges_on_a_second_connection(self):
        group = ReplicaGroup(0, [StubTransport()])

        async def issue(replica, hedge=False):
            await asyncio.sleep(30.0 if not hedge else 0.0)
            return (replica.replica_id, hedge)

        result, tried, counts = run_hedged(issue, group, delay=0.01)
        assert result == (0, True) and tried == [0]
        assert counts == {"hedges": 1, "hedge_wins": 1}

    def test_draining_or_sync_sibling_is_not_a_hedge_target(self):
        for sibling in (StubTransport(), SyncOnlyTransport()):
            group = ReplicaGroup(0, [StubTransport(), sibling])
            if isinstance(sibling, StubTransport):
                group.drain(1)

            async def issue(replica, hedge=False):
                await asyncio.sleep(0.05 if not hedge else 30.0)
                return (replica.replica_id, hedge)

            result, tried, counts = run_hedged(issue, group, delay=0.01)
            # Hedged on the same process; the primary still won.
            assert result == (0, False) and tried == [0]
            assert counts == {"hedges": 1}

    def test_no_hedge_without_budget_for_the_delay(self):
        group = ReplicaGroup(0, [StubTransport(), StubTransport()])

        async def issue(replica, hedge=False):
            await asyncio.sleep(0.03)
            return (replica.replica_id, hedge)

        result, _, counts = run_hedged(
            issue, group, delay=0.01, deadline=time.monotonic() + 0.005
        )
        assert result == (0, False) and counts == {}


class TestResolveHedgeDelay:
    def test_static_and_disabled_knobs_pass_through(self):
        clock = StageClock()
        clock.record("shard_rpc", 5.0)
        assert resolve_hedge_delay(0.07, clock) == 0.07
        assert resolve_hedge_delay(None, clock) is None

    def test_auto_waits_for_samples_then_tracks_the_median(self):
        clock = StageClock()
        for _ in range(AUTO_HEDGE_MIN_SAMPLES - 1):
            clock.record("shard_rpc", 0.01)
        assert resolve_hedge_delay("auto", clock) is None
        clock.record("shard_rpc", 0.01)
        assert resolve_hedge_delay("auto", clock) == pytest.approx(
            0.01 * AUTO_HEDGE_MULTIPLIER
        )
