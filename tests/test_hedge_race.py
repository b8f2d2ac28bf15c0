"""The hedge race on stub RPCs: no socket, no server, no ``Broker``.

The remote fan-out polls whatever a transport's ``start_search``
returns.  A stub RPC that finishes at a set instant with a reply or an
error runs the race -- who wins, whose error surfaces, that the loser is
cancelled -- through the real venue (``FanOut.run`` over one group),
timers and all; :func:`~repro.online.hedging.first_reply`, the rule
itself, is checked on bare stub attempts.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConnectionLostError, DeadlineExceededError
from repro.net.client import RemoteSearcherClient
from repro.net.protocol import ShardCall, ShardReply
from repro.obs.clock import StageClock
from repro.obs.metrics import MetricsRegistry, Tally
from repro.online.fanout import Batch, FanOut, work_list
from repro.online.hedging import (
    AUTO_HEDGE_MIN_SAMPLES,
    AUTO_HEDGE_MULTIPLIER,
    first_reply,
    hedge_target,
    resolve_hedge_delay,
)
from repro.online.replicas import ReplicaGroup


class StubRpc:
    """Finishes ``after`` seconds from its start: ``value`` is the
    answer's id, or the exception its ``result`` raises -- or, for a
    non-transport error, the exception its poll raises."""

    sock = None

    def __init__(self, value, after: float, log: list) -> None:
        self.value = value
        self.wake_at = time.monotonic() + after
        self.done = False
        self.log = log

    def step(self, now: float, ready: set) -> None:
        if not self.done and now >= self.wake_at:
            self.done = True
            if isinstance(self.value, KeyError):
                raise self.value
            self.log.append("finished")

    def cancel(self) -> None:
        self.done = True
        self.log.append("cancelled")

    def result(self):
        if isinstance(self.value, BaseException):
            raise self.value
        ids = np.array([[self.value]], dtype=np.int64)
        return ShardReply(ids, np.zeros((1, 1)), None, None)


class StubTransport(RemoteSearcherClient):
    """A replica whose n-th attempt answers ``script[n]`` = ``(value,
    after)``; ``log`` records how each attempt ended."""

    def __init__(self, *script) -> None:
        self.shard_id = 0
        self.script = list(script)
        self.log: list[str] = []

    def start_search(self, call):
        assert self.script, "an attempt this replica was not scripted for"
        value, after = self.script.pop(0)
        return StubRpc(value, after, self.log)

    def close(self) -> None:
        pass


def tally() -> Tally:
    registry = MetricsRegistry()
    names = ("hedges", "hedge_wins", "failovers", "overloaded")
    return Tally({name: registry.counter(name) for name in names})


def race(group: ReplicaGroup, *, delay, deadline=None, counts=None):
    """One single-row batch over ``group`` through the remote venue:
    ``(id of the answer, counts)``; pass ``counts`` to read them after
    a race that raised."""
    counts = tally() if counts is None else counts
    fanout = FanOut([group], StageClock(), counts, "fail")
    call = ShardCall("stub", np.zeros((1, 2), np.float32), 1, deadline=deadline)
    work, routed = work_list(call.queries, None, 1)
    result = fanout.run(Batch(call, delay, None), work, routed)
    return int(result.parts[0][0][0, 0]), counts.snapshot()


class TestFirstReply:
    """The rule over one replica's attempts, primary first."""

    ok = SimpleNamespace(done=True, error=None)
    running = SimpleNamespace(done=False, error=None)

    @staticmethod
    def failed(message: str = "lost") -> SimpleNamespace:
        return SimpleNamespace(done=True, error=ConnectionLostError(message))

    def test_same_poll_success_beats_failure(self):
        failed = self.failed()
        assert first_reply([failed, self.ok]) is self.ok
        assert first_reply([self.ok, failed]) is self.ok
        both = SimpleNamespace(done=True, error=None)
        assert first_reply([self.ok, both]) is self.ok, "the primary"

    def test_a_failure_does_not_settle_the_race(self):
        assert first_reply([self.failed(), self.running]) is None
        assert first_reply([self.running, self.failed()]) is None
        assert first_reply([self.running]) is None

    def test_both_fail_raises_the_primarys_error(self):
        primary, hedge = self.failed("primary"), self.failed("hedge")
        with pytest.raises(ConnectionLostError) as excinfo:
            first_reply([primary, hedge])
        assert excinfo.value is primary.error


class TestRaceOnTheVenue:
    def test_a_failure_does_not_settle_the_race(self):
        # The primary dies after the hedge fired; the hedge answers later.
        lone = StubTransport(
            (ConnectionLostError("primary died"), 0.03), (7, 0.1)
        )
        answer, counts = race(ReplicaGroup(0, [lone]), delay=0.01)
        assert answer == 7
        assert counts == {"hedges": 1, "hedge_wins": 1}
        assert lone.log == ["finished", "finished"]

    def test_both_fail_raises_the_primarys_error(self):
        primary = ConnectionLostError("primary")
        lone = StubTransport((primary, 0.05), (DeadlineExceededError("hedge"), 0.0))
        with pytest.raises(ConnectionLostError) as excinfo:
            race(ReplicaGroup(0, [lone]), delay=0.01)
        assert excinfo.value is primary

    def test_loser_is_cancelled(self):
        lone = StubTransport((1, 30.0), (2, 0.0))
        began = time.monotonic()
        answer, _ = race(ReplicaGroup(0, [lone]), delay=0.01)
        assert answer == 2 and time.monotonic() - began < 5.0
        # The hedge finished first; the primary was abandoned, not awaited.
        assert lone.log == ["finished", "cancelled"]

    def test_unexpected_exception_cancels_the_straggler(self):
        lone = StubTransport((1, 30.0), (KeyError("bug"), 0.0))
        with pytest.raises(KeyError):
            race(ReplicaGroup(0, [lone]), delay=0.01)
        assert lone.log == ["cancelled"]


class TestWhenToHedge:
    def test_no_delay_no_hedge(self):
        first, second = StubTransport((1, 0.0)), StubTransport()
        answer, counts = race(ReplicaGroup(0, [first, second]), delay=None)
        assert answer == 1 and counts == {}

    def test_fast_primary_is_not_hedged(self):
        first, second = StubTransport((1, 0.0)), StubTransport()
        answer, counts = race(ReplicaGroup(0, [first, second]), delay=5.0)
        assert answer == 1 and counts == {}

    def test_straggler_is_hedged_on_an_untried_sibling(self):
        first, second = StubTransport((1, 30.0)), StubTransport((2, 0.0))
        answer, counts = race(ReplicaGroup(0, [first, second]), delay=0.01)
        assert answer == 2
        assert counts == {"hedges": 1, "hedge_wins": 1}
        assert first.log == ["cancelled"]

    def test_a_straggler_is_hedged_on_the_least_loaded_sibling(self):
        first, busy = StubTransport((1, 30.0)), StubTransport()
        idle = StubTransport((3, 0.0))
        group = ReplicaGroup(0, [first, busy, idle])
        group.begin(group.replicas[1])
        answer, counts = race(group, delay=0.01)
        assert answer == 3
        assert counts == {"hedges": 1, "hedge_wins": 1}
        assert first.log == ["cancelled"] and busy.log == []

    def test_lone_replica_hedges_on_a_second_connection(self):
        lone = StubTransport((1, 30.0), (2, 0.0))
        answer, counts = race(ReplicaGroup(0, [lone]), delay=0.01)
        assert answer == 2
        assert counts == {"hedges": 1, "hedge_wins": 1}

    def test_a_hedged_sibling_is_spent_for_failover(self):
        """Both attempts of the race fail: no third attempt goes to the
        sibling the hedge already tried."""
        primary = ConnectionLostError("primary")
        first = StubTransport((primary, 0.05))
        second = StubTransport((ConnectionLostError("hedge"), 0.0))
        counts = tally()
        with pytest.raises(ConnectionLostError) as excinfo:
            race(ReplicaGroup(0, [first, second]), delay=0.01, counts=counts)
        assert excinfo.value is primary
        assert counts.snapshot() == {"hedges": 1}, "no failover"
        assert first.log == second.log == ["finished"]

    def test_no_hedge_without_budget_for_the_delay(self):
        first, second = StubTransport((1, 0.03)), StubTransport()
        answer, counts = race(
            ReplicaGroup(0, [first, second]),
            delay=0.01,
            deadline=time.monotonic() + 0.005,
        )
        assert answer == 1 and counts == {}


class TestHedgeTarget:
    @staticmethod
    def make_group(size: int) -> ReplicaGroup:
        return ReplicaGroup(0, [StubTransport() for _ in range(size)])

    def test_an_untried_sibling_is_taken_and_spent(self):
        group = self.make_group(2)
        tried = [0]
        assert hedge_target(group, group.replicas[0], tried) is group.replicas[1]
        assert tried == [0, 1]

    def test_with_every_sibling_tried_the_replica_takes_it(self):
        group = self.make_group(2)
        tried = [1, 0]
        assert hedge_target(group, group.replicas[0], tried) is group.replicas[0]
        assert tried == [1, 0]

    def test_the_least_loaded_untried_sibling_takes_it(self):
        group = self.make_group(3)
        group.begin(group.replicas[1])
        tried = [0]
        assert hedge_target(group, group.replicas[0], tried) is group.replicas[2]
        assert tried == [0, 2]


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
