"""Replica-group tests: load-aware pick, breakers, failover, hedging.

The ledger unit tests drive :class:`ReplicaGroup` directly; the serving
tests run real in-thread asyncio searcher servers so a connection refused
is a refused connection and a straggler is an actually-slow socket.
Pinned here:

- ``pick`` is load-aware (least in-flight, EWMA tie-break), deprioritizes
  failing replicas, and skips tripped breakers while a sibling exists;
- an unreachable replica fails over to its sibling transparently (the
  ``failovers`` counter counts actual takeovers, not dead ends);
- hedged retries land on a *different* replica of the same group, so a
  slow replica is covered by its fast sibling.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from repro.errors import TransportError
from repro.net.client import RemoteSearcherClient
from repro.net.fleet import parse_fleet_spec
from repro.net.server import SearcherServer
from repro.obs.metrics import get_registry
from repro.online.broker import Broker
from repro.online.replicas import BREAKER_STATES, ReplicaGroup
from repro.online.searcher import SearcherNode
from repro.online.types import SearchRequest
from tests.conftest import LANNS_2X2, LANNS_PATH

NUM_SHARDS = 2
#: An address nothing listens on (port 1 is reserved, never bound here).
DEAD_ADDRESS = "127.0.0.1:1"


@pytest.fixture(scope="module")
def queries(clustered_queries):
    return clustered_queries[:16]


def start_server(lanns_fs, shard_id: int, **kwargs):
    return SearcherServer(
        SearcherNode(shard_id),
        root=str(lanns_fs.root),
        **kwargs,
    ).start_in_thread()


def connect(address: str, shard_id: int) -> RemoteSearcherClient:
    return RemoteSearcherClient(
        address, shard_id, timeout_s=10.0, retries=0, pool_size=1
    )


class TestReplicaGroupLedger:
    def make_group(self, size: int = 3) -> ReplicaGroup:
        return ReplicaGroup(0, [SearcherNode(0) for _ in range(size)])

    def test_pick_prefers_least_in_flight(self):
        group = self.make_group()
        # Equalise the EWMA so in-flight is the only live signal.
        for replica in group.replicas:
            group.begin(replica)
            group.finish(replica, 0.01)
        busy = group.replicas[0]
        group.begin(busy)
        picked = group.pick()
        assert picked.replica_id != 0
        group.finish(busy, 0.01)
        # Slot released: replica 0 is eligible again (and wins the
        # id tie-break among idle replicas with equal EWMA).
        assert group.pick().replica_id == 0

    def test_pick_breaks_ties_by_ewma_latency(self):
        group = self.make_group(2)
        slow, fast = group.replicas
        for _ in range(4):
            group.begin(slow)
            group.finish(slow, 0.5)
            group.begin(fast)
            group.finish(fast, 0.001)
        assert group.pick().replica_id == fast.replica_id

    def test_cold_replica_not_preferred_on_ties(self):
        group = self.make_group(2)
        measured = group.replicas[0]
        group.begin(measured)
        group.finish(measured, 0.05)
        # The cold sibling (no EWMA sample yet) ranks at the pool
        # median, so the measured replica keeps winning the id
        # tie-break instead of the cold one jumping the queue with an
        # implicit 0.0 latency.
        assert group.pick().replica_id == 0

    def test_cold_replica_still_wins_on_load(self):
        group = self.make_group(2)
        measured = group.replicas[0]
        group.begin(measured)
        group.finish(measured, 0.05)
        group.begin(measured)  # one request in flight on the measured one
        assert group.pick().replica_id == 1

    def test_unmeasured_replica_ties_at_the_pool_median(self):
        group = self.make_group(3)
        for replica in group.replicas[:2]:
            group.begin(replica)
            group.finish(replica, 0.05)
        group.begin(group.replicas[0])  # replicas 1 and 2 are idle
        # Replica 2 was never measured: it ranks at the pool's median
        # EWMA, ties its equally-loaded sibling and loses the id
        # tie-break, where an implicit 0.0 would win every such tie.
        assert group.replicas[2].ewma_latency_s is None
        assert group.pick().replica_id == 1

    def test_pick_deprioritizes_failing_replicas(self):
        group = self.make_group(2)
        flaky = group.replicas[0]
        group.begin(flaky)
        group.finish(flaky, outcome="error")
        assert group.pick().replica_id == 1
        assert flaky.failures == 1
        assert flaky.consecutive_failures == 1
        # One success clears the consecutive streak (not the lifetime
        # counter) and replica 0 wins the id tie-break again.
        group.begin(flaky)
        group.finish(flaky)
        assert flaky.consecutive_failures == 0
        assert flaky.failures == 1
        assert group.pick().replica_id == 0

    def test_pick_returns_none_when_all_excluded(self):
        group = self.make_group(2)
        assert group.pick(exclude=[0, 1]) is None

    def test_cancelled_finish_only_releases_the_slot(self):
        group = self.make_group(1)
        replica = group.replicas[0]
        group.begin(replica)
        group.finish(replica, 0.25, outcome="cancelled")
        assert replica.in_flight == 0
        assert replica.failures == 0
        assert replica.ewma_latency_s is None

    def test_stats_reports_each_replicas_ledger(self):
        group = self.make_group(2)
        first = group.pick()
        group.begin(first)
        group.finish(first, 0.02)
        # The cold sibling ties at the pool median and loses the id
        # tie-break: replica 0 is picked again and stays in flight.
        group.begin(group.pick())
        group.begin(group.replicas[1])
        group.finish(group.replicas[1], outcome="error")
        ledger = {
            "in_flight": 0, "ewma_latency_s": None, "picks": 0,
            "failures": 0, "consecutive_failures": 0,
            "breaker_state": "closed",
        }
        assert group.stats() == {
            "shard_id": 0,
            "counts": {},
            "replicas": [
                {
                    **ledger, "replica_id": 0, "in_flight": 1,
                    "ewma_latency_s": 0.02, "picks": 2,
                },
                {
                    **ledger, "replica_id": 1, "failures": 1,
                    "consecutive_failures": 1,
                },
            ],
        }

    def test_the_load_gauges_follow_begin_and_finish(self):
        group = ReplicaGroup(6, [SearcherNode(6)])
        replica = group.replicas[0]
        in_flight = get_registry().gauge("lanns_replica_in_flight")
        ewma_ms = get_registry().gauge("lanns_replica_ewma_ms")
        group.begin(replica)
        group.begin(replica)
        assert in_flight.value(broker="broker", shard=6, replica=0) == 2
        group.finish(replica, 0.004)
        assert in_flight.value(broker="broker", shard=6, replica=0) == 1
        assert ewma_ms.value(broker="broker", shard=6, replica=0) == pytest.approx(4.0)
        # A cancelled hedge loser releases its slot and measures nothing.
        group.finish(replica, 0.5, outcome="cancelled")
        assert in_flight.value(broker="broker", shard=6, replica=0) == 0
        assert ewma_ms.value(broker="broker", shard=6, replica=0) == pytest.approx(4.0)

    def test_group_rejects_transport_of_another_shard(self):
        with pytest.raises(ValueError, match="serves shard"):
            ReplicaGroup(0, [SearcherNode(1)])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty replica group"):
            ReplicaGroup(0, [])


class TestCircuitBreaker:
    def make_group(
        self, size: int = 2, threshold: int = 2, cooldown: float = 0.05
    ) -> ReplicaGroup:
        return ReplicaGroup(
            0,
            [SearcherNode(0) for _ in range(size)],
            breaker_threshold=threshold,
            breaker_cooldown_s=cooldown,
        )

    @staticmethod
    def fail(group: ReplicaGroup, replica) -> None:
        group.begin(replica)
        group.finish(replica, outcome="error")

    @staticmethod
    def state(group: ReplicaGroup, replica_id: int) -> str:
        return group.stats()["replicas"][replica_id]["breaker_state"]

    @staticmethod
    def trips(group: ReplicaGroup) -> dict:
        return group.stats()["counts"].get("breaker_trips", {})

    def test_trips_after_threshold_and_skips_open_replica(self):
        group = self.make_group(threshold=2, cooldown=60.0)
        flaky = group.replicas[0]
        self.fail(group, flaky)
        assert self.state(group, 0) == "closed"
        self.fail(group, flaky)
        assert self.state(group, 0) == "open"
        assert self.trips(group) == {"0": 1}
        for _ in range(3):
            assert group.pick().replica_id == 1

    def test_straggler_error_while_open_extends_without_new_trip(self):
        group = self.make_group(threshold=2, cooldown=60.0)
        flaky = group.replicas[0]
        self.fail(group, flaky)
        self.fail(group, flaky)
        # A request issued before the trip fails late: still one trip.
        self.fail(group, flaky)
        assert self.trips(group) == {"0": 1}
        assert self.state(group, 0) == "open"

    def test_half_open_probe_then_success_closes(self):
        group = self.make_group(threshold=1, cooldown=0.03)
        flaky = group.replicas[0]
        self.fail(group, flaky)
        assert self.state(group, 0) == "open"
        time.sleep(0.05)
        assert self.state(group, 0) == "half-open"
        probe = group.pick(exclude=[1])
        assert probe.replica_id == 0
        assert probe.breaker_probing
        group.begin(probe)
        group.finish(probe, 0.01)
        assert self.state(group, 0) == "closed"
        assert flaky.consecutive_failures == 0
        assert group.pick().replica_id == 0

    def test_an_outstanding_probe_keeps_traffic_on_the_sibling(self):
        group = self.make_group(threshold=2, cooldown=0.03)
        flaky, sibling = group.replicas
        self.fail(group, flaky)
        self.fail(group, flaky)
        self.fail(group, sibling)  # failing too, under the threshold
        group.begin(sibling)
        group.begin(sibling)
        time.sleep(0.05)
        probe = group.pick()
        assert probe is flaky and flaky.breaker_probing
        group.begin(probe)
        # One request decides recovery: until it lands, the sibling
        # takes the traffic although it carries more load.
        for _ in range(3):
            assert group.pick() is sibling
        group.finish(probe, 0.01)
        assert group.pick() is flaky

    def test_failed_probe_reopens_with_new_trip(self):
        group = self.make_group(threshold=1, cooldown=0.03)
        flaky = group.replicas[0]
        self.fail(group, flaky)
        time.sleep(0.05)
        probe = group.pick(exclude=[1])
        assert probe.replica_id == 0
        self.fail(group, probe)
        assert self.state(group, 0) == "open"
        assert self.trips(group) == {"0": 2}

    def test_cancelled_probe_frees_the_probe_slot(self):
        group = self.make_group(threshold=1, cooldown=0.03)
        flaky = group.replicas[0]
        self.fail(group, flaky)
        time.sleep(0.05)
        probe = group.pick(exclude=[1])
        group.begin(probe)
        group.finish(probe, outcome="cancelled")
        assert not flaky.breaker_probing
        # The breaker is still half-open and a new probe may go out.
        assert group.pick(exclude=[1]).replica_id == 0

    def test_the_state_gauge_follows_every_transition(self):
        """``lanns_replica_breaker_state`` reads the index of the state
        ``stats()`` reports: closed, open, the half-open probe, closed,
        open again, and half-open once the cooldown ran out, though
        nobody picks that replica."""
        group = ReplicaGroup(
            7, [SearcherNode(7), SearcherNode(7)],
            breaker_threshold=2, breaker_cooldown_s=0.05,
        )
        flaky = group.replicas[0]
        gauge = get_registry().gauge("lanns_replica_breaker_state")

        def gauge_matches(expected: str) -> None:
            assert self.state(group, 0) == expected
            assert gauge.value(broker="broker", shard=7, replica=0) == BREAKER_STATES.index(expected)

        self.fail(group, flaky)
        gauge_matches("closed")
        self.fail(group, flaky)
        gauge_matches("open")
        time.sleep(0.08)
        probe = group.pick(exclude=[1])
        assert probe is flaky and flaky.breaker_probing
        gauge_matches("half-open")
        group.begin(probe)
        group.finish(probe, 0.01)
        gauge_matches("closed")
        self.fail(group, flaky)
        self.fail(group, flaky)
        gauge_matches("open")
        time.sleep(0.08)
        # Read before any stats(): only the sibling's pick can publish it.
        assert group.pick(exclude=[0]).replica_id == 1
        assert gauge.value(broker="broker", shard=7, replica=0) == BREAKER_STATES.index("half-open")

    def test_pick_skips_an_open_breaker_until_no_alternative(self):
        group = self.make_group(threshold=1, cooldown=60.0)
        flaky = group.replicas[0]
        self.fail(group, flaky)
        for _ in range(3):
            assert group.pick().replica_id == 1
        # Every sibling excluded: the open replica is still better than
        # answering nobody, and that fallback is not its half-open probe.
        assert group.pick(exclude=[1]) is flaky
        assert not flaky.breaker_probing
        assert self.state(group, 0) == "open"
        # Its answer closes the breaker and it wins the id tie-break again.
        group.begin(flaky)
        group.finish(flaky)
        assert self.state(group, 0) == "closed"
        assert group.pick().replica_id == 0

    @staticmethod
    def record_gauge_sets(monkeypatch, group) -> list:
        """Every write to ``group``'s breaker series, with its labels."""
        published: list = []
        for replica in group.replicas:
            labels = dict(
                broker=group.broker, shard=group.shard_id, replica=replica.replica_id
            )
            breaker = SimpleNamespace(
                set=lambda value, labels=labels: published.append((value, labels))
            )
            monkeypatch.setattr(replica, "breaker_gauge", breaker)
        return published

    def test_a_group_that_never_trips_publishes_nothing_on_pick(
        self, monkeypatch
    ):
        """``pick`` runs on every shard RPC: while no breaker moves, it
        and ``stats()`` leave the gauge alone."""
        group = self.make_group(size=3, threshold=2)
        self.fail(group, group.replicas[2])  # one failure, under threshold
        published = self.record_gauge_sets(monkeypatch, group)
        for _ in range(5):
            group.begin(group.pick())
        assert self.state(group, 2) == "closed"
        group.stats()
        assert published == []

    def test_finish_writes_a_breaker_state_only_when_it_moved(
        self, monkeypatch
    ):
        """Kills: ``finish`` writing the breaker gauge on every answer (it
        did 2 of the 8 replica gauge writes of each remote miss)."""
        group = self.make_group(threshold=2, cooldown=60.0)
        replica = group.replicas[0]
        group.begin(replica)
        group.finish(replica, 0.01)  # the first answer shows the series
        published = self.record_gauge_sets(monkeypatch, group)
        for outcome in ("ok", "error", "ok", "error"):
            group.begin(replica)
            group.finish(replica, 0.01, outcome=outcome)
        assert published == []
        self.fail(group, replica)  # the second error in a row trips it
        assert published == [
            (
                BREAKER_STATES.index("open"),
                {"broker": "broker", "shard": 0, "replica": 0},
            )
        ]

    def test_stats_publishes_a_breaker_whose_cooldown_ran_out(
        self, monkeypatch
    ):
        group = ReplicaGroup(
            8, [SearcherNode(8), SearcherNode(8)],
            breaker_threshold=1, breaker_cooldown_s=0.03,
        )
        gauge = get_registry().gauge("lanns_replica_breaker_state")
        self.fail(group, group.replicas[0])
        assert gauge.value(broker="broker", shard=8, replica=0) == BREAKER_STATES.index("open")
        time.sleep(0.05)
        published = self.record_gauge_sets(monkeypatch, group)
        assert self.state(group, 0) == "half-open"
        assert published == [
            (
                BREAKER_STATES.index("half-open"),
                {"broker": "broker", "shard": 8, "replica": 0},
            )
        ]
        # Published once: the next look finds nothing that moved.
        group.stats()
        assert len(published) == 1

    def test_every_breaker_open_still_serves(self):
        group = self.make_group(size=1, threshold=1, cooldown=60.0)
        self.fail(group, group.replicas[0])
        assert self.state(group, 0) == "open"
        # Zero-drop fallback: a suspect replica beats answering nobody.
        assert group.pick().replica_id == 0

    def test_disabled_by_default(self):
        group = ReplicaGroup(0, [SearcherNode(0), SearcherNode(0)])
        flaky = group.replicas[0]
        for _ in range(10):
            self.fail(group, flaky)
        assert self.state(group, 0) == "closed"
        assert self.trips(group) == {}
        # Deprioritized, never blocked: the pre-breaker behaviour.
        assert group.pick(exclude=[1]).replica_id == 0

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="breaker_threshold"):
            self.make_group(threshold=-1)
        with pytest.raises(ValueError, match="breaker_cooldown_s"):
            self.make_group(cooldown=0.0)


def test_two_brokers_keep_their_replica_series_apart():
    """A service builds one broker, with its own groups, per deployed
    index: each group's gauges and trips carry its broker's name, so one
    index's shard 0 replica 0 does not overwrite the other's."""
    registry = get_registry()
    brokers = {
        name: Broker(
            [SearcherNode(0), SearcherNode(1)], LANNS_2X2, name=name,
            breaker_threshold=1,
        )
        for name in ("two-brokers-a", "two-brokers-b")
    }
    try:
        first = brokers["two-brokers-a"].groups[0]
        second = brokers["two-brokers-b"].groups[0]
        first.begin(first.replicas[0])
        first.begin(first.replicas[0])
        second.begin(second.replicas[0])
        second.finish(second.replicas[0], outcome="error")
        labels = {"shard": 0, "replica": 0}
        in_flight = registry.gauge("lanns_replica_in_flight")
        assert in_flight.value(broker="two-brokers-a", **labels) == 2
        assert in_flight.value(broker="two-brokers-b", **labels) == 0
        state = registry.gauge("lanns_replica_breaker_state")
        assert state.value(broker="two-brokers-a", **labels) == 0
        assert state.value(broker="two-brokers-b", **labels) == 1
        trips = registry.counter("lanns_replica_breaker_trips_total")
        assert trips.value(broker="two-brokers-a", **labels) == 0
        assert trips.value(broker="two-brokers-b", **labels) == 1
    finally:
        for broker in brokers.values():
            broker.close()


class TestFleetSpec:
    def test_legacy_flat_string(self):
        assert parse_fleet_spec("a:1, b:2") == [["a:1"], ["b:2"]]

    def test_grouped_string(self):
        spec = "a:1,a:2; b:1 ,b:2"
        assert parse_fleet_spec(spec) == [["a:1", "a:2"], ["b:1", "b:2"]]

    def test_list_of_groups(self):
        assert parse_fleet_spec([["a:1", "a:2"], "b:1"]) == [
            ["a:1", "a:2"],
            ["b:1"],
        ]

    def test_explicit_empty_group_raises(self):
        with pytest.raises(ValueError, match="empty replica group"):
            parse_fleet_spec([["a:1"], []])


class TestFailover:
    @pytest.fixture()
    def servers(self, lanns_fs):
        fleet = [start_server(lanns_fs, shard) for shard in range(NUM_SHARDS)]
        yield fleet
        for server in fleet:
            server.stop()

    @pytest.fixture()
    def broker(self, servers, lanns_fs):
        live = []
        for shard_id, server in enumerate(servers):
            transport = connect(server.address, shard_id)
            transport.verify()
            transport.deploy("r", LANNS_PATH, root=str(lanns_fs.root))
            live.append(transport)
        # Replica 0 of group 0 is unreachable; its sibling must cover.
        broker = Broker(
            [[connect(DEAD_ADDRESS, 0), live[0]], [live[1]]],
            LANNS_2X2,
            partial_policy="fail",
        )
        yield broker
        broker.close()
        for transport in live:
            transport.close()

    def test_dead_replica_fails_over_to_sibling(self, broker, queries):
        ids = broker.execute(SearchRequest(queries, 5, "r")).ids
        assert (ids >= 0).all()
        stats = broker.stats()
        assert stats["counts"].get("failovers", 0) >= 1
        dead = stats["replicas"][0]["replicas"][0]
        assert dead["failures"] >= 1
        # Later requests keep succeeding and the sibling absorbs the
        # load without re-burning a failover every time the ledger
        # already knows replica 0 is failing.
        ids2 = broker.execute(SearchRequest(queries, 5, "r")).ids
        assert (ids2 >= 0).all()

    def test_exhausted_group_still_raises_under_fail(
        self, servers, lanns_fs, queries
    ):
        live = connect(servers[1].address, 1)
        live.verify()
        live.deploy("r", LANNS_PATH, root=str(lanns_fs.root))
        broker = Broker(
            [[connect(DEAD_ADDRESS, 0)], [live]],
            LANNS_2X2,
            partial_policy="fail",
        )
        try:
            with pytest.raises(TransportError):
                broker.execute(SearchRequest(queries, 5, "r"))
            # No sibling existed, so nothing "took over": dead ends are
            # not failovers.
            assert broker.stats()["counts"].get("failovers", 0) == 0
        finally:
            broker.close()
            live.close()


class TestCrossReplicaHedging:
    def test_hedge_lands_on_sibling_and_wins(
        self, lanns_fs, queries
    ):
        # Replica 0 of group 0 stalls EVERY search by 0.4s; its sibling
        # is fast.  With a 30ms hedge delay the retry must land on the
        # sibling and win, keeping latency far under the stall.
        slow = start_server(lanns_fs, 0, chaos="delay_every=1,delay_s=0.4")
        fast = start_server(lanns_fs, 0)
        other = start_server(lanns_fs, 1)
        transports = []
        broker = None
        try:
            for server, shard_id in ((slow, 0), (fast, 0), (other, 1)):
                transport = connect(server.address, shard_id)
                transport.verify()
                transport.deploy("r", LANNS_PATH, root=str(lanns_fs.root))
                transports.append(transport)
            broker = Broker(
                [[transports[0], transports[1]], [transports[2]]],
                LANNS_2X2,
                partial_policy="fail",
                hedge_after_s=0.03,
            )
            response = broker.execute(
                SearchRequest(queries=queries, top_k=5, index_name="r")
            )
            assert response.fully_answered
            stats = broker.stats()
            assert stats["counts"].get("hedges", 0) >= 1
            assert stats["counts"].get("hedge_wins", 0) >= 1
            # The winning replica of group 0 was the fast sibling: only a
            # reply records a latency, the cancelled loser records none.
            slow_stats, fast_stats = stats["replicas"][0]["replicas"]
            assert slow_stats["ewma_latency_s"] is None
            assert fast_stats["ewma_latency_s"] is not None
        finally:
            if broker is not None:
                broker.close()
            for transport in transports:
                transport.close()
            for server in (slow, fast, other):
                server.stop()
