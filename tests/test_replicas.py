"""Replica-group tests: load-aware pick, failover, hedging, restarts.

The ledger unit tests drive :class:`ReplicaGroup` directly; the serving
tests run real in-thread asyncio searcher servers so a connection refused
is a refused connection and a straggler is an actually-slow socket.
Pinned here:

- ``pick`` is load-aware (least in-flight, EWMA tie-break), deprioritizes
  failing replicas, and skips draining replicas while a sibling exists;
- an unreachable replica fails over to its sibling transparently (the
  ``failovers`` counter counts actual takeovers, not dead ends);
- hedged retries land on a *different* replica of the same group, so a
  slow replica is covered by its fast sibling;
- a rolling restart of a replica group drops zero queries under the
  strict ``fail`` policy while traffic keeps flowing.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import TransportError
from repro.net.client import RemoteSearcherClient
from repro.net.fleet import parse_fleet_spec
from repro.net.server import SearcherServer
from repro.obs.metrics import get_registry
from repro.online.broker import Broker
from repro.online.replicas import BREAKER_STATES, ReplicaGroup
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from tests.conftest import LANNS_2X2, LANNS_PATH

NUM_SHARDS = 2
#: An address nothing listens on (port 1 is reserved, never bound here).
DEAD_ADDRESS = "127.0.0.1:1"


@pytest.fixture(scope="module")
def queries(clustered_queries):
    return clustered_queries[:16]


def start_server(lanns_fs, shard_id: int, *, port: int = 0, **kwargs):
    return SearcherServer(
        SearcherNode(shard_id),
        port=port,
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

    def test_restored_replica_not_preferred_over_measured_sibling(self):
        group = self.make_group(2)
        for replica in group.replicas:
            group.begin(replica)
            group.finish(replica, 0.05)
        # A rolling restart clears replica 1's EWMA; the fresh replica
        # must not win every tie against its equally-loaded sibling.
        group.drain(1)
        group.restore(1)
        assert group.replicas[1].ewma_latency_s is None
        assert group.pick().replica_id == 0

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

    def test_pick_skips_draining_until_no_alternative(self):
        group = self.make_group(2)
        group.drain(0)
        for _ in range(3):
            assert group.pick().replica_id == 1
        # Every sibling excluded: the draining replica is still better
        # than answering nobody (degrade fallback).
        assert group.pick(exclude=[1]).replica_id == 0
        group.restore(0)
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
        ``stats()`` reports: closed, open, the half-open probe, closed."""
        group = ReplicaGroup(
            7, [SearcherNode(7), SearcherNode(7)],
            breaker_threshold=2, breaker_cooldown_s=0.2,
        )
        flaky = group.replicas[0]
        gauge = get_registry().gauge("lanns_replica_breaker_state")

        def gauge_matches(expected: str) -> None:
            assert self.state(group, 0) == expected
            assert gauge.value(shard=7, replica=0) == BREAKER_STATES.index(expected)

        self.fail(group, flaky)
        gauge_matches("closed")
        self.fail(group, flaky)
        gauge_matches("open")
        time.sleep(0.25)
        probe = group.pick(exclude=[1])
        assert probe is flaky and flaky.breaker_probing
        gauge_matches("half-open")
        group.begin(probe)
        group.finish(probe, 0.01)
        gauge_matches("closed")

    def test_every_breaker_open_still_serves(self):
        group = self.make_group(size=1, threshold=1, cooldown=60.0)
        self.fail(group, group.replicas[0])
        assert self.state(group, 0) == "open"
        # Zero-drop fallback: a suspect replica beats answering nobody.
        assert group.pick().replica_id == 0

    def test_restore_clears_breaker_state(self):
        group = self.make_group(threshold=1, cooldown=60.0)
        self.fail(group, group.replicas[0])
        group.drain(0)
        group.restore(0)
        assert self.state(group, 0) == "closed"
        assert group.replicas[0].consecutive_failures == 0
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


class TestRollingRestart:
    @pytest.fixture()
    def grid(self, lanns_fs):
        """Two replica groups of two in-thread servers each."""
        servers = [
            [start_server(lanns_fs, shard) for _ in range(2)]
            for shard in range(NUM_SHARDS)
        ]
        yield servers
        for group in servers:
            for server in group:
                server.stop()

    @pytest.fixture()
    def service(self, grid, lanns_fs):
        service = OnlineService(
            searchers=[
                [server.address for server in group] for group in grid
            ],
            partial_policy="fail",
            request_timeout_s=30.0,
        )
        service.deploy(lanns_fs, LANNS_PATH)
        yield service
        service.close()

    def test_rolling_restart_drops_zero_queries(
        self, grid, service, lanns_fs, queries
    ):
        stop = threading.Event()
        errors: list[BaseException] = []
        degraded = [0]
        served = [0]

        def client():
            while not stop.is_set():
                try:
                    response = service.execute(
                        SearchRequest(
                            queries=queries, top_k=5, index_name="default"
                        )
                    )
                except BaseException as exc:
                    errors.append(exc)
                    return
                degraded[0] += response.degraded_rows
                served[0] += 1

        restarted: list[tuple[int, int]] = []

        def restart(shard_id: int, replica_id: int) -> None:
            old = grid[shard_id][replica_id]
            old.stop()
            grid[shard_id][replica_id] = start_server(
                lanns_fs, shard_id, port=old.port
            )
            restarted.append((shard_id, replica_id))

        thread = threading.Thread(target=client)
        thread.start()
        try:
            service.rolling_restart(0, restart)
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not errors, f"queries failed during restart: {errors[:1]!r}"
        assert degraded[0] == 0
        assert served[0] > 0
        assert restarted == [(0, 0), (0, 1)]
        # The restarted replicas host the index again: drain them
        # from the OTHER side and the group still answers.
        broker = service.brokers["default"]
        broker.groups[0].drain(1)
        try:
            response = service.execute(
                SearchRequest(queries=queries, top_k=5, index_name="default")
            )
            assert response.fully_answered
        finally:
            broker.groups[0].restore(1)

    def test_rolling_restart_requires_remote_fleet(self, lanns_fs):
        service = OnlineService()
        service.deploy(lanns_fs, LANNS_PATH)
        with pytest.raises(ValueError, match="replica group of >= 2"):
            service.rolling_restart(0, lambda shard, replica: None)

    def test_rolling_restart_requires_a_sibling(self, grid):
        service = OnlineService(
            searchers=[group[0].address for group in grid],
        )
        try:
            with pytest.raises(ValueError, match="replica group of >= 2"):
                service.rolling_restart(0, lambda shard, replica: None)
        finally:
            service.close()

    def test_rolling_restart_shard_out_of_range(self, grid, service):
        with pytest.raises(ValueError, match="out of range"):
            service.rolling_restart(7, lambda shard, replica: None)
