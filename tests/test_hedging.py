"""The remote fan-out + hedged shard requests: counts, budget, no leaks.

The straggler model: one searcher (shard 1) stalls every other SEARCH
request (a ``FaultPlan`` with ``delay_every=2``) -- a per-request pause
(GC, queueing), not a uniformly slow machine -- so a hedge re-issued on
a second connection lands on a fast slot.  With strictly sequential requests the injection
is deterministic: every *primary* RPC to the slow shard hits a slow
slot and every hedge hits a fast one, which lets the tests pin exact
hedge counts.

Invariants under test:

- hedging changes *when* an answer arrives, never *what* (the
  ``faults`` cells of ``tests/test_path_matrix.py``);
- a hedge never fires once the request deadline has passed, and a
  hedge that fires in time but cannot answer in time does not rescue
  the shard (degrade semantics unchanged);
- cancelled losers discard their connections -- pool occupancy stays
  bounded and close() drains to zero open sockets;
- the ``hedges`` / ``hedge_wins`` of ``stats()["counts"]`` count correctly;
- a remote fan-out holds every in-flight shard RPC on the calling
  thread: it starts no thread and no event loop (so no task).
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.core.merge import merge_shard_results_batch
from repro.net.chaos import FaultPlan
from repro.net.client import RemoteSearcherClient
from repro.net.protocol import ShardCall
from repro.net.server import SearcherServer
from repro.online.broker import Broker
from repro.online.hedging import resolve_hedge_delay
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from tests.conftest import LANNS_2X2, LANNS_PATH, host_all
from tests.test_remote_serving import full_backlog

NUM_SHARDS = LANNS_2X2.num_shards
SLOW_SHARD = 1
SLOW_DELAY_S = 0.4


def hedge_delay(broker):
    """The delay the broker's next batch would hedge against."""
    return resolve_hedge_delay(broker.policy.hedge_after_s, broker.timings)


def stall_every_request(server, delay_s: float) -> None:
    """Swap a live server's fault plan: it draws from it per request."""
    server.chaos = FaultPlan(delay_every=1, delay_s=delay_s)


@pytest.fixture(scope="module")
def queries(clustered_queries):
    return clustered_queries[:12]


@pytest.fixture(scope="module")
def baseline(lanns):
    """In-process broker: the bit-parity reference."""
    broker = Broker(host_all(lanns, "hedge"), LANNS_2X2)
    yield broker
    broker.close()


@pytest.fixture
def fleet(lanns):
    """Fresh in-thread servers per test: shard 1 is the straggler.

    Function-scoped on purpose -- the plan counts SEARCH frames, so
    sharing servers across tests would make slow/fast slots depend on
    test order.
    """
    servers = []
    for shard_id in range(NUM_SHARDS):
        slow = shard_id == SLOW_SHARD
        server = SearcherServer(
            SearcherNode(shard_id),
            chaos=FaultPlan(delay_every=2, delay_s=SLOW_DELAY_S) if slow else None,
        ).start_in_thread()
        server.node.host("hedge", lanns.shards[shard_id])
        servers.append(server)
    yield servers
    for server in servers:
        server.stop()


def make_transports(servers, **kwargs):
    return [
        RemoteSearcherClient(server.address, shard_id, **kwargs)
        for shard_id, server in enumerate(servers)
    ]


def threads_added(before: set) -> set[str]:
    """Threads started since ``before``, the servers' connection threads
    aside."""
    return {
        thread.name
        for thread in threading.enumerate()
        if thread not in before and not thread.name.startswith("searcher-")
    }


def close_all(broker, transports):
    broker.close()
    for transport in transports:
        transport.close()


class TestHedgeCounts:
    """That hedged answers equal unhedged ones is the ``faults`` cells of
    ``tests/test_path_matrix.py``; here, when hedges fire and who wins."""

    def test_hedges_are_counted(self, fleet, queries):
        """Sequential batches through the straggler fleet: every primary
        to the slow shard stalls and every hedge wins."""
        transports = make_transports(fleet)
        broker = Broker(
            transports,
            LANNS_2X2,
            hedge_after_s=0.05,
            request_timeout_s=30.0,
        )
        try:
            broker.execute(SearchRequest(queries, 10, "hedge"))
            assert broker.stats()["counts"].get("hedges", 0) == 1
            assert broker.stats()["counts"].get("hedge_wins", 0) == 1
            # Second batch: the hedge cycle repeats deterministically.
            broker.execute(SearchRequest(queries, 10, "hedge"))
            assert broker.stats()["counts"].get("hedges", 0) == 2
            # Single-query path through the same hedged fan-out.
            broker.execute(SearchRequest(queries[0], 10, "hedge"))
            assert broker.stats()["counts"].get("hedges", 0) == 3
        finally:
            close_all(broker, transports)

    def test_unhedged_fanout_waits_for_straggler(self, fleet, queries):
        transports = make_transports(fleet)
        broker = Broker(transports, LANNS_2X2)
        try:
            begin = time.perf_counter()
            broker.execute(SearchRequest(queries, 10, "hedge"))
            elapsed = time.perf_counter() - begin
            assert broker.stats()["counts"].get("hedges", 0) == 0
            assert elapsed >= SLOW_DELAY_S * 0.8, (
                "first request to the straggler shard must have stalled"
            )
        finally:
            close_all(broker, transports)

    def test_hedged_concurrent_clients(self, fleet, queries):
        """Concurrent single-row clients through a hedged micro-batching
        broker: no errors, hedges observed."""
        transports = make_transports(fleet, pool_size=4)
        broker = Broker(
            transports,
            LANNS_2X2,
            hedge_after_s=0.05,
            request_timeout_s=30.0,
            max_batch=4,
            max_wait_ms=5.0,
        )
        errors: list[BaseException] = []

        def client(worker: int) -> None:
            try:
                for row in range(worker, queries.shape[0], 4):
                    broker.execute(SearchRequest(queries[row], 8, "hedge"))
            except BaseException as exc:
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=client, args=(worker,), daemon=True)
                for worker in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, f"concurrent hedged client failed: {errors[0]}"
            # The slow server's first SEARCH frame stalls whoever owns
            # it, so at least one hedge must have fired.
            assert broker.stats()["counts"].get("hedges", 0) >= 1
        finally:
            close_all(broker, transports)


class RecordingTransport(RemoteSearcherClient):
    """Remembers every call the fan-out hands it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls: list[ShardCall] = []

    def start_search(self, call: ShardCall):
        self.calls.append(call)
        return super().start_search(call)


def flatten(spans):
    for span in spans:
        yield span
        yield from flatten(span["children"])


class TestOneCallPerWorkItem:
    """The fan-out builds a work item's :class:`ShardCall` once; a hedge
    and a failover re-issue that object, they never rebuild it."""

    def test_both_attempts_of_a_hedge_race_get_the_same_call(
        self, fleet, queries, baseline
    ):
        transports = [
            RecordingTransport(server.address, shard_id)
            for shard_id, server in enumerate(fleet)
        ]
        broker = Broker(
            transports,
            LANNS_2X2,
            hedge_after_s=0.05,
            request_timeout_s=30.0,
            trace_sample_rate=1.0,
            trace_seed=0,
        )
        request = SearchRequest(queries=queries, top_k=10, index_name="hedge")
        try:
            response = broker.execute(request)
            assert broker.stats()["counts"].get("hedges", 0) == 1
        finally:
            close_all(broker, transports)
        primary, hedge = transports[SLOW_SHARD].calls
        assert primary is hedge
        # Unrouted: the batch's one call is every shard's call.
        assert {id(c) for t in transports for c in t.calls} == {id(primary)}
        assert primary.cost and primary.trace is not None
        with pytest.raises(FrozenInstanceError):
            primary.deadline = None
        # Three attempts ran, two won: only the winners' counters are
        # in the response, so it equals the unhedged in-process answer.
        want = baseline.execute(request)
        np.testing.assert_array_equal(response.ids, want.ids)
        assert response.cost == want.cost
        # The searcher's span tree hangs under the attempt that
        # produced it -- the hedge -- and the cancelled primary has none.
        slow_rpc = next(
            span
            for span in flatten(response.trace["spans"])
            if span["name"] == "shard_rpc"
            and span["annotations"]["shard"] == SLOW_SHARD
        )
        lost, won = sorted(
            slow_rpc["children"], key=lambda a: a["annotations"]["win"]
        )
        assert lost["annotations"]["outcome"] == "cancelled"
        assert not lost["annotations"]["hedge"] and lost["children"] == []
        assert won["annotations"]["hedge"]
        assert "decode" in [s["name"] for s in flatten(won["children"])]

    def test_both_replicas_of_a_failover_get_the_same_call(
        self, fleet, queries, baseline
    ):
        dead = RecordingTransport("127.0.0.1:1", 0, retries=0)
        transports = [
            RecordingTransport(server.address, shard_id)
            for shard_id, server in enumerate(fleet)
        ]
        broker = Broker([[dead, transports[0]], *transports[1:]], LANNS_2X2)
        request = SearchRequest(queries=queries[:4], top_k=10, index_name="hedge")
        try:
            response = broker.execute(request)
            assert broker.stats()["counts"].get("failovers", 0) == 1
        finally:
            close_all(broker, [dead, *transports])
        (refused,), (served,) = dead.calls, transports[0].calls
        assert refused is served
        want = baseline.execute(request)
        np.testing.assert_array_equal(response.ids, want.ids)
        np.testing.assert_array_equal(response.dists, want.dists)
        assert response.cost == want.cost


class TestHedgeDeadlineBudget:
    def test_hedge_never_fires_after_request_deadline(
        self, fleet, queries, lanns
    ):
        """Deadline below the hedge delay: the straggler shard times out
        and degrades, and no hedge is ever issued.  The deadline leaves
        the fast shard's first dial and search a second under load."""
        # Every request to the slow shard stalls well past the deadline.
        stall_every_request(fleet[SLOW_SHARD], 2.0)
        probe = queries[:4]
        transports = make_transports(fleet, retries=0)
        broker = Broker(
            transports,
            LANNS_2X2,
            hedge_after_s=1.5,
            request_timeout_s=1.0,
            partial_policy="degrade",
        )
        try:
            response = broker.execute(
                SearchRequest(queries=probe, top_k=10, index_name="hedge")
            )
            ids, dists = response.ids, response.dists
            assert (response.shards_answered == NUM_SHARDS - 1).all()
            assert broker.stats()["counts"].get("hedges", 0) == 0, (
                "a hedge fired although the deadline precedes the delay"
            )
            budget = broker.per_shard_budget(10)
            parts = [
                lanns.shards[shard].search_batch(probe, budget)
                for shard in range(NUM_SHARDS)
                if shard != SLOW_SHARD
            ]
            want_ids, want_dists = merge_shard_results_batch(parts, 10)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(dists, want_dists)
        finally:
            close_all(broker, transports)

    def test_in_time_hedge_cannot_rescue_past_deadline(
        self, fleet, queries, lanns
    ):
        """A hedge issued in time against a shard whose every request
        stalls: both RPCs miss the deadline, the shard degrades, and the
        hedge is still counted (it fired before the deadline)."""
        stall_every_request(fleet[SLOW_SHARD], 2.0)
        probe = queries[:4]
        transports = make_transports(fleet, retries=0)
        broker = Broker(
            transports,
            LANNS_2X2,
            hedge_after_s=0.1,
            request_timeout_s=0.4,
            partial_policy="degrade",
        )
        try:
            response = broker.execute(
                SearchRequest(queries=probe, top_k=10, index_name="hedge")
            )
            assert (response.shards_answered == NUM_SHARDS - 1).all()
            counts = broker.stats()["counts"]
            assert counts["hedges"] == 1
            assert counts.get("hedge_wins", 0) == 0
        finally:
            close_all(broker, transports)

    def test_a_hedge_answers_while_the_primary_dial_hangs(
        self, fleet, queries, baseline
    ):
        """Shard 0's first replica drops SYNs, so its dial neither
        completes nor fails; the dial holds up no timer, and the hedge
        on the sibling answers long before the deadline."""
        request = SearchRequest(queries=queries[:4], top_k=10, index_name="hedge")
        with full_backlog() as unreachable:
            stuck = RemoteSearcherClient(unreachable, 0, retries=0)
            transports = make_transports(fleet)
            broker = Broker(
                [[stuck, transports[0]], *transports[1:]],
                LANNS_2X2,
                hedge_after_s=0.05,
                request_timeout_s=3.0,
            )
            try:
                began = time.monotonic()
                response = broker.execute(request)
                assert time.monotonic() - began < 1.0
                counts = broker.stats()["counts"]
                assert counts.get("hedge_wins", 0) >= 1
            finally:
                close_all(broker, [stuck, *transports])
        want = baseline.execute(request)
        np.testing.assert_array_equal(response.ids, want.ids)
        np.testing.assert_array_equal(response.dists, want.dists)


class TestConnectionHygiene:
    def test_cancelled_losers_do_not_leak_connections(
        self, fleet, queries
    ):
        """Each batch hedges the straggler and cancels the losing
        primary; its connection must be discarded, not pooled, and the
        open-socket gauge must stay bounded by the pool size."""
        transports = make_transports(fleet)
        broker = Broker(
            transports,
            LANNS_2X2,
            hedge_after_s=0.05,
            request_timeout_s=30.0,
        )
        try:
            for _ in range(5):
                broker.execute(SearchRequest(queries[:4], 10, "hedge"))
            assert broker.stats()["counts"].get("hedges", 0) == 5
            slow_client = transports[SLOW_SHARD]
            assert slow_client.open_connections <= slow_client.pool_size, (
                f"{slow_client.open_connections} sockets open after 5 "
                f"hedged batches (pool_size={slow_client.pool_size})"
            )
        finally:
            close_all(broker, transports)
        for transport in transports:
            assert transport.open_connections == 0, (
                "close() must drain every pooled connection"
            )

    def test_broker_generations_share_one_pool(self, fleet, queries):
        """Transports outlive brokers (deploy/undeploy cycles): every
        generation draws on the same pool, so none leaks pool_size
        sockets per searcher or starts a thread."""
        transports = make_transports(fleet)
        before = set(threading.enumerate())
        try:
            for _ in range(3):
                broker = Broker(
                    transports,
                    LANNS_2X2,
                    request_timeout_s=30.0,
                )
                broker.execute(SearchRequest(queries[:2], 5, "hedge"))
                broker.close()
            broker = Broker(transports, LANNS_2X2, request_timeout_s=30.0)
            broker.execute(SearchRequest(queries[:2], 5, "hedge"))
            try:
                for transport in transports:
                    client = transport
                    assert (
                        client.open_connections <= client.pool_size
                    ), (
                        f"{client.open_connections} sockets open after 4 "
                        "broker generations over one transport"
                    )
                assert threads_added(before) == set()
            finally:
                broker.close()
        finally:
            for transport in transports:
                transport.close()
        for transport in transports:
            assert transport.open_connections == 0

    def test_remote_fanout_starts_no_thread_and_no_task(
        self, fleet, queries, monkeypatch
    ):
        """Every RPC of a hedged fan-out -- the straggler's primary and
        its hedge included -- is started and polled on the calling
        thread; no thread is started and no event loop made, so no
        task can exist."""

        def refuse(*args, **kwargs):
            raise AssertionError("the fan-out made an event loop")

        monkeypatch.setattr(asyncio.BaseEventLoop, "__init__", refuse)
        transports = [
            RecordingTransport(server.address, shard_id)
            for shard_id, server in enumerate(fleet)
        ]
        started_on = set()
        for transport in transports:
            start = transport.start_search
            transport.start_search = lambda call, start=start: (
                started_on.add(threading.current_thread()) or start(call)
            )
        broker = Broker(
            transports,
            LANNS_2X2,
            hedge_after_s=0.05,
            request_timeout_s=30.0,
        )
        before = set(threading.enumerate())
        try:
            broker.execute(SearchRequest(queries[:4], 10, "hedge"))
            assert broker.stats()["counts"]["hedges"] == 1
            assert threads_added(before) == set()
            assert started_on == {threading.current_thread()}
        finally:
            close_all(broker, transports)


class TestServiceIntegration:
    def test_service_hedged_end_to_end(self, lanns_fs, fleet, queries):
        """OnlineService wiring: deploy over RPC onto the straggler fleet
        with hedging, stats surfaced, clean undeploy."""
        remote = OnlineService(
            searchers=[server.address for server in fleet],
            hedge_after_s=0.05,
            request_timeout_s=30.0,
        )
        try:
            remote.deploy(lanns_fs, LANNS_PATH, index_name="svc")
            assert isinstance(remote.searchers[0][0], RemoteSearcherClient)
            response = remote.execute(
                SearchRequest(queries=queries, top_k=10, index_name="svc")
            )
            assert (response.shards_answered == NUM_SHARDS).all()
            assert remote.brokers["svc"].policy.hedge_after_s == 0.05
            remote.undeploy("svc")
        finally:
            remote.close()

    def test_hedging_requires_a_remote_fleet(self, fleet):
        """Never silently drop a hedge: an in-process fleet rejects the
        knob; value validation is independent of the fleet."""
        nodes = [SearcherNode(shard_id) for shard_id in range(NUM_SHARDS)]
        with pytest.raises(ValueError, match="remote fleet"):
            Broker(nodes, LANNS_2X2, hedge_after_s=0.1)
        with pytest.raises(ValueError, match="must be positive"):
            Broker(nodes, LANNS_2X2, hedge_after_s=0.0)
        with pytest.raises(ValueError, match="remote fleet"):
            OnlineService(hedge_after_s=0.1)


class TestAdaptiveHedging:
    """hedge_after_s="auto": delay derived from the live shard_rpc window."""

    @pytest.fixture
    def auto_broker(self, fleet):
        transports = make_transports(fleet)
        broker = Broker(transports, LANNS_2X2, hedge_after_s="auto")
        yield broker
        close_all(broker, transports)

    def test_no_hedging_before_min_samples(self, auto_broker):
        from repro.online.hedging import AUTO_HEDGE_MIN_SAMPLES

        for _ in range(AUTO_HEDGE_MIN_SAMPLES - 1):
            auto_broker.timings.record("shard_rpc", 0.01)
        assert hedge_delay(auto_broker) is None
        auto_broker.timings.record("shard_rpc", 0.01)
        assert hedge_delay(auto_broker) is not None

    def test_delay_tracks_injected_distribution(self, auto_broker):
        """The delay follows the *median* of an injected slow-shard mix:
        half the samples straggler-slow must not drag the trigger up."""
        from repro.online.hedging import (
            AUTO_HEDGE_MIN_DELAY_S,
            AUTO_HEDGE_MULTIPLIER,
        )

        # Healthy shard: tight 5 ms RPCs.
        for _ in range(100):
            auto_broker.timings.record("shard_rpc", 0.005)
        healthy = hedge_delay(auto_broker)
        assert healthy == pytest.approx(0.005 * AUTO_HEDGE_MULTIPLIER)

        # Inject a straggling shard: just under half the recent
        # window at 250 ms.  The median stays healthy, so the delay
        # must not balloon to straggler scale.
        for _ in range(90):
            auto_broker.timings.record("shard_rpc", 0.25)
        mixed = hedge_delay(auto_broker)
        assert mixed == pytest.approx(0.005 * AUTO_HEDGE_MULTIPLIER)

        # The fleet genuinely slows down (every sample slow): the
        # delay tracks the new median instead of hedging constantly.
        for _ in range(8192):
            auto_broker.timings.record("shard_rpc", 0.05)
        slowed = hedge_delay(auto_broker)
        assert slowed == pytest.approx(0.05 * AUTO_HEDGE_MULTIPLIER)
        assert slowed >= AUTO_HEDGE_MIN_DELAY_S

    def test_delay_floor(self, auto_broker):
        from repro.online.hedging import AUTO_HEDGE_MIN_DELAY_S

        for _ in range(64):
            auto_broker.timings.record("shard_rpc", 1e-7)
        assert hedge_delay(auto_broker) == AUTO_HEDGE_MIN_DELAY_S

    def test_static_knob_unchanged(self, fleet):
        transports = make_transports(fleet)
        broker = Broker(transports, LANNS_2X2, hedge_after_s=0.07)
        try:
            broker.timings.record("shard_rpc", 5.0)
            assert hedge_delay(broker) == 0.07
        finally:
            close_all(broker, transports)

    def test_validation(self, fleet):
        transports = make_transports(fleet)
        try:
            with pytest.raises(ValueError, match="auto"):
                Broker(transports, LANNS_2X2, hedge_after_s="fast")
        finally:
            for transport in transports:
                transport.close()
        nodes = [SearcherNode(shard_id) for shard_id in range(NUM_SHARDS)]
        with pytest.raises(ValueError, match="remote fleet"):
            Broker(nodes, LANNS_2X2, hedge_after_s="auto")

    def test_auto_end_to_end_with_straggler(
        self, fleet, auto_broker, queries, baseline
    ):
        """Warm the window on the straggler fleet (no hedging yet), then
        verify hedges actually fire under "auto" once samples exist,
        with results identical to the in-process reference."""
        from repro.online.hedging import AUTO_HEDGE_MIN_SAMPLES

        fleet[SLOW_SHARD].chaos = FaultPlan(delay_every=2, delay_s=0.08)
        warm = queries[:2]
        while (
            (auto_broker.timings.quantile("shard_rpc", 0.5) or (0, 0.0))[0]
            < AUTO_HEDGE_MIN_SAMPLES
        ):
            auto_broker.execute(SearchRequest(warm, 5, "hedge"))
        assert auto_broker.stats()["counts"].get("hedges", 0) == 0
        delay = hedge_delay(auto_broker)
        assert delay is not None and delay < 0.08
        request = SearchRequest(queries, 5, "hedge")
        want = baseline.execute(request)
        # Every other SEARCH frame to the slow shard stalls, so one of
        # two consecutive primaries must out-wait the derived delay.
        for _ in range(2):
            got = auto_broker.execute(request)
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.dists, want.dists)
        assert auto_broker.stats()["counts"].get("hedges", 0) >= 1

    def test_service_accepts_auto(self, fleet, lanns_fs):
        service = OnlineService(
            searchers=[server.address for server in fleet],
            hedge_after_s="auto",
        )
        try:
            service.deploy(lanns_fs, LANNS_PATH, index_name="auto-svc")
            assert service.brokers["auto-svc"].policy.hedge_after_s == "auto"
            service.undeploy("auto-svc")
        finally:
            service.close()
