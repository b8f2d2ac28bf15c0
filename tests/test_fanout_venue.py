"""The broker's fan-out venue is derived from the fleet, not configured.

- An all-in-process fleet is searched **inline** on the calling thread:
  no ``broker-*`` thread is ever started.
- A fleet holding any remote transport runs on the **loop**: exactly one
  ``broker-async-loop`` thread, whatever mix of transports it fronts.
- Both venues answer like the reference index: the ``inline`` / ``loop``
  / ``mixed`` venues of ``tests/test_path_matrix.py``.
- ``close()`` racing in-flight loop-venue requests never hangs them and
  never leaks a connection: each request answers bit-identically or
  raises a :mod:`repro.errors` taxonomy error within its deadline.
- A request the broker must refuse is not counted as served.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import LannsError
from repro.net.server import SearcherServer
from repro.net.transport import RemoteSearcherTransport
from repro.obs.metrics import get_registry
from repro.online.broker import Broker
from repro.online.types import SearchRequest
from tests.conftest import LANNS_2X2, host_all, wait_until


@pytest.fixture(scope="module")
def nodes(lanns):
    return host_all(lanns, "venue")


@pytest.fixture(scope="module")
def queries(clustered_queries):
    return clustered_queries[:16]


@pytest.fixture
def servers(nodes):
    fleet = [SearcherServer(node).start_in_thread() for node in nodes]
    yield fleet
    for server in fleet:
        server.stop()


def broker_threads() -> list[str]:
    return sorted(
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("broker-")
    )


def remote(servers, **kwargs):
    return [
        RemoteSearcherTransport(server.address, shard_id, **kwargs)
        for shard_id, server in enumerate(servers)
    ]


class TestVenueSelection:
    def test_in_process_fleet_is_inline_and_starts_no_thread(
        self, nodes, queries
    ):
        assert broker_threads() == []
        broker = Broker(nodes, LANNS_2X2)
        try:
            assert broker.venue == "inline"
            assert broker.stats()["venue"] == "inline"
            broker.search_batch("venue", queries, 10)
            assert broker_threads() == []
        finally:
            broker.close()

    @pytest.mark.parametrize("fleet_kind", ["async", "mixed"])
    def test_remote_fleet_runs_one_loop(
        self, nodes, servers, queries, fleet_kind
    ):
        transports = remote(servers)
        fleet = list(transports)
        if fleet_kind == "mixed":
            fleet[0] = nodes[0]
        assert broker_threads() == []
        broker = Broker(fleet, LANNS_2X2, request_timeout_s=30.0)
        try:
            assert broker.venue == "loop"
            got = broker.execute(
                SearchRequest(queries=queries, top_k=10, index_name="venue")
            )
            assert broker_threads() == ["broker-async-loop"]
            assert (got.shards_answered == LANNS_2X2.num_shards).all()
        finally:
            broker.close()
            for transport in transports:
                transport.close()
        assert broker_threads() == []


    def test_unhedged_fanout_creates_one_task_per_group(
        self, servers, queries
    ):
        """With no hedge to race, a shard RPC is awaited in its group's
        task: the only tasks of a warm fan-out are ``_gather`` (the
        submission) and ``gather``'s one per group -- no per-RPC task,
        timeout wrapper or peek."""
        transports = remote(servers)
        broker = Broker(transports, LANNS_2X2, request_timeout_s=30.0)
        loop = broker._fanout._loop.loop
        created: list[str] = []

        def counting(loop, coro, **kwargs):
            created.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        try:
            broker.search_batch("venue", queries, 10)  # dials the pool
            loop.call_soon_threadsafe(loop.set_task_factory, counting)
            broker.search_batch("venue", queries, 10)
            assert sorted(created) == ["FanOut._gather"] + [
                "FanOut._group_call"
            ] * LANNS_2X2.num_shards
        finally:
            broker.close()
            for transport in transports:
                transport.close()


class TestCloseRace:
    def test_close_with_requests_in_flight_never_hangs_or_leaks(
        self, nodes, servers, queries
    ):
        """Clients keep issuing requests while ``close()`` tears the loop
        down under them (first the broker, then the transports): a torn
        fan-out re-runs on the caller's thread against the still-open
        transports; once those are closed too it fails with a taxonomy
        error.  Nothing hangs past the deadline, nothing leaks."""
        inline = Broker(nodes, LANNS_2X2)
        expected = [inline.search("venue", query, 8) for query in queries]
        inline.close()
        # Every SEARCH stalls a little, so close() finds RPCs in flight.
        for server in servers:
            server.options = replace(
                server.options, slow_every=1, slow_delay_s=0.05
            )
        transports = remote(servers, retries=0)
        deadline_s = 5.0
        broker = Broker(transports, LANNS_2X2, request_timeout_s=deadline_s)
        outcomes: list[tuple[int, object, float]] = []
        stop = threading.Event()

        def client(worker: int) -> None:
            row = worker
            while not stop.is_set():
                began = time.perf_counter()
                try:
                    result: object = broker.search("venue", queries[row], 8)
                except BaseException as exc:
                    result = exc
                outcomes.append((row, result, time.perf_counter() - began))
                row = (row + 4) % queries.shape[0]

        threads = [
            threading.Thread(target=client, args=(worker,), daemon=True)
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            wait_until(lambda: len(outcomes) >= 4)
            broker.close()
            served_after_close = len(outcomes)
            # The loop is gone, the transports are not: requests keep
            # answering, now driven from the callers' own threads.
            wait_until(lambda: len(outcomes) >= served_after_close + 8)
            for transport in transports:
                transport.close()
            time.sleep(0.2)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=4 * deadline_s)
        assert not any(thread.is_alive() for thread in threads), "hung"
        answered = 0
        for row, result, elapsed in outcomes:
            assert elapsed < deadline_s + 1.0
            if isinstance(result, BaseException):
                assert isinstance(result, LannsError), repr(result)
                continue
            answered += 1
            np.testing.assert_array_equal(result[0], expected[row][0])
            np.testing.assert_array_equal(result[1], expected[row][1])
        assert answered >= served_after_close + 8 - 4
        assert broker_threads() == []
        for transport in transports:
            assert transport.client.open_connections == 0


class TestRejectedRequestsAreNotCounted:
    def test_routed_request_on_routerless_broker_counts_nothing(
        self, nodes, queries
    ):
        broker = Broker(
            nodes, LANNS_2X2, trace_sample_rate=1.0, name="venue-reject"
        )
        counter = get_registry().counter("lanns_broker_queries_total")
        try:
            with pytest.raises(ValueError, match="without a router"):
                broker.execute(
                    SearchRequest(
                        queries=queries[:3],
                        top_k=5,
                        index_name="venue",
                        spill=1,
                    )
                )
            assert broker.stats()["queries_served"] == 0
            assert counter.value(broker="venue-reject") == 0
            assert broker.tracer.stats()["started"] == 0
            broker.search_batch("venue", queries[:3], 5)
            assert broker.stats()["queries_served"] == 3
            assert counter.value(broker="venue-reject") == 3
            assert broker.tracer.stats()["started"] == 1
        finally:
            broker.close()
