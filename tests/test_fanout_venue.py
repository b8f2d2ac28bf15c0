"""The broker's fan-out venue is derived from the fleet, not configured.

- An all-in-process fleet is searched **inline** on the calling thread:
  no thread is ever started.
- An all-remote fleet runs on the **loop**: its RPCs are awaited on the
  process loop's thread.  A fleet mixing the two kinds is refused.
- Both venues answer like the reference index: the ``inline`` /
  ``loop`` venues of ``tests/test_path_matrix.py``.
- ``close()`` racing in-flight loop-venue requests never hangs them and
  never leaks a connection: each request answers bit-identically or
  raises a :mod:`repro.errors` taxonomy error within its deadline.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.errors import LannsError
from repro.net.chaos import FaultPlan
from repro.net.loop import THREAD_NAME, process_loop
from repro.net.server import SearcherServer
from repro.net.transport import RemoteSearcherTransport
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


def remote(servers, **kwargs):
    return [
        RemoteSearcherTransport(server.address, shard_id, **kwargs)
        for shard_id, server in enumerate(servers)
    ]


class TestVenueSelection:
    def test_in_process_fleet_is_inline_and_starts_no_thread(
        self, nodes, queries
    ):
        before = set(threading.enumerate())
        broker = Broker(nodes, LANNS_2X2)
        try:
            assert broker.venue == "inline"
            assert broker.stats()["venue"] == "inline"
            broker.search_batch("venue", queries, 10)
            assert not set(threading.enumerate()) - before
        finally:
            broker.close()

    def test_remote_fleet_runs_one_loop(
        self, servers, queries, monkeypatch
    ):
        """Every RPC of the fan-out is awaited on the process loop."""
        awaited_on: set[str] = set()
        search = RemoteSearcherTransport.search_batch_async

        async def recording(transport, call):
            awaited_on.add(threading.current_thread().name)
            return await search(transport, call)

        monkeypatch.setattr(
            RemoteSearcherTransport, "search_batch_async", recording
        )
        transports = remote(servers)
        broker = Broker(transports, LANNS_2X2, request_timeout_s=30.0)
        try:
            assert broker.venue == "loop"
            got = broker.execute(
                SearchRequest(queries=queries, top_k=10, index_name="venue")
            )
            assert awaited_on == {THREAD_NAME}
            assert (got.shards_answered == LANNS_2X2.num_shards).all()
        finally:
            broker.close()
            for transport in transports:
                transport.close()

    @pytest.mark.parametrize("mix", ["across_groups", "within_a_group"])
    def test_a_mixed_fleet_is_refused(self, nodes, servers, mix):
        transports = remote(servers)
        fleet = (
            [nodes[0], transports[1]]
            if mix == "across_groups"
            else [[nodes[0], transports[0]], transports[1]]
        )
        try:
            with pytest.raises(ValueError, match="all in-process .* or all remote"):
                Broker(fleet, LANNS_2X2)
        finally:
            for transport in transports:
                transport.close()


    def test_unhedged_fanout_creates_one_task_per_group(
        self, servers, queries
    ):
        """With no hedge to race, a shard RPC is awaited in its group's
        task: the only tasks of a warm fan-out are ``_gather`` (the
        submission) and ``gather``'s one per group -- no per-RPC task,
        timeout wrapper or peek."""
        transports = remote(servers)
        broker = Broker(transports, LANNS_2X2, request_timeout_s=30.0)
        loop = process_loop()
        factory = loop.get_task_factory()
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
            loop.call_soon_threadsafe(loop.set_task_factory, factory)
            broker.close()
            for transport in transports:
                transport.close()


class TestCloseRace:
    def test_close_with_requests_in_flight_never_hangs_or_leaks(
        self, nodes, servers, queries
    ):
        """Clients keep issuing requests while ``close()`` runs under them
        (first the broker, then the transports): the broker's close
        leaves the process loop and the transports serving; once those
        are closed too a request fails with a taxonomy error.  Nothing
        hangs past the deadline, nothing leaks."""
        inline = Broker(nodes, LANNS_2X2)
        expected = [inline.search("venue", query, 8) for query in queries]
        inline.close()
        # Every SEARCH stalls a little, so close() finds RPCs in flight.
        for server in servers:
            server.chaos = FaultPlan(delay_every=1, delay_s=0.05)
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
            # The transports are still open: requests keep answering.
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
        for transport in transports:
            assert transport.client.open_connections == 0
