"""The broker's fan-out has one path, whatever the fleet holds.

- An all-in-process fleet starts no thread; an all-remote fleet's RPCs
  are started and polled on the calling thread.
- A fleet mixing in-process and remote shards -- across groups or within
  one -- asks every replica it picks.  What any fleet answers, and
  charges, is the ``inline`` / ``remote`` venues of
  ``tests/test_path_matrix.py``: no bug was found that a mixed fleet
  shows and both pure ones hide.
- ``close()`` racing in-flight remote requests never hangs them and
  never leaks a connection: each request answers bit-identically or
  raises a :mod:`repro.errors` taxonomy error within its deadline.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import LannsError
from repro.net.chaos import FaultPlan
from repro.net.client import RemoteSearcherClient
from repro.net.server import SearcherServer
from repro.net.transport import LocalSearcherTransport
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
        RemoteSearcherClient(server.address, shard_id, **kwargs)
        for shard_id, server in enumerate(servers)
    ]


def fleet(kind: str, nodes, transports) -> list:
    return {
        "in_process": nodes,
        "remote": transports,
        "across_groups": [nodes[0], transports[1]],
        "within_a_group": [[nodes[0], transports[0]], transports[1]],
    }[kind]


class TestOnePath:
    @pytest.mark.parametrize(
        "kind", ["in_process", "remote", "across_groups", "within_a_group"]
    )
    def test_every_fleet_starts_its_rpcs_on_the_calling_thread(
        self, nodes, servers, queries, kind, monkeypatch
    ):
        """An in-process fleet starts no thread at all; within a group,
        a busy replica's sibling answers."""
        request = SearchRequest(queries=queries, top_k=10, index_name="venue")
        started_on: set[threading.Thread] = set()
        for owner in (LocalSearcherTransport, RemoteSearcherClient):
            start = owner.start_search
            monkeypatch.setattr(
                owner, "start_search", lambda transport, call, start=start: (
                    started_on.add(threading.current_thread())
                    or start(transport, call)
                ),
            )
        transports = remote(servers)
        broker = Broker(fleet(kind, nodes, transports), LANNS_2X2)
        before = set(threading.enumerate())
        try:
            answers = [broker.execute(request)]
            # Replica 0 held busy: a sibling, where there is one, answers.
            busy = broker.groups[0].replicas[0]
            broker.groups[0].begin(busy)
            answers.append(broker.execute(request))
            broker.groups[0].finish(busy, outcome="cancelled")
            picks = [replica.picks for replica in broker.groups[0].replicas]
            if kind == "in_process":
                assert not set(threading.enumerate()) - before
        finally:
            broker.close()
            for transport in transports:
                transport.close()
        assert started_on == {threading.current_thread()}
        assert picks == ([1, 1] if kind == "within_a_group" else [2])
        for got in answers:
            assert (got.shards_answered == LANNS_2X2.num_shards).all()


class TestCloseRace:
    def test_close_with_requests_in_flight_never_hangs_or_leaks(
        self, nodes, servers, queries
    ):
        """Clients keep issuing requests while ``close()`` runs under them
        (first the broker, then the transports): the broker's close
        leaves the transports serving; once those are closed too a
        request fails with a taxonomy error.  Nothing hangs past the
        deadline, nothing leaks."""
        inline = Broker(nodes, LANNS_2X2)
        expected = [
            inline.execute(SearchRequest(query, 8, "venue")) for query in queries
        ]
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
                    result: object = broker.execute(
                        SearchRequest(queries[row], 8, "venue")
                    )
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
            np.testing.assert_array_equal(result.ids, expected[row].ids)
            np.testing.assert_array_equal(result.dists, expected[row].dists)
        assert answered >= served_after_close + 8 - 4
        for transport in transports:
            assert transport.open_connections == 0
