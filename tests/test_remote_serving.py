"""Remote serving tests: the transport's failure modes.

Most run against *in-thread* asyncio searcher servers (real sockets,
fast startup); the kill-mid-flight test spawns *real searcher
subprocesses* so a SIGKILL exercises genuine connection-reset paths.
That answers over the wire -- micro-batched, cached, server-batched --
equal in-process serving is the ``loop`` venue of
``tests/test_path_matrix.py``.  Failure taxonomy under test:

- connection refused at deploy -> raises (and rolls back the fleet);
- request timeout under ``degrade`` -> annotated partial results, under
  ``fail`` -> raises;
- searcher process killed mid-flight under ``degrade`` -> exact merge of
  the surviving shards, ``shards_answered`` reported;
- structured server-side errors (unknown index) -> re-raised under
  either policy (a caller bug is not a dead shard).
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.merge import merge_shard_results_batch
from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    RemoteCallError,
    TransportError,
)
from repro.net.client import RemoteSearcherClient
from repro.net.server import SearcherServer
from repro.net.transport import RemoteSearcherTransport
from repro.online.broker import Broker
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from tests.conftest import LANNS_2X2, LANNS_PATH

NUM_SHARDS = LANNS_2X2.num_shards


@pytest.fixture(scope="module")
def queries(clustered_queries):
    return clustered_queries[:24]


@pytest.fixture(scope="module")
def servers(lanns_fs):
    """One in-thread asyncio searcher server per shard, over loopback."""
    fleet = [
        SearcherServer(
            SearcherNode(shard_id), root=str(lanns_fs.root)
        ).start_in_thread()
        for shard_id in range(NUM_SHARDS)
    ]
    yield fleet
    for server in fleet:
        server.stop()


@pytest.fixture(scope="module")
def addresses(servers):
    return [server.address for server in servers]


@contextlib.contextmanager
def black_hole():
    """A listener that accepts connections and never responds."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    port = sock.getsockname()[1]
    stop = threading.Event()
    accepted: list[socket.socket] = []

    def accept_loop():
        sock.settimeout(0.1)
        while not stop.is_set():
            try:
                conn, _ = sock.accept()
                accepted.append(conn)
            except TimeoutError:
                continue
            except OSError:
                return

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{port}"
    finally:
        stop.set()
        thread.join(timeout=10)
        for conn in accepted:
            conn.close()
        sock.close()


def execute(target, queries, top_k, index_name):
    """One structured request against a ``Broker`` or ``OnlineService``."""
    return target.execute(
        SearchRequest(queries=queries, top_k=top_k, index_name=index_name)
    )


def refused_address() -> str:
    """An address nothing listens on (bound, never listened, closed)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"127.0.0.1:{port}"


class TestRemoteStats:
    def test_remote_stats_rpc(self, lanns_fs, addresses, lanns):
        remote = OnlineService(searchers=addresses)
        try:
            remote.deploy(lanns_fs, LANNS_PATH, index_name="st")
            stats = remote.searchers[0].stats()
            assert stats["shard_id"] == 0
            assert "st" in stats["hosted_indices"]
            assert stats["memory_vectors"] > 0
            remote.undeploy("st")
            assert "st" not in remote.searchers[0].stats()["hosted_indices"]
        finally:
            remote.close()


class TestDeployFailures:
    def test_connection_refused_at_deploy_raises_and_rolls_back(
        self, lanns_fs, addresses, lanns
    ):
        fleet = [addresses[0], refused_address()]
        service = OnlineService(searchers=fleet, rpc_retries=0)
        try:
            with pytest.raises(ConnectionLostError, match="connect"):
                service.deploy(lanns_fs, LANNS_PATH, index_name="cr")
        finally:
            service.close()
        # The reachable searcher must not be left half-deployed.
        for address in addresses[:1]:
            client = RemoteSearcherClient(address)
            try:
                assert "cr" not in client.stats()["hosted_indices"]
            finally:
                client.close()

    @pytest.mark.parametrize("remote", [False, True], ids=["in-process", "loopback"])
    def test_failed_broker_step_leaves_nothing_hosted(
        self, monkeypatch, lanns_fs, servers, addresses, queries, lanns, remote
    ):
        """Whatever raises after hosting began -- here the ``Broker``
        construction itself -- takes the index back off every searcher,
        so the corrected deploy can reuse the name (at b863b1d the
        shards stayed hosted and it raised "already hosts")."""
        import repro.online.service as service_module

        def refuse(*args, **kwargs):
            raise ValueError("this fleet cannot run that policy")

        service = OnlineService(searchers=addresses if remote else None)
        try:
            with monkeypatch.context() as patched:
                patched.setattr(service_module, "Broker", refuse)
                with pytest.raises(ValueError, match="cannot run that policy"):
                    service.deploy(lanns_fs, LANNS_PATH, index_name="fb")
            nodes = [server.node for server in servers] if remote else service.searchers
            assert len(nodes) == NUM_SHARDS
            assert ["fb" in node.hosted_indices for node in nodes] == [False] * NUM_SHARDS
            assert service.deployed_indices == []
            with pytest.raises(KeyError):
                service.undeploy("fb")
            service.deploy(lanns_fs, LANNS_PATH, index_name="fb")
            ids, _ = service.query_batch(queries[:4], 5, index_name="fb")
            assert ids.shape == (4, 5) and (ids >= 0).all()
            service.undeploy("fb")
        finally:
            service.close()

    @pytest.mark.parametrize(
        "bad, error",
        [
            ({"partial_policy": "degrad"}, ValueError),
            ({"request_timeout_s": -1}, ValueError),
            ({"hedge_after_s": "soon"}, ValueError),
            ({"rpc_timeout_s": 5.0}, TypeError),  # retired: a constant now
            ({"partial_polic": "fail"}, TypeError),
        ],
    )
    def test_a_bad_policy_fails_at_construction(self, addresses, bad, error):
        """Before any shard is hosted, not at the first ``deploy()``; an
        unknown keyword is a ``TypeError`` naming it."""
        (name,) = bad
        with pytest.raises(error, match=name):
            OnlineService(searchers=addresses, **bad)
        nodes = [SearcherNode(shard) for shard in range(NUM_SHARDS)]
        with pytest.raises(error, match=name):
            Broker(nodes, LANNS_2X2, **bad)

    def test_degrade_policy_deploys_onto_surviving_fleet(
        self, lanns_fs, addresses, queries, lanns
    ):
        """Under ``degrade``, a dead fleet member at deploy time is
        tolerated: the index deploys onto the survivors and serving
        returns annotated partial results immediately."""
        fleet = [addresses[0], refused_address()]
        service = OnlineService(
            searchers=fleet,
            partial_policy="degrade",
            request_timeout_s=5.0,
            rpc_retries=0,
        )
        try:
            service.deploy(lanns_fs, LANNS_PATH, index_name="dd")
            probe = queries[:4]
            response = execute(service, probe, 10, "dd")
            got_ids, got_dists = response.ids, response.dists
            assert (response.shards_answered == NUM_SHARDS - 1).all()
            budget = service.brokers["dd"].per_shard_budget(10)
            parts = [lanns.shards[0].search_batch(probe, budget)]
            want_ids, want_dists = merge_shard_results_batch(parts, 10)
            np.testing.assert_array_equal(got_ids, want_ids)
            np.testing.assert_array_equal(got_dists, want_dists)
            service.undeploy("dd")
        finally:
            service.close()

    def test_wrong_shard_position_rejected_at_deploy(
        self, lanns_fs, addresses, lanns
    ):
        # Shard 1's server listed at position 0: the ping handshake
        # must catch the mis-wiring before any deploy RPC.
        fleet = [addresses[1], addresses[0]]
        service = OnlineService(searchers=fleet)
        try:
            with pytest.raises(ValueError, match="serves shard"):
                service.deploy(lanns_fs, LANNS_PATH, index_name="mw")
        finally:
            service.close()

    def test_unknown_index_fails_under_both_policies(
        self, addresses, servers, lanns
    ):
        """An index NO shard hosts is a caller bug and must raise: under
        ``fail`` as the shard's own error, under ``degrade`` as
        all-shards-failed (every shard KeyErrors, and an all-failed
        request always raises)."""
        for policy, expected in (
            ("fail", RemoteCallError),
            ("degrade", TransportError),
        ):
            transports = [
                RemoteSearcherTransport(address, shard_id)
                for shard_id, address in enumerate(addresses)
            ]
            broker = Broker(transports, LANNS_2X2, partial_policy=policy)
            try:
                with pytest.raises(expected) as excinfo:
                    broker.search_batch(
                        "never-deployed", np.zeros((1, 16), np.float32), 5
                    )
                if policy == "degrade":
                    # The cause trail must still name the real error.
                    assert isinstance(excinfo.value.__cause__, RemoteCallError)
            finally:
                broker.close()
                for transport in transports:
                    transport.close()

    def test_partially_hosted_index_degrades_like_a_dead_shard(
        self, lanns_fs, addresses, queries, servers, lanns
    ):
        """A live searcher that does not host the index (restarted, or
        missed a degraded deploy) must degrade, not poison every
        request: its rows are as gone as a dead shard's."""
        clients = [RemoteSearcherClient(address) for address in addresses]
        probe = queries[:4]
        try:
            # Host on shard 0 only; shard 1 is alive but empty.
            for client in clients[:1]:
                client.deploy("ph", LANNS_PATH, root=str(lanns_fs.root))
            transports = [
                RemoteSearcherTransport(address, shard_id)
                for shard_id, address in enumerate(addresses)
            ]
            broker = Broker(
                transports, LANNS_2X2, partial_policy="degrade"
            )
            try:
                response = execute(broker, probe, 10, "ph")
                ids, dists = response.ids, response.dists
                assert (response.shards_answered == 1).all()
                budget = broker.per_shard_budget(10)
                parts = [lanns.shards[0].search_batch(probe, budget)]
                want_ids, want_dists = merge_shard_results_batch(parts, 10)
                np.testing.assert_array_equal(ids, want_ids)
                np.testing.assert_array_equal(dists, want_dists)
            finally:
                broker.close()
                for transport in transports:
                    transport.close()
        finally:
            for client in clients[:1]:
                with contextlib.suppress(TransportError):
                    client.undeploy("ph")
            for client in clients:
                client.close()


class TestTimeouts:
    def test_timeout_degrades_with_annotation_and_fail_raises(
        self, lanns_fs, queries, lanns, servers, addresses
    ):
        probe = queries[:6]
        with black_hole() as silent:
            live = [
                RemoteSearcherClient(address) for address in addresses[:1]
            ]
            try:
                for client in live:
                    client.deploy(
                        "tmo", LANNS_PATH, root=str(lanns_fs.root)
                    )
                transports = [
                    RemoteSearcherTransport(addresses[0], 0),
                    RemoteSearcherTransport(silent, 1, retries=0),
                ]
                degrade = Broker(
                    transports,
                    LANNS_2X2,
                    partial_policy="degrade",
                    request_timeout_s=0.5,
                )
                try:
                    response = execute(degrade, probe, 10, "tmo")
                    ids, dists = response.ids, response.dists
                    assert (response.shards_answered == 1).all()
                    budget = degrade.per_shard_budget(10)
                    parts = [lanns.shards[0].search_batch(probe, budget)]
                    want_ids, want_dists = merge_shard_results_batch(
                        parts, 10
                    )
                    np.testing.assert_array_equal(ids, want_ids)
                    np.testing.assert_array_equal(dists, want_dists)
                    counts = degrade.stats()["counts"]
                    assert counts["degraded_batches"] >= 1
                    assert counts["shard_failures"]["1"] >= 1
                finally:
                    degrade.close()
                    for transport in transports:
                        transport.close()

                strict = Broker(
                    [
                        RemoteSearcherTransport(addresses[0], 0),
                        RemoteSearcherTransport(silent, 1, retries=0),
                    ],
                    LANNS_2X2,
                    partial_policy="fail",
                    request_timeout_s=0.5,
                )
                try:
                    with pytest.raises(
                        (DeadlineExceededError, TransportError)
                    ):
                        strict.search_batch("tmo", probe, 10)
                finally:
                    for transport in strict.transports:
                        transport.close()
                    strict.close()
            finally:
                for client in live:
                    with contextlib.suppress(TransportError):
                        client.undeploy("tmo")
                    client.close()


class TestDeadlineCauseChaining:
    """A deadline that expires while retrying a *connectivity* failure
    must keep that failure as ``__cause__``: a refused connection that
    reads as a plain timeout sends the operator debugging the wrong
    thing (slow searcher vs searcher not listening at all)."""

    def test_deadline_chains_connectivity_cause(self):
        """Driven through the blocking facade, so the chain is also
        checked to survive the hop from the loop thread to the caller."""
        client = RemoteSearcherClient(
            refused_address(), retries=3, backoff_s=0.05
        )
        try:
            with pytest.raises(DeadlineExceededError) as excinfo:
                client.ping(deadline=time.monotonic() + 0.02)
            assert isinstance(excinfo.value.__cause__, ConnectionLostError)
        finally:
            client.close()


class TestKilledSearcherProcess:
    def test_kill_one_searcher_process_mid_flight(
        self, lanns_fs, queries, lanns
    ):
        """Real subprocesses: SIGKILL one searcher between requests; the
        degrade policy answers from the survivors with annotation, the
        fail policy raises."""
        from repro.net.fleet import fleet_addresses, launch_fleet, shutdown_fleet

        fleet = launch_fleet(NUM_SHARDS, root=str(lanns_fs.root))
        probe = queries[:8]
        degrade = None
        strict = None
        try:
            degrade = OnlineService(
                searchers=fleet_addresses(fleet),
                partial_policy="degrade",
                request_timeout_s=10.0,
                rpc_retries=0,
            )
            strict = OnlineService(
                searchers=fleet_addresses(fleet),
                partial_policy="fail",
                request_timeout_s=10.0,
                rpc_retries=0,
            )
            degrade.deploy(lanns_fs, LANNS_PATH, index_name="kill")
            strict.deploy(lanns_fs, LANNS_PATH, index_name="strictkill")
            response = execute(degrade, probe, 10, "kill")
            assert (response.shards_answered == NUM_SHARDS).all()

            victim = fleet[1]
            victim.kill()
            assert not victim.alive()

            response = execute(degrade, probe, 10, "kill")
            got_ids, got_dists = response.ids, response.dists
            assert (response.shards_answered == NUM_SHARDS - 1).all()
            broker = degrade.brokers["kill"]
            budget = broker.per_shard_budget(10)
            parts = [
                lanns.shards[shard].search_batch(probe, budget)
                for shard in range(NUM_SHARDS)
                if shard != victim.shard_id
            ]
            want_ids, want_dists = merge_shard_results_batch(parts, 10)
            np.testing.assert_array_equal(got_ids, want_ids)
            np.testing.assert_array_equal(got_dists, want_dists)
            assert broker.stats()["counts"]["shard_failures"]["1"] >= 1

            with pytest.raises(TransportError):
                strict.query_batch(probe, 10, index_name="strictkill")
        finally:
            if degrade is not None:
                degrade.close()
            if strict is not None:
                strict.close()
            shutdown_fleet(fleet)
