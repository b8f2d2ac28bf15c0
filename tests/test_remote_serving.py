"""Remote serving tests: loopback RPC parity and transport failure modes.

Parity, micro-batching and caching run against *in-thread* asyncio
searcher servers (real sockets, fast startup); the kill-mid-flight test
spawns *real searcher subprocesses* so a SIGKILL exercises genuine
connection-reset paths.  Failure taxonomy under test:

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

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
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
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import save_lanns_index
from tests.conftest import FAST_HNSW, make_clustered

NUM_SHARDS = 3
INDEX_PATH = "prod/remote"


@pytest.fixture(scope="module")
def config():
    return LannsConfig(
        num_shards=NUM_SHARDS,
        num_segments=2,
        segmenter="rh",
        hnsw=FAST_HNSW,
        segmenter_sample_size=600,
        seed=17,
    )


@pytest.fixture(scope="module")
def corpus():
    return make_clustered(600, 16, seed=21)


@pytest.fixture(scope="module")
def queries(corpus):
    rng = np.random.default_rng(22)
    rows = rng.integers(0, corpus.shape[0], size=24)
    noise = rng.normal(scale=0.2, size=(24, corpus.shape[1]))
    return (corpus[rows] + noise).astype(np.float32)


@pytest.fixture(scope="module")
def shared_fs(tmp_path_factory):
    return LocalHdfs(tmp_path_factory.mktemp("remote-hdfs"))


@pytest.fixture(scope="module")
def index(corpus, config, shared_fs):
    built = build_lanns_index(corpus, config=config)
    save_lanns_index(built, shared_fs, INDEX_PATH)
    return built


@pytest.fixture(scope="module")
def servers(shared_fs, index):
    """Three in-thread asyncio searcher servers over loopback."""
    fleet = [
        SearcherServer(
            SearcherNode(shard_id), root=str(shared_fs.root)
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


class TestRemoteParity:
    def test_remote_results_bit_identical_to_in_process(
        self, shared_fs, addresses, queries, index
    ):
        local = OnlineService()
        remote = OnlineService(searchers=addresses)
        try:
            local.deploy(shared_fs, INDEX_PATH, index_name="p")
            remote.deploy(shared_fs, INDEX_PATH, index_name="p")
            want_ids, want_dists = local.query_batch(
                queries, 10, index_name="p"
            )
            response = execute(remote, queries, 10, "p")
            np.testing.assert_array_equal(response.ids, want_ids)
            np.testing.assert_array_equal(response.dists, want_dists)
            assert (response.shards_answered == NUM_SHARDS).all()
            assert response.num_shards == NUM_SHARDS
            # Single-query path through the same wire.
            for row in range(5):
                w_ids, w_dists = local.query(
                    queries[row], 10, index_name="p"
                )
                r_ids, r_dists = remote.query(
                    queries[row], 10, index_name="p"
                )
                np.testing.assert_array_equal(r_ids, w_ids)
                np.testing.assert_array_equal(r_dists, w_dists)
            remote.undeploy("p")
        finally:
            local.close()
            remote.close()

    def test_microbatcher_and_cache_compose_with_remote_transport(
        self, shared_fs, addresses, queries, index
    ):
        """The admission layer + result cache, unchanged, in front
        of the remote fleet: concurrent singles stay bit-identical and
        repeats hit the cache."""
        local = OnlineService()
        remote = OnlineService(
            searchers=addresses,
            max_batch=8,
            max_wait_ms=5.0,
            cache_size=256,
        )
        try:
            local.deploy(shared_fs, INDEX_PATH, index_name="mb")
            remote.deploy(shared_fs, INDEX_PATH, index_name="mb")
            expected = [
                local.query(query, 8, index_name="mb") for query in queries
            ]
            errors: list[BaseException] = []

            def client(worker: int) -> None:
                try:
                    for _repeat in range(2):
                        for row in range(
                            worker, queries.shape[0], 6
                        ):
                            ids, dists = remote.query(
                                queries[row], 8, index_name="mb"
                            )
                            np.testing.assert_array_equal(
                                ids, expected[row][0]
                            )
                            np.testing.assert_array_equal(
                                dists, expected[row][1]
                            )
                except BaseException as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(worker,), daemon=True)
                for worker in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, f"concurrent remote client failed: {errors[0]}"
            stats = remote.brokers["mb"].stats()
            assert stats["cache"]["hits"] > 0
            assert stats["microbatch"]["rows_executed"] > 0
            remote.undeploy("mb")
        finally:
            local.close()
            remote.close()

    def test_remote_stats_rpc(self, shared_fs, addresses, index):
        remote = OnlineService(searchers=addresses)
        try:
            remote.deploy(shared_fs, INDEX_PATH, index_name="st")
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
        self, shared_fs, addresses, index
    ):
        fleet = [addresses[0], addresses[1], refused_address()]
        service = OnlineService(searchers=fleet, rpc_retries=0)
        try:
            with pytest.raises(ConnectionLostError, match="connect"):
                service.deploy(shared_fs, INDEX_PATH, index_name="cr")
        finally:
            service.close()
        # The two reachable searchers must not be left half-deployed.
        for address in addresses[:2]:
            client = RemoteSearcherClient(address)
            try:
                assert "cr" not in client.stats()["hosted_indices"]
            finally:
                client.close()

    @pytest.mark.parametrize("remote", [False, True], ids=["in-process", "loopback"])
    def test_failed_broker_step_leaves_nothing_hosted(
        self, monkeypatch, shared_fs, servers, addresses, queries, index, remote
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
                    service.deploy(shared_fs, INDEX_PATH, index_name="fb")
            nodes = [server.node for server in servers] if remote else service.searchers
            assert len(nodes) == NUM_SHARDS
            assert ["fb" in node.hosted_indices for node in nodes] == [False] * NUM_SHARDS
            assert service.deployed_indices == []
            with pytest.raises(KeyError):
                service.undeploy("fb")
            service.deploy(shared_fs, INDEX_PATH, index_name="fb")
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
    def test_a_bad_policy_fails_at_construction(self, addresses, config, bad, error):
        """Before any shard is hosted, not at the first ``deploy()``; an
        unknown keyword is a ``TypeError`` naming it."""
        (name,) = bad
        with pytest.raises(error, match=name):
            OnlineService(searchers=addresses, **bad)
        nodes = [SearcherNode(shard) for shard in range(NUM_SHARDS)]
        with pytest.raises(error, match=name):
            Broker(nodes, config, **bad)

    def test_degrade_policy_deploys_onto_surviving_fleet(
        self, shared_fs, addresses, queries, index
    ):
        """Under ``degrade``, a dead fleet member at deploy time is
        tolerated: the index deploys onto the survivors and serving
        returns annotated partial results immediately."""
        fleet = [addresses[0], addresses[1], refused_address()]
        service = OnlineService(
            searchers=fleet,
            partial_policy="degrade",
            request_timeout_s=5.0,
            rpc_retries=0,
        )
        try:
            service.deploy(shared_fs, INDEX_PATH, index_name="dd")
            probe = queries[:4]
            response = execute(service, probe, 10, "dd")
            got_ids, got_dists = response.ids, response.dists
            assert (response.shards_answered == NUM_SHARDS - 1).all()
            budget = service.brokers["dd"].per_shard_budget(10)
            parts = [
                index.shards[shard].search_batch(probe, budget)
                for shard in (0, 1)
            ]
            want_ids, want_dists = merge_shard_results_batch(parts, 10)
            np.testing.assert_array_equal(got_ids, want_ids)
            np.testing.assert_array_equal(got_dists, want_dists)
            service.undeploy("dd")
        finally:
            service.close()

    def test_wrong_shard_position_rejected_at_deploy(
        self, shared_fs, addresses, index
    ):
        # Shard 1's server listed at position 0: the ping handshake
        # must catch the mis-wiring before any deploy RPC.
        fleet = [addresses[1], addresses[0], addresses[2]]
        service = OnlineService(searchers=fleet)
        try:
            with pytest.raises(ValueError, match="serves shard"):
                service.deploy(shared_fs, INDEX_PATH, index_name="mw")
        finally:
            service.close()

    def test_unknown_index_fails_under_both_policies(
        self, config, addresses, servers, index
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
            broker = Broker(transports, config, partial_policy=policy)
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
        self, shared_fs, config, addresses, queries, servers, index
    ):
        """A live searcher that does not host the index (restarted, or
        missed a degraded deploy) must degrade, not poison every
        request: its rows are as gone as a dead shard's."""
        clients = [RemoteSearcherClient(address) for address in addresses]
        probe = queries[:4]
        try:
            # Host on shards 0 and 1 only; shard 2 is alive but empty.
            for client in clients[:2]:
                client.deploy("ph", INDEX_PATH, root=str(shared_fs.root))
            transports = [
                RemoteSearcherTransport(address, shard_id)
                for shard_id, address in enumerate(addresses)
            ]
            broker = Broker(
                transports, config, partial_policy="degrade"
            )
            try:
                response = execute(broker, probe, 10, "ph")
                ids, dists = response.ids, response.dists
                assert (response.shards_answered == 2).all()
                budget = broker.per_shard_budget(10)
                parts = [
                    index.shards[shard].search_batch(probe, budget)
                    for shard in (0, 1)
                ]
                want_ids, want_dists = merge_shard_results_batch(parts, 10)
                np.testing.assert_array_equal(ids, want_ids)
                np.testing.assert_array_equal(dists, want_dists)
            finally:
                broker.close()
                for transport in transports:
                    transport.close()
        finally:
            for client in clients[:2]:
                with contextlib.suppress(TransportError):
                    client.undeploy("ph")
            for client in clients:
                client.close()


class TestTimeouts:
    def test_timeout_degrades_with_annotation_and_fail_raises(
        self, shared_fs, config, queries, index, servers, addresses
    ):
        probe = queries[:6]
        with black_hole() as silent:
            live = [
                RemoteSearcherClient(address) for address in addresses[:2]
            ]
            try:
                for client in live:
                    client.deploy(
                        "tmo", INDEX_PATH, root=str(shared_fs.root)
                    )
                transports = [
                    RemoteSearcherTransport(addresses[0], 0),
                    RemoteSearcherTransport(addresses[1], 1),
                    RemoteSearcherTransport(silent, 2, retries=0),
                ]
                degrade = Broker(
                    transports,
                    config,
                    partial_policy="degrade",
                    request_timeout_s=0.5,
                )
                try:
                    response = execute(degrade, probe, 10, "tmo")
                    ids, dists = response.ids, response.dists
                    assert (response.shards_answered == 2).all()
                    budget = degrade.per_shard_budget(10)
                    parts = [
                        index.shards[shard].search_batch(probe, budget)
                        for shard in (0, 1)
                    ]
                    want_ids, want_dists = merge_shard_results_batch(
                        parts, 10
                    )
                    np.testing.assert_array_equal(ids, want_ids)
                    np.testing.assert_array_equal(dists, want_dists)
                    stats = degrade.stats()["partial"]
                    assert stats["degraded_batches"] >= 1
                    assert stats["shard_failures"][2] >= 1
                finally:
                    degrade.close()
                    for transport in transports:
                        transport.close()

                strict = Broker(
                    [
                        RemoteSearcherTransport(addresses[0], 0),
                        RemoteSearcherTransport(addresses[1], 1),
                        RemoteSearcherTransport(silent, 2, retries=0),
                    ],
                    config,
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
    def test_kill_one_of_three_processes_mid_flight(
        self, shared_fs, queries, index
    ):
        """Real subprocesses: SIGKILL one searcher between requests; the
        degrade policy answers from the survivors with annotation, the
        fail policy raises."""
        from repro.net.fleet import fleet_addresses, launch_fleet, shutdown_fleet

        fleet = launch_fleet(NUM_SHARDS, root=str(shared_fs.root))
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
            degrade.deploy(shared_fs, INDEX_PATH, index_name="kill")
            strict.deploy(shared_fs, INDEX_PATH, index_name="strictkill")
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
                index.shards[shard].search_batch(probe, budget)
                for shard in range(NUM_SHARDS)
                if shard != victim.shard_id
            ]
            want_ids, want_dists = merge_shard_results_batch(parts, 10)
            np.testing.assert_array_equal(got_ids, want_ids)
            np.testing.assert_array_equal(got_dists, want_dists)
            assert broker.stats()["partial"]["shard_failures"][1] >= 1

            with pytest.raises(TransportError):
                strict.query_batch(probe, 10, index_name="strictkill")
        finally:
            if degrade is not None:
                degrade.close()
            if strict is not None:
                strict.close()
            shutdown_fleet(fleet)
