"""Chaos tests: seeded fault injection and recovery under real faults.

:class:`~repro.net.chaos.FaultPlan` is pinned as *deterministic* -- the
seed IS the schedule -- and then used against real in-thread searcher
servers to prove the recovery paths built in PRs 3-10 survive injected
faults rather than merely mocked ones:

- replica failover keeps answering (bit-identically) when one replica
  resets every connection or sheds every request with ``OVERLOADED``;
- a broker facing a fully overloaded group honors the server's
  retry-after hint once before giving up with the structured error;
- a rolling restart under a background of injected resets and delays
  still drops zero queries under the strict ``fail`` policy.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.errors import OverloadedError
from repro.net.chaos import FAULT_KINDS, FaultPlan
from repro.net.server import SearcherServer
from repro.net.transport import RemoteSearcherTransport
from repro.online.broker import Broker
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import save_lanns_index
from tests.conftest import FAST_HNSW, make_clustered

NUM_SHARDS = 2
INDEX_PATH = "prod/chaotic"


@pytest.fixture(scope="module")
def config():
    return LannsConfig(
        num_shards=NUM_SHARDS,
        num_segments=2,
        segmenter="rh",
        hnsw=FAST_HNSW,
        segmenter_sample_size=400,
        seed=13,
    )


@pytest.fixture(scope="module")
def corpus():
    return make_clustered(500, 16, seed=41)


@pytest.fixture(scope="module")
def queries(corpus):
    rng = np.random.default_rng(42)
    rows = rng.integers(0, corpus.shape[0], size=16)
    noise = rng.normal(scale=0.2, size=(16, corpus.shape[1]))
    return (corpus[rows] + noise).astype(np.float32)


@pytest.fixture(scope="module")
def shared_fs(tmp_path_factory):
    return LocalHdfs(tmp_path_factory.mktemp("chaos-hdfs"))


@pytest.fixture(scope="module")
def index(corpus, config, shared_fs):
    built = build_lanns_index(corpus, config=config)
    save_lanns_index(built, shared_fs, INDEX_PATH)
    return built


def start_server(shared_fs, shard_id: int, *, port: int = 0, **kwargs):
    return SearcherServer(
        SearcherNode(shard_id),
        port=port,
        root=str(shared_fs.root),
        **kwargs,
    ).start_in_thread()


def connect(address: str, shard_id: int) -> RemoteSearcherTransport:
    return RemoteSearcherTransport(
        address, shard_id, timeout_s=10.0, retries=0, pool_size=1
    )


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        rates = dict(
            delay_rate=0.2, reset_rate=0.2, drop_rate=0.1, overload_rate=0.2
        )
        plan_a = FaultPlan(seed=7, **rates)
        plan_b = FaultPlan(seed=7, **rates)
        first = [plan_a.draw() for _ in range(200)]
        second = [plan_b.draw() for _ in range(200)]
        assert first == second
        assert plan_a.snapshot() == plan_b.snapshot()

    def test_different_seed_different_schedule(self):
        rates = dict(delay_rate=0.25, reset_rate=0.25, overload_rate=0.25)
        first = [FaultPlan(seed=1, **rates).draw() for _ in range(200)]
        second = [FaultPlan(seed=2, **rates).draw() for _ in range(200)]
        assert first != second

    def test_rates_respected_roughly(self):
        plan = FaultPlan(seed=3, reset_rate=1.0)
        assert all(plan.draw() == "reset" for _ in range(50))
        quiet = FaultPlan(seed=3)
        assert all(quiet.draw() is None for _ in range(50))

    def test_snapshot_counts_by_kind(self):
        plan = FaultPlan(seed=5, delay_rate=0.5, overload_rate=0.5)
        drawn = [plan.draw() for _ in range(100)]
        snapshot = plan.snapshot()
        assert snapshot["decisions"] == 100
        for kind in FAULT_KINDS:
            assert snapshot["injected"][kind] == drawn.count(kind)

    def test_spec_round_trip(self):
        plan = FaultPlan(
            seed=42, delay_rate=0.1, delay_s=0.02, reset_rate=0.15,
            overload_rate=0.05,
        )
        parsed = FaultPlan.parse(plan.spec())
        assert parsed.seed == plan.seed
        assert parsed.rates == plan.rates
        assert parsed.delay_s == plan.delay_s
        assert [parsed.draw() for _ in range(50)] == [
            plan.draw() for _ in range(50)
        ]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.parse("seed")
        with pytest.raises(ValueError, match="unknown chaos spec key"):
            FaultPlan.parse("seed=1,banana=2")
        with pytest.raises(ValueError, match="invalid chaos spec"):
            FaultPlan.parse("bogus_rate=0.1")

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError, match="must be in"):
            FaultPlan(reset_rate=1.5)
        with pytest.raises(ValueError, match="sum"):
            FaultPlan(reset_rate=0.6, drop_rate=0.6)
        with pytest.raises(ValueError, match="delay_s"):
            FaultPlan(delay_s=-1.0)


class TestChaosFailover:
    def expected(self, config, shared_fs, queries):
        clean = OnlineService()
        try:
            clean.deploy(shared_fs, INDEX_PATH, index_name="r")
            return clean.query_batch(queries, 5, index_name="r")
        finally:
            clean.close()

    def run_against(
        self, chaotic_server, shared_fs, config, queries, index
    ) -> tuple:
        """Serve through [chaotic, clean] x [clean] groups; return results
        and the broker stats."""
        clean_sibling = start_server(shared_fs, 0)
        other = start_server(shared_fs, 1)
        transports = []
        broker = None
        try:
            for server, shard_id in (
                (chaotic_server, 0), (clean_sibling, 0), (other, 1),
            ):
                transport = connect(server.address, shard_id)
                transport.verify()
                transport.deploy("r", INDEX_PATH, root=str(shared_fs.root))
                transports.append(transport)
            broker = Broker(
                [[transports[0], transports[1]], [transports[2]]],
                config,
                partial_policy="fail",
            )
            results = [broker.search_batch("r", queries, 5) for _ in range(4)]
            return results, broker.stats()
        finally:
            if broker is not None:
                broker.close()
            for transport in transports:
                transport.close()
            clean_sibling.stop()
            other.stop()

    def test_failover_covers_injected_resets(
        self, shared_fs, config, queries, index
    ):
        chaotic = start_server(
            shared_fs, 0, chaos=FaultPlan(seed=11, reset_rate=1.0)
        )
        try:
            results, stats = self.run_against(
                chaotic, shared_fs, config, queries, index
            )
        finally:
            chaotic.stop()
        want_ids, want_dists = self.expected(config, shared_fs, queries)
        for ids, dists in results:
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(dists, want_dists)
        assert stats["failovers"] >= 1

    def test_failover_covers_injected_overload(
        self, shared_fs, config, queries, index
    ):
        chaotic = start_server(
            shared_fs, 0, chaos=FaultPlan(seed=11, overload_rate=1.0)
        )
        try:
            results, stats = self.run_against(
                chaotic, shared_fs, config, queries, index
            )
        finally:
            chaotic.stop()
        want_ids, want_dists = self.expected(config, shared_fs, queries)
        for ids, dists in results:
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(dists, want_dists)
        assert stats["failovers"] >= 1

    def test_fully_overloaded_group_waits_retry_after_then_raises(
        self, shared_fs, config, queries, index
    ):
        hint = 0.08
        chaotic = start_server(
            shared_fs,
            0,
            chaos=FaultPlan(seed=11, overload_rate=1.0),
            retry_after_s=hint,
        )
        other = start_server(shared_fs, 1)
        transports = []
        broker = None
        try:
            for server, shard_id in ((chaotic, 0), (other, 1)):
                transport = connect(server.address, shard_id)
                transport.verify()
                transport.deploy("r", INDEX_PATH, root=str(shared_fs.root))
                transports.append(transport)
            broker = Broker(
                [[transports[0]], [transports[1]]],
                config,
                partial_policy="fail",
            )
            tick = time.monotonic()
            with pytest.raises(OverloadedError):
                broker.search_batch("r", queries, 5)
            elapsed = time.monotonic() - tick
            # One honored retry-after pause, then the structured error
            # (not a timeout) -- the group re-shed on the second lap.
            assert elapsed >= hint
        finally:
            if broker is not None:
                broker.close()
            for transport in transports:
                transport.close()
            chaotic.stop()
            other.stop()


class TestRollingRestartUnderChaos:
    CHAOS = "seed={seed},delay_rate=0.2,delay_s=0.02,reset_rate=0.15"

    @pytest.fixture()
    def grid(self, shared_fs, index):
        """Two replica groups of two chaotic in-thread servers each."""
        servers = [
            [
                start_server(
                    shared_fs,
                    shard,
                    chaos=FaultPlan.parse(
                        self.CHAOS.format(seed=17 + shard * 2 + replica)
                    ),
                )
                for replica in range(2)
            ]
            for shard in range(NUM_SHARDS)
        ]
        yield servers
        for group in servers:
            for server in group:
                server.stop()

    @pytest.fixture()
    def service(self, grid, shared_fs):
        service = OnlineService(
            searchers=[
                [server.address for server in group] for group in grid
            ],
            partial_policy="fail",
            request_timeout_s=30.0,
        )
        service.deploy(shared_fs, INDEX_PATH)
        yield service
        service.close()

    def test_restart_drops_zero_queries_despite_faults(
        self, grid, service, shared_fs, queries
    ):
        stop = threading.Event()
        errors: list[BaseException] = []
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
                assert response.fully_answered
                served[0] += 1

        restarted: list[tuple[int, int]] = []

        def restart(shard_id: int, replica_id: int) -> None:
            old = grid[shard_id][replica_id]
            old.stop()
            # The replacement comes back clean: a restart is how an
            # operator *removes* a faulty process from the fleet.
            grid[shard_id][replica_id] = start_server(
                shared_fs, shard_id, port=old.port
            )
            restarted.append((shard_id, replica_id))

        thread = threading.Thread(target=client)
        thread.start()
        try:
            service.rolling_restart(0, restart)
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not errors, (
            f"queries failed during chaotic restart: {errors[:1]!r}"
        )
        assert served[0] > 0
        assert restarted == [(0, 0), (0, 1)]

        def faults_injected() -> int:
            return sum(
                sum(server.chaos.snapshot()["injected"].values())
                for server in (grid[1][0], grid[1][1])
            )

        # Group 1 keeps its chaos plans (only group 0 was restarted):
        # keep traffic flowing until faults demonstrably fire and are
        # absorbed.  A short restart may have seen only lucky draws, so
        # the bound is on draws, not wall time -- at a 35% fault rate,
        # 200 clean draws has probability ~1e-37.
        for _ in range(200):
            if faults_injected() > 0:
                break
            response = service.execute(
                SearchRequest(queries=queries, top_k=5, index_name="default")
            )
            assert response.fully_answered
        assert faults_injected() > 0, (
            "chaos plans on the surviving group never fired"
        )
