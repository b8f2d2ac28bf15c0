"""Chaos tests: seeded fault injection and recovery under real faults.

:class:`~repro.net.chaos.FaultPlan` is pinned as *deterministic* -- the
seed IS the schedule -- and then used against real in-thread searcher
servers to prove the recovery paths built in PRs 3-10 survive injected
faults rather than merely mocked ones:

- replica failover keeps answering when one replica resets every
  connection or sheds every request with ``OVERLOADED``;
- a broker facing a fully overloaded group honors the server's
  retry-after hint once before giving up with the structured error;
- a service over a replicated fleet whose every searcher injects resets
  and delays answers every query, as a calm one does, under the strict
  ``fail`` policy.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np
import pytest

from repro.errors import OverloadedError
from repro.net.chaos import FAULT_KINDS, FaultPlan
from repro.net.client import RemoteSearcherClient
from repro.net.protocol import ShardCall
from repro.net.server import SearcherServer
from repro.online.broker import Broker
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from tests.conftest import LANNS_2X2, LANNS_PATH

NUM_SHARDS = 2


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


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        rates = dict(
            delay_every=2, reset_rate=0.2, drop_rate=0.1, overload_rate=0.2
        )
        plan_a = FaultPlan(seed=7, **rates)
        plan_b = FaultPlan(seed=7, **rates)
        first = [plan_a.draw() for _ in range(200)]
        second = [plan_b.draw() for _ in range(200)]
        assert first == second

    def test_different_seed_different_schedule(self):
        rates = dict(delay_every=3, reset_rate=0.25, overload_rate=0.25)
        first = [FaultPlan(seed=1, **rates).draw() for _ in range(200)]
        second = [FaultPlan(seed=2, **rates).draw() for _ in range(200)]
        assert first != second

    def test_rates_respected_roughly(self):
        plan = FaultPlan(seed=3, reset_rate=1.0)
        assert all(plan.draw() == "reset" for _ in range(50))
        quiet = FaultPlan(seed=3)
        assert all(quiet.draw() is None for _ in range(50))

    def test_delay_is_periodic_where_no_random_fault_fires(self):
        """Frame ``n`` stalls iff ``(n - 1) % delay_every == 0`` and the
        draw picked no random kind; the draw is still one per frame, so a
        plan without ``delay`` keeps its random schedule bit for bit."""
        plan = FaultPlan(delay_every=3)
        assert [plan.draw() for _ in range(7)] == [
            "delay", None, None, "delay", None, None, "delay",
        ]
        rates = dict(seed=9, reset_rate=0.3, overload_rate=0.2)
        calm, delayed = FaultPlan(**rates), FaultPlan(delay_every=2, **rates)
        for frame in range(200):
            kind, with_delay = calm.draw(), delayed.draw()
            periodic = "delay" if frame % 2 == 0 else None
            assert with_delay == (kind if kind is not None else periodic)

    def test_the_server_counts_each_fault_by_kind(self, lanns_fs, queries):
        spec = "seed=5,delay_every=2,delay_s=0.001,overload_rate=0.5"
        plan = FaultPlan.parse(spec)
        drawn = [plan.draw() for _ in range(20)]
        server = start_server(lanns_fs, 0, chaos=spec)
        transport = connect(server.address, 0)
        try:
            transport.deploy("r", LANNS_PATH, root=str(lanns_fs.root))
            for _ in drawn:
                with contextlib.suppress(OverloadedError):
                    transport.search(ShardCall("r", queries[:1], 3))
            assert server.tally.snapshot()["faults"] == {
                kind: drawn.count(kind) for kind in FAULT_KINDS if kind in drawn
            }
        finally:
            transport.close()
            server.stop()

    def test_spec_round_trip(self):
        plan = FaultPlan(
            seed=42, delay_every=4, delay_s=0.02, reset_rate=0.15,
            overload_rate=0.05,
        )
        parsed = FaultPlan.parse(plan.spec())
        assert parsed.spec() == plan.spec()
        assert (parsed.seed, parsed.rates) == (plan.seed, plan.rates)
        assert (parsed.delay_every, parsed.delay_s) == (4, 0.02)
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
        with pytest.raises(ValueError, match="invalid chaos spec"):
            FaultPlan.parse("seed=1,delay_rate=0.2")  # a stall is periodic now

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError, match="must be in"):
            FaultPlan(reset_rate=1.5)
        with pytest.raises(ValueError, match="sum"):
            FaultPlan(reset_rate=0.6, drop_rate=0.6)
        with pytest.raises(ValueError, match="delay_s"):
            FaultPlan(delay_s=-1.0)
        with pytest.raises(ValueError, match="delay_every"):
            FaultPlan(delay_every=-1)


class TestChaosFailover:
    """That failed-over answers equal calm ones is the ``faults`` cells of
    ``tests/test_path_matrix.py``; here, that each fault kind fails over."""

    def run_against(
        self, chaotic_server, lanns_fs, queries
    ) -> tuple:
        """Serve through [chaotic, clean] x [clean] groups; return results
        and the broker stats."""
        clean_sibling = start_server(lanns_fs, 0)
        other = start_server(lanns_fs, 1)
        transports = []
        broker = None
        try:
            for server, shard_id in (
                (chaotic_server, 0), (clean_sibling, 0), (other, 1),
            ):
                transport = connect(server.address, shard_id)
                transport.verify()
                transport.deploy("r", LANNS_PATH, root=str(lanns_fs.root))
                transports.append(transport)
            broker = Broker(
                [[transports[0], transports[1]], [transports[2]]],
                LANNS_2X2,
                partial_policy="fail",
            )
            results = [
                broker.execute(SearchRequest(queries, 5, "r")) for _ in range(4)
            ]
            return results, broker.stats()
        finally:
            if broker is not None:
                broker.close()
            for transport in transports:
                transport.close()
            clean_sibling.stop()
            other.stop()

    def test_failover_covers_injected_resets(
        self, lanns_fs, queries
    ):
        chaotic = start_server(
            lanns_fs, 0, chaos=FaultPlan(seed=11, reset_rate=1.0)
        )
        try:
            results, stats = self.run_against(
                chaotic, lanns_fs, queries
            )
        finally:
            chaotic.stop()
        assert all((response.ids >= 0).all() for response in results)
        assert stats["counts"].get("failovers", 0) >= 1

    def test_failover_covers_injected_overload(
        self, lanns_fs, queries
    ):
        chaotic = start_server(
            lanns_fs, 0, chaos=FaultPlan(seed=11, overload_rate=1.0)
        )
        try:
            results, stats = self.run_against(
                chaotic, lanns_fs, queries
            )
        finally:
            chaotic.stop()
        assert all((response.ids >= 0).all() for response in results)
        assert stats["counts"].get("failovers", 0) >= 1

    def test_fully_overloaded_group_waits_retry_after_then_raises(
        self, lanns_fs, queries
    ):
        hint = 0.08
        chaotic = start_server(
            lanns_fs,
            0,
            chaos=FaultPlan(seed=11, overload_rate=1.0),
            retry_after_s=hint,
        )
        other = start_server(lanns_fs, 1)
        transports = []
        broker = None
        try:
            for server, shard_id in ((chaotic, 0), (other, 1)):
                transport = connect(server.address, shard_id)
                transport.verify()
                transport.deploy("r", LANNS_PATH, root=str(lanns_fs.root))
                transports.append(transport)
            broker = Broker(
                [[transports[0]], [transports[1]]],
                LANNS_2X2,
                partial_policy="fail",
            )
            tick = time.monotonic()
            with pytest.raises(OverloadedError):
                broker.execute(SearchRequest(queries, 5, "r"))
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


class TestChaosService:
    CHAOS = "seed={seed},delay_every=5,delay_s=0.02,reset_rate=0.15"

    def test_a_chaotic_replicated_fleet_answers_like_a_calm_one(
        self, lanns_fs, queries
    ):
        grid = [
            [
                start_server(
                    lanns_fs,
                    shard,
                    chaos=FaultPlan.parse(
                        self.CHAOS.format(seed=17 + shard * 2 + replica)
                    ),
                )
                for replica in range(2)
            ]
            for shard in range(NUM_SHARDS)
        ]
        calm = OnlineService()
        chaotic = OnlineService(
            searchers=[[server.address for server in group] for group in grid],
            partial_policy="fail",
            request_timeout_s=30.0,
        )
        request = SearchRequest(queries=queries, top_k=5, index_name="default")
        try:
            calm.deploy(lanns_fs, LANNS_PATH)
            chaotic.deploy(lanns_fs, LANNS_PATH)
            want = calm.execute(request)
            for _ in range(12):
                response = chaotic.execute(request)
                assert response.fully_answered
                np.testing.assert_array_equal(response.ids, want.ids)
                np.testing.assert_array_equal(response.dists, want.dists)
        finally:
            calm.close()
            chaotic.close()
            for group in grid:
                for server in group:
                    server.stop()
        faults = sum(
            sum(server.tally.snapshot().get("faults", {}).values())
            for group in grid
            for server in group
        )
        assert faults > 0, "no chaos plan fired"
