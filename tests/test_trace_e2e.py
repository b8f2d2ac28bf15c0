"""End-to-end tracing over real subprocess searchers (the PR's demo).

A routed + hedged remote request against a segment-aligned, quantized
index must come back with ONE trace whose span tree covers both sides
of the wire:

- broker side: ``cache`` -> ``queue_wait`` -> ``route`` -> ``fanout``
  (one ``shard_rpc`` per queried
  group, hedge attempts as ``attempt`` children with win/loss
  annotations) -> ``merge``;
- searcher side: ``decode`` -> ``descend`` -> ``beam`` -> ``rescore``
  -> spliced under the attempt that won, rebased onto the broker's
  clock.

The straggler is injected on shard 1 (a ``FaultPlan`` with
``delay_every=2``: every second SEARCH frame stalls), so the hedged request deterministically spawns a
hedge attempt; the winner is timing-dependent, so the assertions pin
the *structure* (a hedge child exists; exactly one attempt per group
wins) rather than who won.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.hnsw.params import HnswParams
from repro.net.chaos import FaultPlan
from repro.net.fleet import fleet_addresses, launch_fleet, shutdown_fleet
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import save_lanns_index
from tests.conftest import make_clustered

NUM_SHARDS = 2
INDEX_PATH = "prod/traced"
SLOW_SHARD = 1
SLOW_DELAY_S = 0.4


def _flatten(spans):
    for span in spans:
        yield span
        yield from _flatten(span.get("children", ()))


@pytest.fixture(scope="module")
def shared_fs(tmp_path_factory):
    return LocalHdfs(tmp_path_factory.mktemp("trace-hdfs"))


@pytest.fixture(scope="module")
def index(shared_fs):
    # Segment-aligned (router can prune fan-out) and int8-quantized (the
    # searcher runs a rescore stage, so the remote trace shows one).
    config = LannsConfig(
        num_shards=NUM_SHARDS,
        num_segments=NUM_SHARDS,
        sharding="segment",
        segmenter="rh",
        hnsw=HnswParams(
            M=8, ef_construction=48, ef_search=48, seed=0, quantize="int8"
        ),
        segmenter_sample_size=600,
        seed=33,
    )
    built = build_lanns_index(make_clustered(600, 16, seed=31), config=config)
    save_lanns_index(built, shared_fs, INDEX_PATH)
    return built


@pytest.fixture(scope="module")
def queries(index):
    rng = np.random.default_rng(34)
    return rng.normal(scale=3.0, size=(6, 16)).astype(np.float32)


class TestRemoteTraceEndToEnd:
    def test_routed_hedged_query_yields_one_cross_wire_trace(
        self, shared_fs, index, queries, tmp_path
    ):
        fleet = launch_fleet(
            NUM_SHARDS,
            root=str(shared_fs.root),
            chaos_shard=SLOW_SHARD,
            chaos=FaultPlan(delay_every=2, delay_s=SLOW_DELAY_S),
            log_dir=tmp_path,
        )
        service = None
        try:
            service = OnlineService(
                searchers=fleet_addresses(fleet),
                hedge_after_s=0.05,
                request_timeout_s=30.0,
                cache_size=64,
                trace_sample_rate=1.0,
                trace_seed=0,
            )
            service.deploy(shared_fs, INDEX_PATH, index_name="traced")

            # Admitted, fanned out and hedged: the paper's serving path,
            # traced.
            request = SearchRequest(queries=queries, top_k=5, index_name="traced")
            response = service.execute(request)
            trace = response.trace
            assert trace is not None
            assert trace["sampled"]

            top_level = [span["name"] for span in trace["spans"]]
            assert "cache" in top_level
            assert "queue_wait" in top_level
            assert "route" in top_level
            assert "fanout" in top_level
            assert "merge" in top_level
            assert top_level.index("fanout") < top_level.index("merge")

            spans = list(_flatten(trace["spans"]))
            rpcs = [s for s in spans if s["name"] == "shard_rpc"]
            assert {s["annotations"]["shard"] for s in rpcs} == {0, 1}

            # Hedge structure: the slow shard's RPC carries two attempt
            # children, exactly one of which won.
            slow_rpc = next(
                s for s in rpcs if s["annotations"]["shard"] == SLOW_SHARD
            )
            attempts = [
                c for c in slow_rpc["children"] if c["name"] == "attempt"
            ]
            assert len(attempts) == 2
            assert any(a["annotations"]["hedge"] for a in attempts)
            assert sum(a["annotations"]["win"] for a in attempts) == 1
            for rpc in rpcs:
                winners = [
                    c
                    for c in rpc["children"]
                    if c["name"] == "attempt" and c["annotations"]["win"]
                ]
                assert len(winners) == 1

            # Searcher-side spans crossed the wire and were rebased
            # under the winning attempt: the remote clock never runs
            # ahead of the attempt that carried it.
            for rpc in rpcs:
                winner = next(
                    c
                    for c in rpc["children"]
                    if c["name"] == "attempt" and c["annotations"]["win"]
                )
                remote_names = [
                    s["name"] for s in _flatten(winner["children"])
                ]
                for stage in ("decode", "descend", "beam", "rescore"):
                    assert stage in remote_names, (
                        f"shard {rpc['annotations']['shard']} winning "
                        f"attempt is missing remote span {stage!r}"
                    )
                for child in winner["children"]:
                    assert child["start_ms"] >= winner["start_ms"] - 1e-6

            # Search cost crossed the wire alongside the results.
            assert response.cost is not None
            assert response.cost["rescore_rows"] > 0
            assert response.cost["distance_comps"] > 0

            # The same rows again are cache hits: traced, never fanned out.
            cached = service.execute(request)
            assert cached.trace is not None
            assert cached.trace["trace_id"] != trace["trace_id"]
            names = [span["name"] for span in cached.trace["spans"]]
            assert "cache" in names
            assert "fanout" not in names

            tracer_stats = service.stats()["indices"]["traced"]["tracer"]
            assert tracer_stats["started"] == 2
            assert tracer_stats["kept"] == 2
        finally:
            if service is not None:
                service.close()
            shutdown_fleet(fleet)
