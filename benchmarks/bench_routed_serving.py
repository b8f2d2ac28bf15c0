"""Replicated, routed serving: spilled fan-out and replica kills.

This benchmark exercises the PR-6 serving surface end to end: a
**segment-aligned** index build (shard ``s`` hosts exactly segment
``s``), the broker's :class:`~repro.online.router.Router` mapping each
query to its top-``spill`` segments, and replica groups fronting real
searcher subprocesses.

``routing`` -- queries served with ``spill`` segments reach at least 95%
of the all-shards recall@k while querying at most *half* the shard
groups, and per-query QPS is strictly higher than the all-shards
fan-out (the whole point of routing: less work per query).  Served
through a real subprocess fleet, one searcher per shard group: the win
is pruned *fan-out* -- fewer RPCs and fewer rows shipped per query --
which only costs something real over a wire.

``failover`` -- a 2-replica group fleet of real searcher subprocesses
keeps serving with ZERO degraded rows and unchanged answers under the
strict ``fail`` policy while one replica of a group is SIGKILLed: its
sibling absorbs the traffic via the broker's failover.

That ``spill="all"`` is bit-identical to the pre-router path (manual
per-shard search + level-2 merge) and to the ``query_batch`` wrapper is
``tests/test_router.py::test_spill_all_bit_identical_to_manual_merge``
and ``::test_legacy_shim_matches_execute``.

    PYTHONPATH=src python benchmarks/bench_routed_serving.py [--smoke]
"""

from __future__ import annotations

import sys
from functools import partial

from harness import (
    INDEX_NAME,
    INDEX_PATH,
    Gate,
    corpus,
    exported,
    fleet,
    interleaved,
    main,
    report,
    require,
    speedup,
    summary,
)
from repro.core.builder import build_lanns_index
from repro.offline.brute_force import exact_top_k
from repro.offline.recall import recall_at_k
from repro.online.service import OnlineService
from repro.online.types import SearchRequest

#: Per-request fan-out deadline.
REQUEST_TIMEOUT_S = 30.0
#: Routed recall@k over all-shards recall@k.
MIN_RECALL_RATIO = 0.95
# ``shards`` groups == ``segments`` (a power of two, segment-aligned) and
# ``spill`` <= shards / 2 segments routed per query.  The failover phase
# serves the first ``failover_rows`` vectors from its own 2 x 2 index.
FULL = dict(
    num_base=12_000, num_queries=256, dim=32, shards=8, segments=8, spill=3,
    top_k=10, ef=48, passes=5, kill_rounds=8, failover_rows=1500,
)
SIZES = {
    "full": FULL,
    "smoke": FULL
    | dict(
        num_base=2000, num_queries=48, shards=4, segments=4, spill=2, passes=3,
        kill_rounds=4,
    ),
}
GATES = {"routed_over_full": Gate(full=1.0, smoke=1.0, strict=True)}


def check_routing(run, _env) -> None:
    vectors, queries, config = corpus(run, sharding="segment")
    truth, _ = exact_top_k(vectors, queries, run.top_k)
    request = partial(SearchRequest, top_k=run.top_k, ef=run.ef)
    with exported(build_lanns_index(vectors, config=config)) as fs, fleet(
        fs, run.shards
    ) as (_, addresses):
        service = OnlineService(
            searchers=addresses, request_timeout_s=REQUEST_TIMEOUT_S
        )
        try:
            service.deploy(fs, INDEX_PATH)
            full = service.execute(request(queries=queries))
            routed = service.execute(request(queries=queries, spill=run.spill))
            # One query per request, so the fan-out width is exactly what
            # the router decides: ``spill`` shard-group RPCs routed versus
            # one RPC per group unrouted.
            scores = interleaved(
                {
                    name: [
                        partial(
                            service.execute,
                            request(queries=queries[row : row + 1], spill=spill),
                        )
                        for row in range(len(queries))
                    ]
                    for name, spill in (("full", None), ("routed", run.spill))
                },
                run.passes,
            )
        finally:
            service.close()
    recall = {
        "full": recall_at_k(full.ids, truth, run.top_k),
        "routed": recall_at_k(routed.ids, truth, run.top_k),
    }
    groups = {"full": float(run.shards), "routed": float(routed.shards_routed.mean())}
    report(
        "routed_serving",
        [
            {
                "mode": name,
                "groups/query": groups[name],
                "recall": recall[name],
                "qps": summary(scores[name])["qps"],
            }
            for name in ("full", "routed")
        ],
        title=(
            f"Segment-routed fan-out (spill={run.spill}) vs all shards "
            f"({run.shards} shard groups, recall@{run.top_k}; {run.num_base} "
            f"x {run.dim}, {len(queries)} queries)"
        ),
        payload={
            "smoke": run.smoke,
            "route_ms": routed.timings.get("route_ms", 0.0),
        },
    )
    require(
        (routed.shards_routed <= run.shards / 2).all(),
        f"routing with spill={run.spill} queried more than half of the "
        f"{run.shards} shard groups for some query",
    )
    require(
        not routed.degraded_rows,
        f"{routed.degraded_rows} routed rows degraded on a healthy fleet",
    )
    require(
        recall["routed"] >= MIN_RECALL_RATIO * recall["full"],
        f"routed recall@{run.top_k} {recall['routed']:.4f} is below "
        f"{MIN_RECALL_RATIO:.0%} of the all-shards recall {recall['full']:.4f}",
    )
    print(
        f"routing: recall ratio {recall['routed'] / recall['full']:.3f} >= "
        f"{MIN_RECALL_RATIO} while querying {groups['routed']:.1f}/"
        f"{run.shards} groups ✓"
    )
    run.gate("routed_over_full", speedup(scores, "routed", over="full"))


def check_failover(run, _env) -> None:
    """SIGKILL one replica of a group: zero degraded rows under `fail`."""
    vectors, queries, config = corpus(run, num_shards=2, num_segments=2)
    index = build_lanns_index(vectors[: run.failover_rows], config=config)
    with exported(index) as fs, fleet(fs, 2, replicas=2) as (groups, addresses):
        service = OnlineService(
            searchers=addresses,
            partial_policy="fail",
            request_timeout_s=REQUEST_TIMEOUT_S,
            rpc_retries=0,
        )
        try:
            service.deploy(fs, INDEX_PATH)
            request = SearchRequest(
                queries=queries[:32], top_k=run.top_k, ef=run.ef,
                deadline_s=REQUEST_TIMEOUT_S,
            )
            healthy = service.execute(request)
            require(healthy.fully_answered, "healthy replicated fleet degraded")
            # Kill the replica the ledger will pick NEXT: replica 0 of each
            # group served the healthy round (id tie-break among fresh
            # replicas) and keeps winning ties -- its cold sibling ranks at
            # the group's median EWMA, not ahead of it -- so the first
            # post-kill request MUST hit the corpse and fail over to the
            # sibling.
            groups[0][0].kill()
            degraded_rows = 0
            for _ in range(run.kill_rounds):
                response = service.execute(request)
                degraded_rows += response.degraded_rows
                require(
                    (response.ids == healthy.ids).all()
                    and (response.dists == healthy.dists).all(),
                    "failover answers differ from the healthy fleet's",
                )
            stats = service.brokers[INDEX_NAME].stats()
        finally:
            service.close()
    require(
        degraded_rows == 0,
        f"{degraded_rows} degraded rows after killing one replica of a "
        "2-replica group: the sibling must absorb the load",
    )
    require(
        stats["failovers"] >= 1,
        "the broker never failed over to the sibling replica",
    )
    require(
        stats["partial"]["degraded_batches"] == 0,
        "a replicated group must not degrade on a single kill",
    )
    print(
        f"failover: killed shard 0 replica 0; {run.kill_rounds} query rounds "
        f"with 0 degraded rows ({stats['failovers']} failovers) under the "
        "fail policy ✓"
    )


if __name__ == "__main__":
    sys.exit(main([check_routing, check_failover], SIZES, GATES))
