"""Replicated, routed serving: pruned fan-out and replica kills.

This benchmark exercises the serving surface end to end: a
**segment-aligned** index build (shard ``s`` hosts exactly segment
``s``), the broker's :class:`~repro.online.router.Router` sending each
query only to the shard groups hosting the segments the segmenter
routes it to (the rule every shard runs), and replica groups fronting
real searcher subprocesses.

``routing`` -- the routed answers *are* the full answers: ids and
distances are bit-identical to a broker over the same fleet built
without the occupancy table (the unpruned fan-out an export without one
gets), while querying at most *half* the shard groups per query on
average, and per-query QPS is strictly higher (the whole point of
routing: less work per query).  Served through a real subprocess fleet,
one searcher per shard group: the win is pruned *fan-out* -- fewer RPCs
and fewer rows shipped per query -- which only costs something real over
a wire.  Under virtual spill a boundary query's width is bounded only by
the shard count; the expected width is ``(1 + 2 alpha) ** depth``, about
2.2 of 8 groups at the paper's alpha 0.15.

``failover`` -- a 2-replica group fleet of real searcher subprocesses
keeps serving with ZERO degraded rows and unchanged answers under the
strict ``fail`` policy while one replica of a group is SIGKILLed: its
sibling absorbs the traffic via the broker's failover.

That every path answers like ``LannsIndex.query_batch`` and asks exactly
the hosting groups is ``tests/test_path_matrix.py``.

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
from repro.online.broker import Broker
from repro.online.service import OnlineService
from repro.online.types import SearchRequest

#: Per-request fan-out deadline.
REQUEST_TIMEOUT_S = 30.0
# ``shards`` groups == ``segments`` (a power of two, segment-aligned).
# The failover phase serves the first ``failover_rows`` vectors from its
# own 2 x 2 index.
FULL = dict(
    num_base=12_000, num_queries=256, dim=32, shards=8, segments=8,
    top_k=10, ef=48, passes=5, kill_rounds=8, failover_rows=1500,
)
SIZES = {
    "full": FULL,
    "smoke": FULL
    | dict(
        num_base=2000, num_queries=48, shards=4, segments=4, passes=3,
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
        brokers = {}
        try:
            brokers["routed"] = service.deploy(fs, INDEX_PATH)
            # No occupancy table, no router: every group gets every row.
            brokers["full"] = Broker(
                service.searchers,
                config,
                name="full",
                request_timeout_s=REQUEST_TIMEOUT_S,
            )
            answers = {
                name: broker.execute(request(queries=queries))
                for name, broker in brokers.items()
            }
            # One query per request, so the fan-out width is exactly what
            # the router decides for that query.
            scores = interleaved(
                {
                    name: [
                        partial(
                            broker.execute,
                            request(queries=queries[row : row + 1]),
                        )
                        for row in range(len(queries))
                    ]
                    for name, broker in brokers.items()
                },
                run.passes,
            )
        finally:
            if "full" in brokers:
                brokers["full"].close()
            service.close()
    groups = {
        name: float(answer.shards_routed.mean()) for name, answer in answers.items()
    }
    report(
        "routed_serving",
        [
            {
                "mode": name,
                "groups/query": groups[name],
                "recall": recall_at_k(answers[name].ids, truth, run.top_k),
                "qps": summary(scores[name])["qps"],
            }
            for name in ("full", "routed")
        ],
        title=(
            f"Segment-routed fan-out vs all shards ({run.shards} shard "
            f"groups, recall@{run.top_k}; {run.num_base} x {run.dim}, "
            f"{len(queries)} queries)"
        ),
        payload={"smoke": run.smoke},
    )
    routed, full = answers["routed"], answers["full"]
    require(
        routed.ids.tobytes() == full.ids.tobytes()
        and routed.dists.tobytes() == full.dists.tobytes(),
        "routed answers differ from the full fan-out's",
    )
    require(
        groups["routed"] <= run.shards / 2,
        f"routing queried {groups['routed']:.2f} of {run.shards} shard "
        "groups per query on average, more than half",
    )
    require(
        not routed.degraded_rows,
        f"{routed.degraded_rows} routed rows degraded on a healthy fleet",
    )
    print(
        f"routing: answers bit-identical to the full fan-out while querying "
        f"{groups['routed']:.2f}/{run.shards} groups per query ✓"
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
                queries=queries[:32], top_k=run.top_k, ef=run.ef
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
            counts = service.brokers[INDEX_NAME].stats()["counts"]
        finally:
            service.close()
    require(
        degraded_rows == 0,
        f"{degraded_rows} degraded rows after killing one replica of a "
        "2-replica group: the sibling must absorb the load",
    )
    require(
        counts.get("failovers", 0) >= 1,
        "the broker never failed over to the sibling replica",
    )
    require(
        "degraded_batches" not in counts,
        "a replicated group must not degrade on a single kill",
    )
    print(
        f"failover: killed shard 0 replica 0; {run.kill_rounds} query rounds "
        f"with 0 degraded rows ({counts['failovers']} failovers) under the "
        "fail policy ✓"
    )


if __name__ == "__main__":
    sys.exit(main([check_routing, check_failover], SIZES, GATES))
