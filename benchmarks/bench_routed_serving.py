"""Replicated, routed serving: spilled fan-out, parity, replica kills.

This benchmark exercises the PR-6 serving surface end to end: a
**segment-aligned** index build (shard ``s`` hosts exactly segment
``s``), the broker's :class:`~repro.online.router.Router` mapping each
query to its top-``spill`` segments, and replica groups fronting real
searcher subprocesses.  Three phases, each with in-run assertions:

1. **Routed fan-out** -- queries served with ``spill`` segments reach at
   least 95% of the all-shards recall@k while querying at most *half*
   the shard groups, and batched QPS is strictly higher than the
   all-shards fan-out (the whole point of routing: less work per query);
2. **``spill="all"`` parity** -- the structured API with full spill is
   bit-identical to the pre-router broker path (manual per-shard search
   + level-2 merge) and to the ``query_batch`` array wrapper;
3. **Replica failover** -- a 2-replica group fleet of real searcher
   subprocesses keeps serving with ZERO degraded rows under the strict
   ``fail`` policy while one replica of a group is SIGKILLed: its
   sibling absorbs the traffic via the broker's failover.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_routed_serving.py
    PYTHONPATH=src python benchmarks/bench_routed_serving.py --smoke

``--smoke`` shrinks the corpus and fleet so the whole run fits CI; every
correctness assertion still runs -- recall ratio, parity, and the
zero-drop kill are the point, not the QPS figures.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.core.merge import merge_shard_results_batch
from repro.data.synthetic import clustered_gaussians, make_queries
from repro.eval.tables import format_table
from repro.hnsw.params import HnswParams
from repro.net.fleet import (
    fleet_addresses,
    launch_fleet,
    launch_replicated_fleet,
    replicated_fleet_addresses,
    shutdown_fleet,
    shutdown_replicated_fleet,
)
from repro.offline.brute_force import exact_top_k
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import save_lanns_index

RESULTS_DIR = Path(__file__).parent / "results"
INDEX_PATH = "bench/routed"
FAILOVER_INDEX_PATH = "bench/routed-failover"
#: Shard count of the (separate, small) replica-failover index.
FAILOVER_SHARDS = 2


def export_index(args: argparse.Namespace, fs: LocalHdfs):
    """Build and persist the segment-aligned index the router needs."""
    base = clustered_gaussians(args.num_base, args.dim, seed=args.seed)
    queries = make_queries(base, args.num_queries, seed=args.seed + 1)
    config = LannsConfig(
        num_shards=args.shards,
        num_segments=args.shards,
        sharding="segment",
        segmenter="rh",
        hnsw=HnswParams(
            M=12, ef_construction=56, ef_search=args.ef, seed=args.seed
        ),
        segmenter_sample_size=min(2000, args.num_base),
        seed=args.seed,
    )
    index = build_lanns_index(base, config=config)
    save_lanns_index(index, fs, INDEX_PATH)
    return config, index, base, queries


def recall_against(truth: np.ndarray, ids: np.ndarray) -> float:
    hits = sum(
        len(set(row_ids[row_ids >= 0]) & set(row_truth))
        for row_ids, row_truth in zip(ids, truth)
    )
    return hits / truth.size


def measure_qps(
    service: OnlineService,
    queries: np.ndarray,
    top_k: int,
    ef: int,
    spill,
    iterations: int,
) -> float:
    """Sequential per-query serving rate through the remote fleet.

    One query per request, so the fan-out width is exactly what the
    router decides: ``spill`` shard-group RPCs routed versus one RPC per
    group unrouted.  That is the quantity routing shrinks -- batched
    requests would still touch every group once the batch spans all
    segments.
    """
    requests = [
        SearchRequest(
            queries=queries[row : row + 1], top_k=top_k,
            index_name="default", ef=ef, spill=spill,
        )
        for row in range(queries.shape[0])
    ]
    for request in requests[: min(8, len(requests))]:
        service.execute(request)  # warm-up (connections, touched segments)
    tick = time.perf_counter()
    for _ in range(iterations):
        for request in requests:
            service.execute(request)
    elapsed = time.perf_counter() - tick
    return iterations * queries.shape[0] / elapsed


def check_routing(
    args: argparse.Namespace,
    fs: LocalHdfs,
    base: np.ndarray,
    queries: np.ndarray,
) -> dict:
    """Spill-routed serving: recall within 95%, fewer groups, more QPS.

    Served through a real subprocess fleet (one searcher per shard
    group): routing's throughput win is pruned *fan-out* -- fewer RPCs
    and fewer rows shipped per query -- which only costs something real
    over a wire.
    """
    truth, _ = exact_top_k(base, queries, args.top_k)
    fleet = launch_fleet(args.shards, root=str(fs.root))
    service = OnlineService(
        searchers=fleet_addresses(fleet),
        request_timeout_s=args.request_timeout_s,
    )
    try:
        service.deploy(fs, INDEX_PATH, index_name="default")
        full = service.execute(
            SearchRequest(
                queries=queries, top_k=args.top_k, index_name="default",
                ef=args.ef,
            )
        )
        routed = service.execute(
            SearchRequest(
                queries=queries, top_k=args.top_k, index_name="default",
                ef=args.ef, spill=args.spill,
            )
        )
        recall_full = recall_against(truth, full.ids)
        recall_routed = recall_against(truth, routed.ids)
        groups_per_query = float(np.mean(routed.shards_routed))
        if not (routed.shards_routed <= args.shards / 2).all():
            raise AssertionError(
                f"routing with spill={args.spill} queried more than half "
                f"of the {args.shards} shard groups for some query"
            )
        if routed.degraded_rows:
            raise AssertionError(
                f"{routed.degraded_rows} routed rows degraded on a "
                "healthy in-process fleet"
            )
        ratio = recall_routed / recall_full if recall_full else 1.0
        if ratio < 0.95:
            raise AssertionError(
                f"routed recall@{args.top_k} {recall_routed:.4f} is below "
                f"95% of the all-shards recall {recall_full:.4f} "
                f"(ratio {ratio:.3f})"
            )
        qps_full = measure_qps(
            service, queries, args.top_k, args.ef, None, args.iterations
        )
        qps_routed = measure_qps(
            service, queries, args.top_k, args.ef, args.spill,
            args.iterations,
        )
        if not qps_routed > qps_full:
            raise AssertionError(
                f"routed QPS {qps_routed:.0f} is not above all-shards QPS "
                f"{qps_full:.0f} despite querying "
                f"{groups_per_query:.1f}/{args.shards} groups"
            )
        return {
            "recall_full": recall_full,
            "recall_routed": recall_routed,
            "recall_ratio": ratio,
            "groups_per_query": groups_per_query,
            "qps_full": qps_full,
            "qps_routed": qps_routed,
            "route_ms": routed.timings.get("route_ms", 0.0),
        }
    finally:
        service.close()
        shutdown_fleet(fleet)


def check_spill_all_parity(
    args: argparse.Namespace, fs: LocalHdfs, index, queries: np.ndarray
) -> None:
    """``spill="all"`` must be bit-identical to the pre-router path."""
    service = OnlineService()
    try:
        broker = service.deploy(fs, INDEX_PATH, index_name="default")
        budget = broker.per_shard_budget(args.top_k)
        parts = [
            shard.search_batch(queries, budget, ef=args.ef)
            for shard in index.shards
        ]
        want_ids, want_dists = merge_shard_results_batch(parts, args.top_k)
        for spill in (None, "all"):
            response = service.execute(
                SearchRequest(
                    queries=queries, top_k=args.top_k, index_name="default",
                    ef=args.ef, spill=spill,
                )
            )
            if not (
                (response.ids == want_ids).all()
                and (response.dists == want_dists).all()
            ):
                raise AssertionError(
                    f"spill={spill!r} results differ from the manual "
                    "per-shard search + merge (the pre-router path)"
                )
        legacy_ids, legacy_dists = service.query_batch(
            queries, args.top_k, ef=args.ef
        )
        if not (
            (legacy_ids == want_ids).all()
            and (legacy_dists == want_dists).all()
        ):
            raise AssertionError(
                "the query_batch wrapper drifted from execute()"
            )
    finally:
        service.close()


def check_replica_failover(
    args: argparse.Namespace, workdir: str, fs: LocalHdfs
) -> dict:
    """SIGKILL one replica of a group: zero degraded rows under `fail`."""
    base = clustered_gaussians(
        min(args.num_base, 1500), args.dim, seed=args.seed + 7
    )
    queries = make_queries(base, min(args.num_queries, 32), seed=args.seed + 8)
    config = LannsConfig(
        num_shards=FAILOVER_SHARDS,
        num_segments=2,
        segmenter="rh",
        hnsw=HnswParams(
            M=12, ef_construction=56, ef_search=args.ef, seed=args.seed
        ),
        segmenter_sample_size=min(1000, base.shape[0]),
        seed=args.seed,
    )
    index = build_lanns_index(base, config=config)
    save_lanns_index(index, fs, FAILOVER_INDEX_PATH)
    groups = launch_replicated_fleet(FAILOVER_SHARDS, 2, root=workdir)
    service = OnlineService(
        searchers=replicated_fleet_addresses(groups),
        partial_policy="fail",
        request_timeout_s=args.request_timeout_s,
        rpc_retries=0,
    )
    try:
        service.deploy(fs, FAILOVER_INDEX_PATH, index_name="default")
        request = SearchRequest(
            queries=queries, top_k=args.top_k, index_name="default",
            ef=args.ef, deadline_s=args.request_timeout_s,
        )
        healthy = service.execute(request)
        if not healthy.fully_answered:
            raise AssertionError("healthy replicated fleet degraded")

        # Kill the replica the ledger will pick NEXT: replica 0 of each
        # group served the healthy round (id tie-break among fresh
        # replicas) and keeps winning ties -- its cold sibling ranks at
        # the group's median EWMA, not ahead of it -- so the first
        # post-kill request MUST hit the corpse and fail over to the
        # sibling.
        victim = groups[0][0]
        victim.kill()
        degraded_rows = 0
        for _round in range(args.kill_rounds):
            response = service.execute(request)
            degraded_rows += response.degraded_rows
            if not (
                (response.ids == healthy.ids).all()
                and (response.dists == healthy.dists).all()
            ):
                raise AssertionError(
                    "failover answers differ from the healthy fleet's"
                )
        if degraded_rows:
            raise AssertionError(
                f"{degraded_rows} degraded rows after killing one replica "
                "of a 2-replica group: the sibling must absorb the load"
            )
        stats = service.brokers["default"].stats()
        if stats["failovers"] < 1:
            raise AssertionError(
                "the broker never failed over to the sibling replica"
            )
        if stats["partial"]["degraded_batches"] != 0:
            raise AssertionError(
                "a replicated group must not degrade on a single kill"
            )
        return {
            "killed": f"shard {victim.shard_id} replica 0",
            "rounds": args.kill_rounds,
            "degraded_rows": degraded_rows,
            "failovers": stats["failovers"],
        }
    finally:
        service.close()
        shutdown_replicated_fleet(groups)


def run(args: argparse.Namespace) -> int:
    workdir = tempfile.mkdtemp(prefix="lanns-routed-bench-")
    try:
        fs = LocalHdfs(workdir)
        config, index, base, queries = export_index(args, fs)
        print(
            f"corpus: {args.num_base} x {args.dim}, {args.shards} "
            f"segment-aligned shard group(s), {queries.shape[0]} queries, "
            f"top_k={args.top_k}, ef={args.ef}, spill={args.spill}"
        )

        routing = check_routing(args, fs, base, queries)
        rows = [
            {
                "mode": f"all shards ({args.shards} groups/query)",
                "recall": f"{routing['recall_full']:.4f}",
                "qps": routing["qps_full"],
            },
            {
                "mode": (
                    f"routed spill={args.spill} "
                    f"({routing['groups_per_query']:.1f} groups/query)"
                ),
                "recall": f"{routing['recall_routed']:.4f}",
                "qps": routing["qps_routed"],
            },
        ]
        text = format_table(
            rows,
            title=(
                "Segment-routed fan-out vs all-shards "
                f"({args.shards} shard groups, recall@{args.top_k})"
            ),
        )
        print("\n" + text + "\n")
        print(
            f"routing: recall ratio {routing['recall_ratio']:.3f} >= 0.95 "
            f"while querying {routing['groups_per_query']:.1f}/"
            f"{args.shards} groups with higher QPS ✓"
        )

        check_spill_all_parity(args, fs, index, queries)
        print(
            'parity: spill="all" and spill=None bit-identical to the '
            "manual per-shard merge and the deprecated shim ✓"
        )

        failover = check_replica_failover(args, workdir, fs)
        print(
            f"failover: killed {failover['killed']}; "
            f"{failover['rounds']} query rounds with "
            f"{failover['degraded_rows']} degraded rows "
            f"({failover['failovers']} failovers) under the fail policy ✓"
        )
        if args.smoke:
            print("smoke OK (routing + parity + replica failover asserted)")
            return 0
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": "routed_serving",
            "shards": args.shards,
            "spill": args.spill,
            "routing": routing,
            "failover": failover,
        }
        (RESULTS_DIR / "routed_serving.json").write_text(
            json.dumps(payload, indent=2), encoding="utf-8"
        )
        (RESULTS_DIR / "routed_serving.txt").write_text(
            text + "\n", encoding="utf-8"
        )
        print("OK: routed serving holds recall, parity and zero-drop kills")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=(
            "Segment-routed, replicated serving: recall/QPS trade-off, "
            "spill parity, and replica-kill failover"
        )
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI; all correctness assertions still run",
    )
    parser.add_argument("--num-base", type=int, default=12000)
    parser.add_argument("--num-queries", type=int, default=256)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument(
        "--shards",
        type=int,
        default=8,
        help="shard groups == segments (power of two, segment-aligned)",
    )
    parser.add_argument(
        "--spill",
        type=int,
        default=3,
        help="segments routed per query (must be <= shards/2)",
    )
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--ef", type=int, default=48)
    parser.add_argument(
        "--iterations",
        type=int,
        default=5,
        help="timed batch iterations per QPS measurement",
    )
    parser.add_argument(
        "--kill-rounds",
        type=int,
        default=8,
        help="query rounds served after the replica kill",
    )
    parser.add_argument(
        "--request-timeout-s",
        type=float,
        default=30.0,
        help="per-request fan-out deadline for the failover phase",
    )
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.shards < 2 or args.shards & (args.shards - 1):
        parser.error("--shards must be a power of two >= 2")
    if args.num_base <= 0 or args.num_queries <= 0 or args.dim <= 0:
        parser.error("--num-base, --num-queries and --dim must be positive")
    if args.iterations < 1 or args.kill_rounds < 1:
        parser.error("--iterations and --kill-rounds must be >= 1")
    if args.smoke:
        args.num_base = min(args.num_base, 2000)
        args.num_queries = min(args.num_queries, 48)
        args.shards = min(args.shards, 4)
        args.spill = min(args.spill, 2)
        args.iterations = min(args.iterations, 3)
        args.kill_rounds = min(args.kill_rounds, 4)
    if not 1 <= args.spill <= args.shards // 2:
        parser.error(
            "--spill must be in [1, shards/2] -- routing that queries "
            "more than half the groups cannot demonstrate the trade-off"
        )
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
