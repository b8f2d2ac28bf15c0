"""Batched serving throughput: `Broker.search_batch` vs sequential search.

The LANNS paper serves ~2.5k QPS per shard by amortising work across
concurrent traffic; this benchmark measures the reproduction's analogue,
the lockstep batched query engine.  One broker fronts a sharded index;
the same query stream is served twice:

1. *sequential* -- one `Broker.search` call per query (each internally a
   batch of one, so both modes exercise the identical kernel), and
2. *batched* -- `Broker.search_batch` over fixed-size batches, i.e. one
   shard fan-out and one vectorised multi-query merge per batch.

The batch path must deliver >= 2x the sequential QPS (the PR-1
acceptance bar) and bit-identical per-query results.

With ``--clients N`` the benchmark instead load-tests the PR-2
concurrent serving core: ``N`` closed-loop client threads issue
*single-query* calls against the micro-batching broker (admission
coalesces them into lockstep batches), then the same query set is
re-served out of the broker's result cache.  Acceptance bars:
micro-batched concurrent singles >= 1.5x the PR-1 sequential path, and
cached repeat queries >= 5x uncached -- with per-query parity (identical
ids *and* distances) asserted in-run for both.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py
    PYTHONPATH=src python benchmarks/bench_batch_throughput.py --clients 8
    PYTHONPATH=src python benchmarks/bench_batch_throughput.py --smoke

``--smoke`` shrinks the workload to a few seconds and skips the speedup
assertions (tiny runs are timing noise); it still verifies parity, which
is what CI's benchmark smoke job guards, and that a single query -- a
lockstep group of one row, the serving path -- runs on the heap kernels
and pays less per scoring call than the same pairs do as rows of a
larger batch.
"""

from __future__ import annotations

import argparse
import json
import sys
import timeit
from pathlib import Path

import numpy as np

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.core.index import LannsIndex
from repro.data.synthetic import clustered_gaussians, make_queries
from repro.distance.scorer import Scorer
from repro.eval.harness import concurrent_serving_throughput
from repro.eval.tables import format_table
from repro.eval.timing import measure_batch_qps, measure_qps
from repro.hnsw.params import HnswParams
from repro.obs.tracing import SpanRecorder, activate, deactivate
from repro.online.broker import Broker
from repro.online.searcher import SearcherNode

RESULTS_DIR = Path(__file__).parent / "results"


def build_index(args: argparse.Namespace) -> tuple[LannsIndex, np.ndarray]:
    """Build the synthetic corpus and index it."""
    base = clustered_gaussians(args.num_base, args.dim, seed=args.seed)
    queries = make_queries(base, args.num_queries, seed=args.seed + 1)
    config = LannsConfig(
        num_shards=args.shards,
        num_segments=args.segments,
        segmenter="rh",
        hnsw=HnswParams(
            M=12, ef_construction=56, ef_search=args.ef, seed=args.seed
        ),
        segmenter_sample_size=min(2000, args.num_base),
        seed=args.seed,
    )
    return build_lanns_index(base, config=config), queries


def build_broker(
    args: argparse.Namespace,
) -> tuple[Broker, LannsIndex, np.ndarray]:
    """Build the synthetic corpus, index it, and front it with a broker."""
    index, queries = build_index(args)
    searchers = [SearcherNode(shard_id) for shard_id in range(args.shards)]
    for shard_id, searcher in enumerate(searchers):
        searcher.host("default", index.shards[shard_id])
    broker = Broker(searchers, index.config)
    return broker, index, queries


def check_parity(
    broker: Broker, queries: np.ndarray, top_k: int, ef: int
) -> None:
    """Batched results must be identical to looping single-query search."""
    batch_ids, batch_dists = broker.search_batch(
        "default", queries, top_k, ef=ef
    )
    for row in range(queries.shape[0]):
        single_ids, single_dists = broker.search(
            "default", queries[row], top_k, ef=ef
        )
        count = len(single_ids)
        assert (batch_ids[row, :count] == single_ids).all(), (
            f"batch/single id mismatch at query {row}"
        )
        assert (batch_ids[row, count:] == -1).all(), (
            f"unexpected padding at query {row}"
        )
        assert (batch_dists[row, :count] == single_dists).all(), (
            f"batch/single distance mismatch at query {row}"
        )


def check_one_row_path(index: LannsIndex, queries: np.ndarray, args) -> None:
    """A single query is a lockstep group of one row: it must trace
    ``kernel=heap`` for both graph stages, and its scoring call -- one
    gather, one reduction against the row -- must not be the slower way
    to score 24 pairs (a relative check: safe on a noisy runner)."""
    segment = max(
        (segment for shard in index.shards for segment in shard.segments),
        key=len,
    )
    recorder = SpanRecorder()
    token = activate(recorder)
    try:
        segment.search_batch(queries[:1], args.top_k, ef=args.ef)
    finally:
        deactivate(token)
    venues = {
        span["name"]: span["annotations"]["kernel"]
        for span in recorder.export()
        if span["name"] in ("descend", "beam")
    }
    assert venues == {"descend": "heap", "beam": "heap"}, venues

    scorer = Scorer(index.config.metric, queries.shape[1])
    scorer.add(queries)
    prepared = scorer.prepare_queries(queries[:2])
    query_sq = scorer.query_sq_norms(prepared)
    ids = np.random.default_rng(args.seed).integers(0, len(scorer), size=24)
    ones = np.ones(ids.size, dtype=np.int64)

    def best_us(call) -> float:
        return min(timeit.repeat(call, number=200, repeat=25)) / 200 * 1e6

    one_row = best_us(
        lambda: scorer.score_pairs(prepared[1:], None, ids, query_sq[1:])
    )
    in_batch = best_us(
        lambda: scorer.score_pairs(prepared, ones, ids, query_sq)
    )
    print(
        f"score_pairs, 24 pairs: {one_row:.2f} us as a batch of one row, "
        f"{in_batch:.2f} us as row 1 of a two-row batch; a traced single "
        "query ran descend + beam on the heap kernels ✓"
    )
    assert one_row <= in_batch, (one_row, in_batch)


def run_concurrent(args: argparse.Namespace) -> int:
    """The ``--clients`` mode: concurrent singles + heavy-hitter cache."""
    index, queries = build_index(args)
    print(
        f"corpus: {args.num_base} x {args.dim}, {args.shards} shard(s) x "
        f"{args.segments} segment(s), {queries.shape[0]} queries, "
        f"top_k={args.top_k}, ef={args.ef}, clients={args.clients}, "
        f"max_batch={args.max_batch}, max_wait_ms={args.max_wait_ms}"
    )
    report = concurrent_serving_throughput(
        index,
        queries,
        args.top_k,
        ef=args.ef,
        clients=args.clients,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
    )
    print("parity: concurrent + cached results identical to sequential ✓")
    rows = [
        {
            "mode": "sequential (PR-1 path)",
            "qps": report["sequential"]["qps"],
            "p99_ms": report["sequential"]["p99_ms"],
            "speedup": 1.0,
        },
        {
            "mode": f"micro-batched x{report['clients']} clients",
            "qps": report["concurrent"]["qps"],
            "p99_ms": report["concurrent"]["p99_ms"],
            "speedup": report["concurrent_speedup"],
        },
        {
            "mode": "cached repeat queries",
            "qps": report["cached"]["qps"],
            "p99_ms": report["cached"]["p99_ms"],
            "speedup": report["cache_speedup"],
        },
    ]
    text = format_table(
        rows,
        title=(
            "Concurrent serving core (micro-batched singles + result "
            "cache vs sequential)"
        ),
    )
    print("\n" + text + "\n")
    core = report["core_stats"]
    micro = core["microbatch"]
    if micro is not None:
        print(
            f"micro-batches: {micro['batches_executed']} for "
            f"{micro['rows_executed']} rows "
            f"(largest {micro['largest_batch']}); cache: "
            f"{core['cache']['hits']} hits / {core['cache']['misses']} misses"
        )
    else:
        print(
            "micro-batching disabled (--max-batch 1); cache: "
            f"{core['cache']['hits']} hits / {core['cache']['misses']} misses"
        )
    stages = core["stages"]
    for stage in ("queue_wait", "fanout", "merge"):
        if stage in stages:
            print(
                f"  {stage:>10}: mean {stages[stage]['mean_ms']:.3f} ms  "
                f"p99 {stages[stage]['p99_ms']:.3f} ms  "
                f"(n={stages[stage]['count']})"
            )

    if args.smoke:
        print(
            f"smoke OK (concurrent {report['concurrent_speedup']:.2f}x, "
            f"cached {report['cache_speedup']:.2f}x; assertions skipped "
            "at smoke sizes)"
        )
        return 0
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "name": "concurrent_throughput",
        "clients": report["clients"],
        "rows": rows,
        "stages": stages,
    }
    (RESULTS_DIR / "concurrent_throughput.json").write_text(
        json.dumps(payload, indent=2), encoding="utf-8"
    )
    (RESULTS_DIR / "concurrent_throughput.txt").write_text(
        text + "\n", encoding="utf-8"
    )
    failed = False
    if report["concurrent_speedup"] < args.min_concurrent_speedup:
        print(
            f"FAIL: micro-batched concurrent speedup "
            f"{report['concurrent_speedup']:.2f}x is below the required "
            f"{args.min_concurrent_speedup:.1f}x"
        )
        failed = True
    if report["cache_speedup"] < args.min_cache_speedup:
        print(
            f"FAIL: cached repeat-query speedup "
            f"{report['cache_speedup']:.2f}x is below the required "
            f"{args.min_cache_speedup:.1f}x"
        )
        failed = True
    if failed:
        return 1
    print(
        f"OK: concurrent {report['concurrent_speedup']:.2f}x >= "
        f"{args.min_concurrent_speedup:.1f}x, cached "
        f"{report['cache_speedup']:.2f}x >= {args.min_cache_speedup:.1f}x"
    )
    return 0


def run(args: argparse.Namespace) -> int:
    broker, index, queries = build_broker(args)
    print(
        f"corpus: {args.num_base} x {args.dim}, {args.shards} shard(s) x "
        f"{args.segments} segment(s), {queries.shape[0]} queries, "
        f"top_k={args.top_k}, ef={args.ef}"
    )
    check_parity(broker, queries[: min(24, queries.shape[0])], args.top_k, args.ef)
    print("parity: batched results identical to sequential ✓")
    check_one_row_path(index, queries, args)

    sequential_qps = measure_qps(
        lambda query: broker.search("default", query, args.top_k, ef=args.ef),
        queries,
    )["qps"]
    rows = []
    best_speedup = 0.0
    for batch_size in args.batch_sizes:
        batched_qps = measure_batch_qps(
            lambda batch: broker.search_batch(
                "default", batch, args.top_k, ef=args.ef
            ),
            queries,
            batch_size,
        )["qps"]
        speedup = batched_qps / sequential_qps
        best_speedup = max(best_speedup, speedup)
        rows.append(
            {
                "batch_size": batch_size,
                "sequential_qps": sequential_qps,
                "batched_qps": batched_qps,
                "speedup": speedup,
            }
        )
    text = format_table(
        rows,
        title=(
            "Batched serving throughput (Broker.search_batch vs "
            "sequential Broker.search)"
        ),
    )
    print("\n" + text + "\n")

    if not args.smoke:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / "batch_throughput.txt").write_text(
            text + "\n", encoding="utf-8"
        )
        (RESULTS_DIR / "batch_throughput.json").write_text(
            json.dumps(
                {"name": "batch_throughput", "rows": rows},
                indent=2,
            ),
            encoding="utf-8",
        )
        if best_speedup < args.min_speedup:
            print(
                f"FAIL: best batched speedup {best_speedup:.2f}x is below "
                f"the required {args.min_speedup:.1f}x"
            )
            return 1
        print(
            f"OK: best batched speedup {best_speedup:.2f}x >= "
            f"{args.min_speedup:.1f}x"
        )
    else:
        print(
            f"smoke OK (best speedup {best_speedup:.2f}x; assertion "
            "skipped at smoke sizes)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=(
            "Measure batched vs sequential serving QPS through the broker"
        )
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, parity check only (for CI)",
    )
    parser.add_argument("--num-base", type=int, default=8000)
    parser.add_argument("--num-queries", type=int, default=256)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--segments", type=int, default=2)
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--ef", type=int, default=48)
    parser.add_argument(
        "--batch-sizes",
        type=int,
        nargs="+",
        default=[16, 32, 64],
        help="batch sizes to sweep",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="required batched/sequential QPS ratio (non-smoke runs)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=0,
        help=(
            "load-test the concurrent serving core with this many "
            "closed-loop client threads (0 = classic batched-vs-"
            "sequential mode)"
        ),
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="micro-batch flush size (--clients mode)",
    )
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="micro-batch flush deadline in ms (--clients mode)",
    )
    parser.add_argument(
        "--min-concurrent-speedup",
        type=float,
        default=1.5,
        help=(
            "required micro-batched-concurrent/sequential QPS ratio "
            "(--clients mode, non-smoke)"
        ),
    )
    parser.add_argument(
        "--min-cache-speedup",
        type=float,
        default=5.0,
        help=(
            "required cached/uncached QPS ratio "
            "(--clients mode, non-smoke)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if any(size <= 0 for size in args.batch_sizes):
        parser.error(f"--batch-sizes must be positive, got {args.batch_sizes}")
    if args.num_base <= 0 or args.num_queries <= 0 or args.dim <= 0:
        parser.error("--num-base, --num-queries and --dim must be positive")
    if args.clients < 0:
        parser.error(f"--clients must be >= 0, got {args.clients}")
    if args.max_batch <= 0:
        parser.error(f"--max-batch must be positive, got {args.max_batch}")
    if args.max_wait_ms < 0:
        parser.error(f"--max-wait-ms must be >= 0, got {args.max_wait_ms}")
    if args.smoke:
        args.num_base = min(args.num_base, 1200)
        args.num_queries = min(args.num_queries, 48)
        args.batch_sizes = [16]
    if args.clients > 0:
        return run_concurrent(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
