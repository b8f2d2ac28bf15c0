"""Batched serving throughput: `Broker.search_batch` vs sequential search.

The LANNS paper serves ~2.5k QPS per shard by amortising work across
concurrent traffic; this benchmark measures the reproduction's analogue,
the lockstep batched query engine.  One broker fronts a sharded index
and serves the same query stream two ways, interleaved:

* *sequential* -- one `Broker.search` call per query (each internally a
  batch of one, so both modes exercise the identical kernel), and
* *batched* -- `Broker.search_batch` over fixed-size batches, i.e. one
  shard fan-out and one vectorised multi-query merge per batch.

``batched``: the best batch size must deliver >= 2x the sequential QPS,
and every timed batch answer must equal the timed single-query answers
bit for bit.  ``one_row``: a single query -- a lockstep group of one
row, the serving path -- runs on the heap kernels and pays no more per
scoring call than the same pairs do as a row of a larger batch.
``venues``: the table beside ``hnsw/index.py::_ARRAY_MIN_ROWS`` as a
command -- one segment group of 1 ... 64 rows on the heap kernels and
on the array kernels, int8 and float, per corpus shape: ids, distances
and ``SearchCost`` must be equal; ms per query per venue is printed,
not gated.

With ``--clients N`` the benchmark instead load-tests the concurrent
serving core (``repro.eval.concurrent_serving_throughput``, the body of
``repro.cli bench --clients``): ``N`` closed-loop client threads issue
*single-query* calls against the micro-batching broker, then the same
query set is re-served out of its result cache.  Micro-batched
concurrent singles must reach >= 1.5x the sequential path and cached
repeats >= 5x, with per-query parity (ids *and* distances) asserted
in-run for both.

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py [--smoke] [--clients 8]
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from functools import partial

import numpy as np

import repro.hnsw.index as hnsw_index
from harness import (
    INDEX_NAME,
    SEED,
    Gate,
    corpus,
    interleaved,
    main,
    report,
    require,
    speedup,
    summary,
)
from repro.core.builder import build_lanns_index
from repro.data.synthetic import clustered_gaussians, make_queries
from repro.distance.scorer import Scorer
from repro.eval.serving import concurrent_serving_throughput
from repro.hnsw.params import HnswParams
from repro.obs.cost import SearchCost
from repro.obs.tracing import SpanRecorder, activate, deactivate
from repro.online.broker import Broker
from repro.online.searcher import SearcherNode

FULL = dict(
    num_base=8000, num_queries=256, dim=32, shards=2, segments=2,
    top_k=10, ef=48, batch_sizes=(16, 32, 64), passes=3,
    max_batch=32, max_wait_ms=2.0,  # --clients: the micro-batch flush rule
    # venues: (rows, dim, M, ef) per segment, group sizes, min-of-N passes
    venue_shapes=((4000, 64, 12, 64), (2400, 32, 6, 10)),
    venue_rows=(1, 4, 8, 10, 12, 16, 24, 32, 64), venue_passes=21,
)
SIZES = {
    "full": FULL,
    "smoke": FULL | dict(
        num_base=1200, num_queries=48, batch_sizes=(16,),
        venue_shapes=((600, 16, 6, 10),), venue_passes=2,
    ),
}
GATES = {
    "batched_speedup": Gate(full=2.0, smoke=None),
    "one_row_scoring": Gate(full=1.0, smoke=1.0),
    "concurrent_speedup": Gate(full=1.5, smoke=None),
    "cache_speedup": Gate(full=5.0, smoke=None),
}


@contextmanager
def setup(run):
    vectors, queries, config = corpus(run)
    yield build_lanns_index(vectors, config=config), queries


def check_batched(run, env) -> None:
    index, queries = env
    searchers = [SearcherNode(shard_id) for shard_id in range(run.shards)]
    for shard_id, searcher in enumerate(searchers):
        searcher.host(INDEX_NAME, index.shards[shard_id])
    broker = Broker(searchers, index.config)
    singles: list = [None] * len(queries)
    batches: dict = {}

    def single(row: int) -> None:
        singles[row] = broker.search(
            INDEX_NAME, queries[row], run.top_k, ef=run.ef
        )

    def batch(size: int, start: int) -> None:
        batches[size, start] = broker.search_batch(
            INDEX_NAME, queries[start : start + size], run.top_k, ef=run.ef
        )

    requests = {"sequential": [partial(single, row) for row in range(len(queries))]}
    for size in run.batch_sizes:
        requests[f"batch {size}"] = [
            partial(batch, size, start) for start in range(0, len(queries), size)
        ]
    scores = interleaved(requests, run.passes)
    broker.close()

    for (size, start), (ids, dists) in batches.items():
        for row, (one_ids, one_dists) in enumerate(singles[start : start + size]):
            count = len(one_ids)
            require(
                (ids[row, :count] == one_ids).all()
                and (ids[row, count:] == -1).all()
                and (dists[row, :count] == one_dists).all(),
                f"batch of {size} differs from the single-query answer "
                f"at query {start + row}",
            )
    rows = [
        {
            "mode": name,
            "qps": summary(scores[name], len(queries))["qps"],
            "speedup": speedup(scores, name, over="sequential"),
        }
        for name in requests
    ]
    report(
        "batch_throughput",
        rows,
        title=(
            "Batched serving throughput (Broker.search_batch vs sequential "
            f"Broker.search; {run.num_base} x {run.dim}, {run.shards} x "
            f"{run.segments} partitions, {len(queries)} queries, ef={run.ef})"
        ),
        payload={"smoke": run.smoke},
    )
    print("parity: every timed batch answer equals the single-query answers ✓")
    run.gate("batched_speedup", max(row["speedup"] for row in rows))


def traced_kernels(segment, queries, top_k: int, ef: int | None = None) -> dict:
    """``{"descend": kernel, "beam": kernel}``: the venue tags of one
    traced segment group."""
    recorder = SpanRecorder()
    token = activate(recorder)
    try:
        segment.search_batch(queries, top_k, ef=ef)
    finally:
        deactivate(token)
    return {
        span["name"]: span["annotations"]["kernel"]
        for span in recorder.export()
        if span["name"] in ("descend", "beam")
    }


def check_one_row(run, env) -> None:
    index, queries = env
    segment = max(
        (segment for shard in index.shards for segment in shard.segments),
        key=len,
    )
    venues = traced_kernels(segment, queries[:1], run.top_k, run.ef)
    require(venues == {"descend": "heap", "beam": "heap"}, f"traced {venues}")

    scorer = Scorer(index.config.metric, queries.shape[1])
    scorer.add(queries)
    prepared = scorer.prepare_queries(queries[:2])
    query_sq = scorer.query_sq_norms(prepared)
    ids = np.random.default_rng(SEED).integers(0, len(scorer), size=24)
    ones = np.ones(ids.size, dtype=np.int64)

    def calls(*args):
        def two_hundred() -> None:
            for _ in range(200):
                scorer.score_pairs(*args)

        return [two_hundred]

    scores = interleaved(
        {
            "one_row": calls(prepared[1:], None, ids, query_sq[1:]),
            "in_batch": calls(prepared, ones, ids, query_sq),
        },
        passes=25,
    )
    print(
        "score_pairs, 24 pairs: "
        f"{scores['one_row'][0] / 200 * 1e6:.2f} us as a batch of one row, "
        f"{scores['in_batch'][0] / 200 * 1e6:.2f} us as row 1 of a two-row "
        "batch; a traced single query ran descend + beam on the heap kernels ✓"
    )
    run.gate("one_row_scoring", speedup(scores, "one_row", over="in_batch"))


def check_venues(run, env) -> None:
    floors = {"heap": sys.maxsize, "array": 1}  # _ARRAY_MIN_ROWS per venue
    chosen = hnsw_index._ARRAY_MIN_ROWS
    answers: dict = {}

    def group(segment, queries, venue: str) -> None:
        cost = SearchCost()
        hnsw_index._ARRAY_MIN_ROWS = floors[venue]
        answers[venue] = *segment.search_batch(queries, run.top_k, cost=cost), cost

    table = []
    try:
        for num_base, dim, m, ef in run.venue_shapes:
            vectors = clustered_gaussians(num_base, dim, seed=SEED)
            queries = make_queries(vectors, max(run.venue_rows), seed=SEED + 1)
            for quantize in ("int8", "none"):
                segment = hnsw_index.build_hnsw(
                    vectors,
                    params=HnswParams(
                        M=m, ef_construction=56, ef_search=ef, seed=SEED,
                        quantize=quantize,
                    ),
                )
                lines = {
                    venue: {
                        "segment": f"{num_base} x {dim}",
                        "scorer": "float" if quantize == "none" else quantize,
                        "venue": venue,
                    }
                    for venue in floors
                }
                for venue, floor in floors.items():
                    hnsw_index._ARRAY_MIN_ROWS = floor
                    ran = traced_kernels(segment, queries, run.top_k)
                    require(
                        ran == {"descend": venue, "beam": venue},
                        f"asked for {venue}, traced {ran}",
                    )
                for rows in run.venue_rows:
                    scores = interleaved(
                        {
                            venue: [partial(group, segment, queries[:rows], venue)]
                            for venue in floors
                        },
                        run.venue_passes,
                    )
                    heap, array = answers["heap"], answers["array"]
                    require(
                        (heap[0] == array[0]).all()
                        and heap[1].tobytes() == array[1].tobytes()
                        and heap[2] == array[2],
                        f"{rows} rows of {num_base} x {dim} ({quantize}): "
                        "the venues differ in ids, distances or cost",
                    )
                    for venue in floors:
                        lines[venue][str(rows)] = scores[venue][0] / rows * 1e3
                table += lines.values()
    finally:
        hnsw_index._ARRAY_MIN_ROWS = chosen
    report(
        "venues",
        table,
        title=(
            "One segment group per venue, ms per query by rows in the group "
            f"(min of {run.venue_passes}; _ARRAY_MIN_ROWS = {chosen})"
        ),
        payload={"smoke": run.smoke},
    )
    print("parity: ids, distances and SearchCost equal on both venues ✓")


def check_concurrent(run, env) -> None:
    index, queries = env
    load = concurrent_serving_throughput(
        index,
        queries,
        run.top_k,
        ef=run.ef,
        clients=run.clients,
        max_batch=run.max_batch,
        max_wait_ms=run.max_wait_ms,
    )
    print("parity: concurrent + cached results identical to sequential ✓")
    rows = [
        {"mode": mode, "qps": load[key]["qps"], "p99_ms": load[key]["p99_ms"],
         "speedup": ratio}
        for mode, key, ratio in (
            ("sequential", "sequential", 1.0),
            (f"micro-batched x{load['clients']} clients", "concurrent",
             load["concurrent_speedup"]),
            ("cached repeat queries", "cached", load["cache_speedup"]),
        )
    ]
    core = load["core_stats"]
    report(
        "concurrent_throughput",
        rows,
        title=(
            "Concurrent serving core (micro-batched singles + result cache "
            f"vs sequential; max_batch={run.max_batch}, "
            f"max_wait_ms={run.max_wait_ms})"
        ),
        payload={
            "smoke": run.smoke,
            "clients": load["clients"],
            "stages": core["stages"],
        },
    )
    micro = core["microbatch"]
    print(
        f"micro-batches: {micro['batches_executed']} for "
        f"{micro['rows_executed']} rows (largest {micro['largest_batch']}); "
        f"cache: {core['cache']['hits']} hits / {core['cache']['misses']} misses"
    )
    for stage in ("queue_wait", "fanout", "merge"):
        if stage in core["stages"]:
            stats = core["stages"][stage]
            print(
                f"  {stage:>10}: mean {stats['mean_ms']:.3f} ms  "
                f"p99 {stats['p99_ms']:.3f} ms  (n={stats['count']})"
            )
    run.gate("concurrent_speedup", load["concurrent_speedup"])
    run.gate("cache_speedup", load["cache_speedup"])


if __name__ == "__main__":
    sys.exit(
        main(
            [check_batched, check_one_row, check_venues],
            SIZES,
            GATES,
            setup=setup,
            clients=check_concurrent,
        )
    )
