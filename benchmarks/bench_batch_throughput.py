"""Batched serving throughput: batched vs one-row `Broker.execute` requests.

The LANNS paper serves ~2.5k QPS per shard by amortising work across
concurrent traffic; this benchmark measures the reproduction's analogue,
the lockstep batched query engine.  One broker fronts a sharded index
and serves the same query stream two ways, interleaved:

* *sequential* -- one one-row `Broker.execute` request per query (a
  batch of one, so both modes exercise the identical kernel), and
* *batched* -- one request per fixed-size batch, i.e. one shard fan-out
  and one vectorised multi-query merge per batch.

``batched``: the best batch size must deliver >= 2x the sequential QPS,
and every timed batch answer must equal the timed single-query answers
bit for bit.  ``one_row``: a single query -- a lockstep group of one
row, the serving path -- runs on the heap kernels and pays no more per
scoring call than the same pairs do as a row of a larger batch.
``venues``: the tables beside ``hnsw/index.py::_ARRAY_MIN_ROWS`` and
``_STEP_WIDTH`` as a command -- one segment group of 1 ... 128 rows on
the heap kernels and on the array kernels, int8 and float, per corpus
shape and step width W = 1 ... 4: ids, distances and ``SearchCost`` must
be equal at every W (the step-width parity table); ms per query, beam
rounds, comps per query and recall@10 are printed, not gated, with the
W and the crossover the table reads.  Then the table beside
``hnsw/search.py::_DENSE_UPPER``: one row's heap descent on each
segment, and at full size on an 8000 x 64 one (its level 1 alone holds
over 512 nodes) and a 32000 x 64 one, at every one-call budget -- entry
nodes and distances must be equal at every budget; ms per query and
pairs scored per query are printed.  Then the table beside
``_MAX_LOCKSTEP``: requests to a 2-segment int8 shard sized to
64 ... 192 (query, segment) pairs, each
searched as one lockstep group and as one group per segment; the
answers and ``SearchCost`` must be equal, ms per query is printed.

With ``--clients N`` the benchmark instead load-tests the concurrent
serving core in alternating rounds: a sequential pass, then an emptied
cache and ``N`` closed-loop client threads (``harness.closed_loop``)
issuing *single-query* calls against the micro-batching broker; after
the last round the same query set is re-served out of its result cache.
The median round's micro-batched concurrent singles must reach >= 1.5x
its sequential pass and cached repeats >= 5x, with per-query parity
(ids *and* distances) asserted in-run for every round and the cache.

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py [--smoke] [--clients 8]
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from functools import partial

import numpy as np

import repro.hnsw.index as hnsw_index
import repro.hnsw.search as hnsw_search
from harness import (
    INDEX_NAME,
    SEED,
    Gate,
    closed_loop,
    corpus,
    interleaved,
    main,
    report,
    request,
    require,
    speedup,
    summary,
)
from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.core.merge import empty_part, merge_segment_results_batch
from repro.data.synthetic import clustered_gaussians, make_queries
from repro.distance.scorer import Scorer
from repro.hnsw.params import HnswParams
from repro.obs.cost import SearchCost
from repro.obs.tracing import SpanRecorder, activate, deactivate
from repro.offline.brute_force import exact_top_k
from repro.offline.recall import recall_at_k
from repro.online.broker import Broker
from repro.online.searcher import SearcherNode

FULL = dict(
    num_base=8000, num_queries=256, dim=32, shards=2, segments=2,
    top_k=10, ef=48, batch_sizes=(16, 32, 64), passes=3,
    max_batch=32, max_wait_ms=2.0,  # --clients: the micro-batch flush rule
    # --clients: one sequential and one concurrent pass per round; one
    # round read x1.56-x2.38 within four 5-round runs on a 2-CPU box
    concurrent_rounds=5,
    # venues: (rows, dim, M, ef) per segment, group sizes, min-of-N passes
    venue_shapes=((4000, 64, 12, 64), (2400, 32, 6, 10)),
    venue_rows=(1, 4, 10, 16, 64, 128), venue_expands=(1, 2, 3, 4),
    venue_passes=21,
    # venues: a 2-segment shard of twice the first shape, int8; requests
    # sized to these (query, segment) pair counts
    group_pairs=(64, 96, 128, 192),
    # venues: the heap descent's one-call budgets (None: every upper
    # level), on the venue segments plus these (rows, dim, M, ef) ones
    dense_budgets=(0, 256, 512, 1024, 2048, None),
    dense_shapes=((8000, 64, 12, 64), (32000, 64, 12, 64)),
)
SIZES = {
    "full": FULL,
    "smoke": FULL | dict(
        num_base=1200, num_queries=48, batch_sizes=(16,),
        venue_shapes=((600, 16, 6, 10),), venue_passes=2, dense_shapes=(),
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


def hosted(index) -> list[SearcherNode]:
    """One in-process searcher per shard of ``index``."""
    searchers = [SearcherNode(shard.shard_id) for shard in index.shards]
    for searcher, shard in zip(searchers, index.shards):
        searcher.host(INDEX_NAME, shard)
    return searchers


def check_batched(run, env) -> None:
    index, queries = env
    broker = Broker(hosted(index), index.config)
    singles: list = [None] * len(queries)
    batches: dict = {}

    def single(row: int) -> None:
        singles[row] = broker.execute(request(queries[row], run))

    def batch(size: int, start: int) -> None:
        batches[size, start] = broker.execute(
            request(queries[start : start + size], run)
        )

    requests = {"sequential": [partial(single, row) for row in range(len(queries))]}
    for size in run.batch_sizes:
        requests[f"batch {size}"] = [
            partial(batch, size, start) for start in range(0, len(queries), size)
        ]
    scores = interleaved(requests, run.passes)
    broker.close()

    for (size, start), got in batches.items():
        for row, one in enumerate(singles[start : start + size]):
            require(
                (got.ids[row] == one.ids[0]).all()
                and (got.dists[row] == one.dists[0]).all(),
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
            "Batched serving throughput (batched vs one-row "
            f"Broker.execute; {run.num_base} x {run.dim}, {run.shards} x "
            f"{run.segments} partitions, {len(queries)} queries, ef={run.ef})"
        ),
        payload={"smoke": run.smoke},
    )
    print("parity: every timed batch answer equals the single-query answers ✓")
    run.gate("batched_speedup", max(row["speedup"] for row in rows))


def traced_spans(segment, queries, top_k: int, ef: int | None = None) -> dict:
    """``{"descend": notes, "beam": notes}``: the span annotations (venue
    ``kernel``, ``rounds``, ...) of one traced segment group."""
    recorder = SpanRecorder()
    token = activate(recorder)
    try:
        segment.search_batch(queries, top_k, ef=ef)
    finally:
        deactivate(token)
    return {
        span["name"]: span["annotations"]
        for span in recorder.export()
        if span["name"] in ("descend", "beam")
    }


def traced_kernels(segment, queries, top_k: int, ef: int | None = None) -> dict:
    """``{"descend": kernel, "beam": kernel}``: the venue tags of one
    traced segment group."""
    spans = traced_spans(segment, queries, top_k, ef)
    return {name: notes["kernel"] for name, notes in spans.items()}


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
    chosen = hnsw_index._ARRAY_MIN_ROWS, hnsw_index._STEP_WIDTH
    answers: dict = {}

    def pick(venue: str, expand: int) -> None:
        hnsw_index._ARRAY_MIN_ROWS = floors[venue]
        hnsw_index._STEP_WIDTH = expand

    def group(segment, queries, venue: str, expand: int) -> None:
        cost = SearchCost()
        pick(venue, expand)
        answers[venue, expand] = (
            *segment.search_batch(queries, run.top_k, cost=cost), cost,
        )

    # Every segment is built before the sweep patches the step width,
    # which construction reads too: each line of the table compares
    # kernels over the one graph the shipped W builds.
    segments = []
    for num_base, dim, m, ef in run.venue_shapes:
        vectors = clustered_gaussians(num_base, dim, seed=SEED)
        queries = make_queries(vectors, max(run.venue_rows), seed=SEED + 1)
        truth = exact_top_k(vectors, queries, run.top_k)[0]
        for quantize in ("int8", "none"):
            segment = hnsw_index.build_hnsw(
                vectors,
                params=HnswParams(
                    M=m, ef_construction=56, ef_search=ef, seed=SEED,
                    quantize=quantize,
                ),
            )
            segments.append((f"{num_base} x {dim}", quantize, segment, queries, truth))
    table, spreads = [], {}
    try:
        for shape, quantize, segment, queries, truth in segments:
            lines = {}
            for expand in run.venue_expands:
                for venue in floors:
                    pick(venue, expand)
                    spans = {
                        rows: traced_spans(segment, queries[:rows], run.top_k)
                        for rows in (1, max(run.venue_rows))
                    }
                    ran = {
                        name: notes["kernel"] for name, notes in spans[1].items()
                    }
                    require(
                        ran == {"descend": venue, "beam": venue},
                        f"asked for {venue}, traced {ran}",
                    )
                    lines[venue, expand] = {
                        "segment": shape,
                        "scorer": "float" if quantize == "none" else quantize,
                        "W": expand,
                        "venue": venue,
                        **{
                            f"rounds@{rows}": found["beam"]["rounds"]
                            for rows, found in spans.items()
                        },
                    }
            for rows in run.venue_rows:
                # Two runs of half the passes each: a cell is their min,
                # and its spread how far the two halves disagree.
                halves = [
                    interleaved(
                        {
                            (venue, expand): [
                                partial(group, segment, queries[:rows], venue, expand)
                            ]
                            for expand in run.venue_expands
                            for venue in floors
                        },
                        passes,
                    )
                    for passes in (run.venue_passes - run.venue_passes // 2,
                                   run.venue_passes // 2)
                ]
                for expand in run.venue_expands:
                    heap, array = answers["heap", expand], answers["array", expand]
                    require(
                        (heap[0] == array[0]).all()
                        and heap[1].tobytes() == array[1].tobytes()
                        and heap[2] == array[2],
                        f"{rows} rows of {shape} ({quantize}), "
                        f"W = {expand}: the venues differ in ids, distances "
                        "or cost",
                    )
                    for venue in floors:
                        line = lines[venue, expand]
                        first, second = (
                            half[venue, expand][0] / rows * 1e3 for half in halves
                        )
                        line[str(rows)] = min(first, second)
                        spreads[shape, line["scorer"], expand, venue, rows] = abs(
                            first - second
                        )
                        if rows == max(run.venue_rows):
                            line["comps/q"] = heap[2].distance_comps / rows
                            line["recall@10"] = recall_at_k(
                                heap[0], truth[:rows], run.top_k
                            )
            table += lines.values()
    finally:
        hnsw_index._ARRAY_MIN_ROWS, hnsw_index._STEP_WIDTH = chosen
    report(
        "venues",
        table,
        title=(
            "One segment group per venue and step width W, ms per query by "
            f"rows in the group (min of {run.venue_passes}; _ARRAY_MIN_ROWS "
            f"= {chosen[0]}, _STEP_WIDTH = {chosen[1]})"
        ),
        payload={"smoke": run.smoke},
    )
    print(
        "parity: ids, distances and SearchCost equal on both venues at "
        f"every W in {tuple(run.venue_expands)} ✓"
    )
    print_step_choice(run, table, spreads, chosen[0])
    check_dense_budget(run, segments)
    check_shard_groups(run)


def check_dense_budget(run, segments: list) -> None:
    """One row's heap descent at every budget of ``_DENSE_UPPER``: the top
    levels holding at most that many nodes scored in one call, the rest
    in pooled rounds.  Entry nodes and distance bits must not depend on
    the budget; ms per query (descend only, min of ``venue_passes``) and
    the pairs the scorer counted per query are printed."""
    for num_base, dim, m, ef in run.dense_shapes:
        vectors = clustered_gaussians(num_base, dim, seed=SEED)
        segment = hnsw_index.build_hnsw(
            vectors,
            params=HnswParams(M=m, ef_construction=56, ef_search=ef, seed=SEED),
        )
        queries = make_queries(vectors, max(run.venue_rows), seed=SEED + 1)
        segments = [
            *segments, (f"{num_base} x {dim}", "none", segment, queries, None)
        ]
    chosen = hnsw_search._DENSE_UPPER
    budgets = {
        str(budget): budget for budget in run.dense_budgets if budget is not None
    }
    if None in run.dense_budgets:
        budgets["all"] = sys.maxsize
    try:
        table = [dense_line(run, budgets, *segment[:4]) for segment in segments]
    finally:
        hnsw_search._DENSE_UPPER = chosen
    report(
        "dense_budget",
        table,
        title=(
            "One row's heap descent by one-call budget: ms per query (min of "
            f"{run.venue_passes}) and pairs scored per query; 'upper' is the "
            f"nodes per level from 1 up (_DENSE_UPPER = {chosen})"
        ),
        payload={"smoke": run.smoke},
    )
    print("parity: entry nodes and distances equal at every budget ✓")


def dense_line(run, budgets: dict, shape, quantize, segment, queries) -> dict:
    """One segment's line of the budget table: each query's one-row heap
    descent at every budget, timed interleaved, then once more each to
    count pairs and compare entries with the first budget's."""
    exact = segment._scorer
    rows = range(len(queries))
    prepared = [exact.prepare_queries(queries[row : row + 1]) for row in rows]
    query_sq = [exact.query_sq_norms(query) for query in prepared]
    # A compressed-code view scores the one batch it was made for.
    traversal = [
        exact if segment._quantized is None else segment._quantized.view(query)
        for query in prepared
    ]
    levels = np.zeros(1, dtype=np.int64)
    found: dict = {}

    def descend(name: str, row: int) -> None:
        hnsw_search._DENSE_UPPER = budgets[name]
        found[name, row] = hnsw_search.descend_to_levels_batch(
            segment.graph, traversal[row], prepared[row], levels, query_sq[row]
        )

    scores = interleaved(
        {name: [partial(descend, name, row) for row in rows] for name in budgets},
        run.venue_passes,
    )
    line = {
        "segment": shape,
        "scorer": "float" if quantize == "none" else quantize,
        "upper": "/".join(str(len(tier)) for tier in segment.graph.upper[1:]),
    }
    pairs = {}
    first = next(iter(budgets))
    for name in budgets:
        before = segment.distance_ops
        for row in rows:
            descend(name, row)
        pairs[f"pairs@{name}"] = (segment.distance_ops - before) / len(queries)
        require(
            all(
                found[name, row][i].tobytes() == found[first, row][i].tobytes()
                for row in rows
                for i in (0, 1)
            ),
            f"{shape} ({quantize}): budget {name} moves an entry node or distance",
        )
        line[f"ms@{name}"] = scores[name].sum() / len(queries) * 1e3
    return line | pairs


def step_rule(
    table: list[dict], spreads: dict, rows: tuple, expands: tuple, floor: int
) -> tuple[dict, int, int | None]:
    """The rule ``_STEP_WIDTH`` is read by, applied to ``table``.

    Every comparison allows for ``spreads``: how far the two halves of a
    cell's passes disagreed (a box whose speed wanders flags a cell or
    three of any W by noise alone).  A W is eligible when no array cell
    at ``floor`` or more rows is slower than W = 1's by more than the
    two cells' spreads.  The rule picks, among the eligible W whose
    one-row ms per query (heap venue, summed over the segments) is
    within the spreads of the fastest's, the one taking the fewest beam
    rounds for one row; and, at that W, the first row count from which
    the array venue is faster on every segment.  Returns ``({W: (one-row
    ms, its spread, slower cells)}, W, crossover)``.
    """
    cells = {
        (line["segment"], line["scorer"], line["W"], line["venue"]): line
        for line in table
    }
    wide = [count for count in rows if count >= floor]
    scores, rounds = {}, {}
    for expand in expands:
        slower = sum(
            line[str(count)] - cells[key[:2] + (1, "array")][str(count)]
            > spreads[key + (count,)] + spreads[key[:2] + (1, "array", count)]
            for key, line in cells.items()
            if key[2:] == (expand, "array")
            for count in wide
        )
        heap = [key for key in cells if key[2:] == (expand, "heap")]
        scores[expand] = (
            sum(cells[key]["1"] for key in heap),
            sum(spreads[key + (1,)] for key in heap),
            slower,
        )
        rounds[expand] = sum(cells[key]["rounds@1"] for key in heap)
    eligible = [expand for expand, (_, _, slower) in scores.items() if not slower]
    fastest = min(eligible, key=lambda expand: scores[expand][0])
    best = min(
        (
            expand
            for expand in eligible
            if scores[expand][0] - scores[fastest][0]
            <= scores[expand][1] + scores[fastest][1]
        ),
        key=rounds.get,
    )
    wins = [
        all(
            line[str(count)] < cells[key[:3] + ("heap",)][str(count)]
            for key, line in cells.items()
            if key[2:] == (best, "array")
        )
        for count in rows
    ]
    crossover = next(
        (count for at, count in enumerate(rows) if all(wins[at:])), None
    )
    return scores, best, crossover


def print_step_choice(run, table: list[dict], spreads: dict, floor: int) -> None:
    """:func:`step_rule` on the venue table.  Printed, not gated:
    timings on a shared box."""
    scores, best, crossover = step_rule(
        table, spreads, run.venue_rows, run.venue_expands, floor
    )
    for expand, (one_row, spread, slower) in scores.items():
        print(
            f"W = {expand}: one row {one_row:.3f} +/- {spread:.3f} ms per query "
            f"(heap, summed), {slower} array cells at >= {floor} rows slower "
            "than W = 1 beyond their spread"
        )
    print(
        f"rule: W = {best} (_STEP_WIDTH = {hnsw_index._STEP_WIDTH}); "
        f"at W = {best} the array venue wins every segment from {crossover} "
        f"rows (_ARRAY_MIN_ROWS = {floor})"
        + (" -- smoke size: not the table the constants are read from"
           if run.smoke else "")
    )


def check_shard_groups(run) -> None:
    """A shard request as one lockstep group of (query, segment) pairs
    against one group per probed segment, by pairs in the request."""
    num_base, dim, m, ef = run.venue_shapes[0]
    vectors = clustered_gaussians(2 * num_base, dim, seed=SEED)
    config = LannsConfig(
        num_shards=1, num_segments=2, segmenter="rh", seed=SEED,
        hnsw=HnswParams(
            M=m, ef_construction=56, ef_search=ef, seed=SEED, quantize="int8"
        ),
    )
    shard = build_lanns_index(vectors, config=config).shards[0]
    queries = make_queries(vectors, 8 * max(run.group_pairs), seed=SEED + 1)
    probes = [len(route) for route in shard.segmenter.route_query_batch(queries)]
    answers: dict = {}

    def grouped(rows, request: int) -> None:
        cost = SearchCost()
        found = shard.search_batch(rows, run.top_k, cost=cost)
        answers["group", request] = *found, cost

    def per_segment(rows, request: int) -> None:
        # Each probed segment searched as its own lockstep group, then
        # merged as the shard merges.
        cost, ids, dists = SearchCost(), [], []
        routes = shard.segmenter.route_query_batch(rows)
        for segment_id, segment in enumerate(shard.segments):
            mine = [row for row, route in enumerate(routes) if segment_id in route]
            cost.segments_probed += len(mine)
            found = empty_part(len(rows), run.top_k)
            found[0][mine], found[1][mine] = segment.search_batch(
                rows[mine], run.top_k, cost=cost
            )
            ids.append(found[0])
            dists.append(found[1])
        answers["per segment", request] = (
            *merge_segment_results_batch(np.hstack(ids), np.hstack(dists), run.top_k),
            cost,
        )

    chosen = hnsw_index._MAX_LOCKSTEP
    lines = {name: {"shard": f"2 x {num_base} x {dim} int8", "search": name}
             for name in ("group", "per segment")}
    try:
        hnsw_index._MAX_LOCKSTEP = max(run.group_pairs)
        for target in run.group_pairs:
            # Consecutive requests of the first queries that reach
            # ``target`` pairs, four per stream.
            requests, start = [], 0
            for _ in range(4):
                reached = np.cumsum(probes[start:]) >= target
                stop = start + int(reached.argmax()) + 1
                requests.append(queries[start:stop])
                start = stop
            scores = interleaved(
                {
                    name: [partial(call, rows, n) for n, rows in enumerate(requests)]
                    for name, call in (("group", grouped), ("per segment", per_segment))
                },
                run.venue_passes,
            )
            for n, rows in enumerate(requests):
                group, alone = answers["group", n], answers["per segment", n]
                require(
                    group[0].tobytes() == alone[0].tobytes()
                    and group[1].tobytes() == alone[1].tobytes()
                    and group[2] == alone[2],
                    f"{len(rows)} queries: the shard group differs from "
                    "per-segment search in ids, distances or cost",
                )
            for name in lines:
                lines[name][f"{target} pairs"] = scores[name].sum() / start * 1e3
    finally:
        hnsw_index._MAX_LOCKSTEP = chosen
    report(
        "shard_groups",
        list(lines.values()),
        title=(
            "A shard request as one group of (query, segment) pairs vs one "
            f"group per segment, ms per query (min of {run.venue_passes}; "
            f"_MAX_LOCKSTEP = {chosen})"
        ),
        payload={"smoke": run.smoke},
    )
    print("parity: a shard group answers and costs as per-segment search ✓")


def check_concurrent(run, env) -> None:
    """Each of ``run.concurrent_rounds`` rounds serves the queries from a
    plain broker one call at a time (*sequential*), empties the cache,
    and serves them again from the micro-batching, caching broker's
    ``run.clients`` closed-loop threads (*concurrent*); after the last
    round, the cache it filled serves them once more (*cached*).  Every
    concurrent and cached answer must equal the sequential one bit for
    bit, ids and distances.  The table and the gates read the round of
    median speedup."""
    index, queries = env
    searchers = hosted(index)
    baseline = Broker(searchers, index.config)
    core = Broker(
        searchers,
        index.config,
        max_batch=run.max_batch,
        max_wait_ms=run.max_wait_ms,
        cache_size=2 * len(queries),
    )

    def search(broker):
        return lambda query: broker.execute(request(query, run))

    def one_by_one(broker) -> dict:
        calls = [partial(search(broker), query) for query in queries]
        return summary(interleaved({"calls": calls}, 1)["calls"])

    def same(what: str, answers) -> None:
        for row, (got, want) in enumerate(zip(answers, expected)):
            require((got.ids == want.ids).all(), f"{what} id mismatch at query {row}")
            require(
                (got.dists == want.dists).all(),
                f"{what} distance mismatch at query {row}",
            )

    rounds = []
    try:
        expected = [search(baseline)(query) for query in queries]
        for number in range(1, run.concurrent_rounds + 1):
            sequential = one_by_one(baseline)
            core.cache.clear()
            answers, concurrent = closed_loop(search(core), queries, run.clients)
            same(f"round {number}: concurrent", answers)
            ratio = concurrent["qps"] / sequential["qps"]
            rounds.append((ratio, sequential, concurrent))
            print(
                f"round {number}: sequential {sequential['qps']:.0f} q/s, "
                f"concurrent {concurrent['qps']:.0f} q/s, x{ratio:.3f}"
            )
        cached = one_by_one(core)  # the last concurrent pass filled the cache
        # Before the parity re-serve below, so the hit/miss counters
        # reflect the measured traffic only.
        served = core.stats()
        same("cached", [search(core)(query) for query in queries])
    finally:
        baseline.close()
        core.close()
    print("parity: every round's concurrent + cached answers equal sequential ✓")
    _, sequential, concurrent = sorted(rounds, key=lambda entry: entry[0])[
        len(rounds) // 2
    ]
    clients = concurrent["clients"]
    rows = [
        {"mode": mode, "qps": stats["qps"], "p99_ms": stats["p99_ms"],
         "speedup": stats["qps"] / sequential["qps"]}
        for mode, stats in (
            ("sequential", sequential),
            (f"micro-batched x{clients} clients", concurrent),
            ("cached repeat queries", cached),
        )
    ]
    report(
        "concurrent_throughput",
        rows,
        title=(
            "Concurrent serving core (micro-batched singles + result cache "
            f"vs sequential; max_batch={run.max_batch}, "
            f"max_wait_ms={run.max_wait_ms}; the median of "
            f"{len(rounds)} rounds)"
        ),
        payload={
            "smoke": run.smoke,
            "clients": clients,
            "round_speedups": [entry[0] for entry in rounds],
            "stages": served["stages"],
        },
    )
    micro = served["microbatch"]
    print(
        f"micro-batches: {sum(micro['flushes'].values())} for "
        f"{micro['rows_executed']} rows (largest {micro['largest_batch']}); "
        f"cache: {served['cache']['hits']} hits / {served['cache']['misses']} misses"
    )
    for stage in ("queue_wait", "fanout", "merge"):
        if stage in served["stages"]:
            stats = served["stages"][stage]
            print(
                f"  {stage:>10}: mean {stats['mean_ms']:.3f} ms  "
                f"p99 {stats['p99_ms']:.3f} ms  (n={stats['count']})"
            )
    run.gate("concurrent_speedup", rows[1]["speedup"])
    run.gate("cache_speedup", rows[2]["speedup"])


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
