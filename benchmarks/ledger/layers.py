"""The traced run: per-layer metrics for one workload (``--trace 1``).

Three stages, all on the workload's own artifacts (its corpus, export,
request shapes), with every end-to-end number left to the untraced run:

``W``  the first half of the workload's stream, replayed alternately with
       the span wrappers off and on: tracing overhead, each layer's share of the
       latency, cache / RPC counts.
``S``  the same requests through an in-process ``OnlineService`` over the
       same export, traced: what the searcher processes do, which the
       client of a remote fleet cannot see, and the ``SearchCost`` counts.
``P``  probes: each layer's public functions timed directly on recorded
       shapes (``Scorer.score_pairs``, ``HnswIndex.add``,
       ``save_lanns_index``, ``encode_frame``, a PING round trip, ...).

Which end-to-end metric each layer metric should move, on which
workload, is written down in README.md *before* anyone optimises.
"""

from __future__ import annotations

import time
from collections import defaultdict
import numpy as np

import repro.core.index as core_index
import repro.online.broker as online_broker
from benchmarks.ledger import estimator, runner, tracing
from benchmarks.ledger import workloads as ledger_workloads
from benchmarks.ledger.calibrate import Calibrator
from repro.core.builder import LannsBuilder
from repro.core.index import ShardIndex
from repro.core.merge import merge_shard_results_batch
from repro.distance.scorer import QuantizedStore, Scorer
from repro.hnsw.index import HnswIndex
from repro.net.fleet import fleet_addresses, launch_fleet, shutdown_fleet
from repro.net.protocol import MsgType, decode_frame, frame_to_bytes
from repro.net.transport import (
    AsyncRemoteSearcherTransport,
    RemoteSearcherTransport,
)
from repro.obs.cost import FIELDS as COST_FIELDS
from repro.online.broker import Broker
from repro.online.cache import QueryResultCache, result_cache_key
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import (
    load_lanns_index,
    load_segmenter,
    save_lanns_index,
)

#: Declared in ``BENCHMARK.json`` in this order: name -> unit.
PER_LAYER = {
    "distance.score_pairs_ns_per_pair": "ns",
    "distance.int8_ns_per_pair": "ns",
    "distance.gemm_roofline_ratio": "ratio",
    "distance.comps_per_query": "count",
    "hnsw.search_ms_per_query": "ms",
    "hnsw.search_batch_ms_per_query": "ms",
    "hnsw.hops_per_query": "count",
    "hnsw.candidates_per_query": "count",
    "hnsw.rescore_rows_per_query": "count",
    "hnsw.add_vectors_per_s": "1/s",
    "hnsw.to_arrays_ms": "ms",
    "hnsw.from_arrays_ms": "ms",
    "segmenters.learn_s": "s",
    "segmenters.route_us_per_query": "us",
    "segmenters.probed_per_query": "count",
    "core.shard_self_ms_per_query": "ms",
    "core.merge_us_per_query": "us",
    "core.partition_s": "s",
    "storage.save_mb_per_s": "MB/s",
    "storage.load_mb_per_s": "MB/s",
    "online.broker_self_ms_per_query": "ms",
    "online.searcher_ms_per_query": "ms",
    "online.cache_hit_ratio": "ratio",
    "online.cache_evictions": "count",
    "online.cache_get_us": "us",
    "online.cache_put_us": "us",
    "net.encode_us_per_frame": "us",
    "net.decode_us_per_frame": "us",
    "net.rpc_rtt_ms": "ms",
    "net.server_search_ms_per_query": "ms",
    "net.wire_bytes_per_query": "B",
    "net.rpcs_per_query": "count",
    "net.deploy_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.self_sum_ratio": "ratio",
    "trace.share_hnsw_distance": "ratio",
    "trace.share_net_online": "ratio",
    "trace.calib_ms": "ms",
}

#: Pairs scored per candidate list in the distance probes (one beam round).
ROUND_IDS = 24
#: Rows of the batched distance / search probes (the lockstep group size).
BATCH_ROWS = 64
#: Vectors inserted by the ``HnswIndex.add`` probe.
ADD_ROWS = 1000


# -- wrappers --------------------------------------------------------------------
def install(tracer: tracing.Tracer, segmenter_type: type) -> None:
    """Wrap each layer's public entry points (spans stay off until
    ``tracer.enabled``)."""
    tracer.wrap(Broker, "execute", "online.broker")
    tracer.wrap(QueryResultCache, "get", "online.cache")
    tracer.wrap(QueryResultCache, "put", "online.cache")
    tracer.wrap(SearcherNode, "search_batch", "online.searcher")
    tracer.wrap_async(
        AsyncRemoteSearcherTransport, "search_batch_async", "net.transport"
    )
    tracer.wrap(ShardIndex, "search_batch", "core.shard")
    tracer.wrap(online_broker, "merge_shard_results_batch", "core.merge")
    tracer.wrap(core_index, "merge_segment_results_batch", "core.merge")
    tracer.wrap(LannsBuilder, "partition", "core.partition")
    tracer.wrap(segmenter_type, "route_query_batch", "segmenters.route")
    tracer.wrap(LannsBuilder, "learn_segmenter", "segmenters.learn")
    tracer.wrap(HnswIndex, "search_batch", "hnsw.search")
    tracer.wrap(HnswIndex, "add", "hnsw.add")
    tracer.wrap(HnswIndex, "to_arrays", "hnsw.to_arrays")
    tracer.wrap(HnswIndex, "from_arrays", "hnsw.from_arrays")
    tracer.wrap(Scorer, "score_pairs", "distance.score")
    tracer.wrap(_int8_view_type(), "score_pairs", "distance.score")
    tracer.wrap(ledger_workloads.BuildWorkload, "_build", "core.build")
    tracer.wrap(ledger_workloads, "save_lanns_index", "storage.save")
    tracer.wrap(ledger_workloads, "load_lanns_index", "storage.load")


def _int8_view_type() -> type:
    """The class ``QuantizedStore.view`` returns for int8 codes, reached
    through the public API."""
    scorer = Scorer("euclidean", 4)
    scorer.add(np.eye(4, dtype=np.float32))
    store = QuantizedStore(scorer, "int8")
    return type(store.view(scorer.prepare_queries(np.eye(4, dtype=np.float32))))


# -- timing helper -------------------------------------------------------------------
class Probe:
    """Times callables in reference time: min over a few repeats, each
    next to its own calibration samples."""

    def __init__(self, calibrator: Calibrator, repeats: int) -> None:
        self.calibrator = calibrator
        self.repeats = repeats

    def seconds(self, call, repeats: int | None = None) -> float:
        durations, when = [], []
        half = estimator.NEAREST // 2
        self.calibrator.burst(half)
        for _ in range(repeats or self.repeats):
            tick = time.perf_counter()
            call()
            tock = time.perf_counter()
            self.calibrator.burst(half)
            durations.append(tock - tick)
            when.append(0.5 * (tick + tock))
        reference, _ = estimator.score_repeats(
            durations,
            when,
            self.calibrator.times,
            self.calibrator.durations,
            "min",
        )
        return reference


# -- stage W: the workload itself, wrappers off / on ----------------------------------
def trace_workload(
    workload, tracer: tracing.Tracer, calibrator: Calibrator, seconds: float
) -> dict:
    """Replay the first half of the stream untraced and traced, alternately.

    Returns both reference-time totals (each request scored by its min
    across passes, as the ledger does), the traced spans and the
    responses and cache counters of the last traced pass.
    """
    count = max(workload.num_requests // 2, 1)
    burst = workload.spec.calibration_burst
    spent = {False: [], True: []}
    mids = {False: [], True: []}
    first_span = tracer.mark()
    traced_responses: list = []
    counters: dict = {}
    calibrator.burst(estimator.NEAREST)
    started = time.perf_counter()
    while True:
        for traced in (False, True):
            workload.begin_pass()
            durations, when, responses = [], [], []
            for position in range(count):
                tracer.enabled = traced
                tick = time.perf_counter()
                try:
                    response = workload.run_request(position)
                finally:
                    tracer.enabled = False
                tock = time.perf_counter()
                calibrator.burst(burst)
                durations.append(tock - tick)
                when.append(0.5 * (tick + tock))
                responses.append(response)
            spent[traced].append(durations)
            mids[traced].append(when)
            # Traced or not, every pass must answer bit for bit the same.
            if traced:
                counters = workload.pass_counters()
                traced_responses = responses
            workload.end_pass(responses)
        pairs = len(spent[True])
        elapsed = time.perf_counter() - started
        if pairs >= 2 and elapsed + 0.5 * elapsed / pairs >= seconds:
            break
    reference, pooled = {}, {}
    for traced in (False, True):
        levels = estimator.local_levels(
            calibrator.times, calibrator.durations, np.asarray(mids[traced])
        )
        per_request = estimator.to_reference(np.asarray(spent[traced]), levels)
        reference[traced] = float(per_request.min(axis=0).sum())
        pooled[traced] = float(per_request.mean())
    return {
        "requests": count,
        "pairs": pairs,
        "untraced_s": reference[False],
        "traced_s": reference[True],
        "untraced_mean_s": pooled[False],
        "spans": tracing.to_reference(
            tracer.spans[first_span:], calibrator.times, calibrator.durations
        ),
        "responses": traced_responses,
        "counters": counters,
    }


# -- stage S: the same requests through an in-process service ----------------------------
def replay_in_process(
    inputs: ledger_workloads.LayerInputs, tracer: tracing.Tracer, calibrator: Calibrator
) -> dict:
    """Serve the head of the stream in process, traced.

    Returns per-request spans (reference time), the summed ``SearchCost``
    and the query count.  One untraced pass first, so lazily built state
    exists.
    """
    service = OnlineService()
    requests = inputs.replayed()
    try:
        service.deploy(inputs.fs, inputs.path)
        for request in requests:
            service.execute(request)
        since = tracer.mark()
        responses = []
        calibrator.burst(estimator.NEAREST)
        for request in requests:
            tracer.enabled = True
            try:
                responses.append(service.execute(request))
            finally:
                tracer.enabled = False
            calibrator.burst(estimator.NEAREST // 2)
    finally:
        service.close()
    cost: dict[str, int] = defaultdict(int)
    for response in responses:
        for key, value in (response.cost or {}).items():
            cost[key] += value
    return {
        "spans": tracing.to_reference(
            tracer.spans[since:], calibrator.times, calibrator.durations
        ),
        "cost": dict(cost),
        "queries": sum(request.queries.shape[0] for request in requests),
    }


# -- span arithmetic ---------------------------------------------------------------------
def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def searched_requests(spans: list[list]) -> set[int]:
    """Requests that reached a searcher (cache misses, or everything when
    there is no cache)."""
    return {
        span[tracing.REQUEST]
        for span in spans
        if span[tracing.NAME] in ("online.searcher", "net.transport")
    }


def layer_seconds(stage_w: dict, stage_s: dict) -> tuple[dict[str, float], float]:
    """Mean self seconds per layer over the requests that were searched,
    and their mean end-to-end seconds.

    For a remote fleet the client only sees the RPC; the part of it the
    searchers spend searching is taken from stage S and the rest is
    ``net``.
    """
    spans = stage_w["spans"]
    selves = tracing.self_times(spans)
    roots = {
        span[tracing.REQUEST]: span[tracing.END] - span[tracing.START]
        for span in spans
        if span[tracing.PARENT] is None and span[tracing.END] is not None
    }
    searched = searched_requests(spans) or set(roots)
    layers: dict[str, float] = defaultdict(float)
    for request in searched:
        for name, seconds in selves[request].items():
            layers[_layer(name)] += seconds
    count = max(len(searched), 1)
    layers = {layer: seconds / count for layer, seconds in layers.items()}
    total = sum(roots[request] for request in searched if request in roots) / count
    rpc = 0.0
    if "net" in layers:
        # Shard RPCs overlap: the request waits for their union, not
        # their sum.
        waits = tracing.durations(spans, "net.transport")
        rpc = sum(waits.get(request, 0.0) for request in searched) / count
        layers["net"] = rpc
    if rpc:
        inside = searcher_breakdown(stage_s["spans"])
        server = min(sum(inside.values()), rpc)
        scale = server / max(sum(inside.values()), 1e-12)
        for layer, seconds in inside.items():
            layers[layer] = layers.get(layer, 0.0) + seconds * scale
        layers["net"] = rpc - server
    return layers, total


def searcher_breakdown(spans: list[list]) -> dict[str, float]:
    """Mean per-request layer seconds inside ``SearcherNode.search_batch``,
    all shards together: the run is pinned to one CPU, so a fleet's
    searchers answer one after another, exactly as stage S runs them."""
    children = tracing.children_of(spans)
    totals: dict[str, float] = defaultdict(float)

    def subtree(span: list) -> None:
        kids = children.get(id(span), ())
        below = tracing.covered(
            [(kid[tracing.START], kid[tracing.END]) for kid in kids],
            span[tracing.START],
            span[tracing.END],
        )
        totals[_layer(span[tracing.NAME])] += (
            span[tracing.END] - span[tracing.START] - below
        )
        for kid in kids:
            subtree(kid)

    requests = set()
    for span in spans:
        if span[tracing.NAME] == "online.searcher":
            requests.add(span[tracing.REQUEST])
            subtree(span)
    count = max(len(requests), 1)
    return {layer: seconds / count for layer, seconds in totals.items()}


def span_total(spans: list[list], name: str) -> float:
    return sum(
        span[tracing.END] - span[tracing.START]
        for span in spans
        if span[tracing.NAME] == name and span[tracing.END] is not None
    )


# -- stage P: layer probes ------------------------------------------------------------------
def probe_layers(
    inputs: ledger_workloads.LayerInputs, fleet: list, probe: Probe, seed: int, workdir
) -> dict[str, float]:
    """Time each layer's public functions on this workload's shapes."""
    out: dict[str, float] = {}
    config = inputs.config
    corpus = inputs.corpus
    metric = config.metric
    dim = corpus.shape[1]
    rng = np.random.default_rng([int(seed), 11])
    request = inputs.requests[0]
    top_k = request.top_k
    ef = config.hnsw.ef_search
    queries = np.concatenate([each.queries for each in inputs.requests])
    batch = queries[:BATCH_ROWS]
    index = load_lanns_index(inputs.fs, inputs.path)
    segment = max(index.shards[0].segments, key=len)
    rows = len(segment)

    # distance: one "round" scores the same number of pairs one query at a
    # time (B=1) and as one lockstep batch (B=64).
    scorer = Scorer(metric, dim)
    scorer.add(corpus[:rows])
    prepared = scorer.prepare_queries(batch)
    query_sq = scorer.query_sq_norms(prepared)
    ids = rng.integers(0, rows, size=prepared.shape[0] * ROUND_IDS)
    batch_rows = np.repeat(np.arange(prepared.shape[0]), ROUND_IDS)
    zeros = np.zeros(ROUND_IDS, dtype=np.int64)
    singles = [
        (prepared[row : row + 1], query_sq[row : row + 1],
         ids[row * ROUND_IDS : (row + 1) * ROUND_IDS])
        for row in range(prepared.shape[0])
    ]
    pairs = 2 * ids.size

    def float_round() -> None:
        for one, one_sq, one_ids in singles:
            scorer.score_pairs(one, zeros, one_ids, one_sq)
        scorer.score_pairs(prepared, batch_rows, ids, query_sq)

    store = QuantizedStore(scorer, "int8")
    store.refresh()
    view = store.view(prepared)
    views = [store.view(one) for one, _, _ in singles]

    def int8_round() -> None:
        for (one, one_sq, one_ids), one_view in zip(singles, views):
            one_view.score_pairs(one, zeros, one_ids, one_sq)
        view.score_pairs(prepared, batch_rows, ids, query_sq)

    pair_s = probe.seconds(float_round) / pairs
    out["distance.score_pairs_ns_per_pair"] = pair_s * 1e9
    out["distance.int8_ns_per_pair"] = probe.seconds(int8_round) / pairs * 1e9
    gemm_s = probe.seconds(lambda: scorer.score_all_batch(prepared))
    out["distance.gemm_roofline_ratio"] = (
        gemm_s / (prepared.shape[0] * rows)
    ) / pair_s

    # hnsw
    def search_singles() -> None:
        for query in batch:
            segment.search(query, top_k, ef)

    out["hnsw.search_ms_per_query"] = (
        probe.seconds(search_singles) / batch.shape[0] * 1e3
    )
    out["hnsw.search_batch_ms_per_query"] = (
        probe.seconds(lambda: segment.search_batch(batch, top_k, ef))
        / batch.shape[0]
        * 1e3
    )
    add_rows = min(ADD_ROWS, corpus.shape[0])

    def add() -> None:
        HnswIndex(dim, metric, config.hnsw).add(corpus[:add_rows])

    out["hnsw.add_vectors_per_s"] = add_rows / probe.seconds(add, 2)
    out["hnsw.to_arrays_ms"] = probe.seconds(segment.to_arrays) * 1e3
    payload = segment.to_arrays()
    out["hnsw.from_arrays_ms"] = (
        probe.seconds(lambda: HnswIndex.from_arrays(payload)) * 1e3
    )

    # segmenters / core
    builder = LannsBuilder(config)
    out["segmenters.learn_s"] = probe.seconds(
        lambda: builder.learn_segmenter(corpus)
    )
    shard = index.shards[0]

    def route() -> None:
        for query in batch:
            shard.probed_segments(query)

    out["segmenters.route_us_per_query"] = (
        probe.seconds(route) / batch.shape[0] * 1e6
    )
    all_ids = np.arange(corpus.shape[0], dtype=np.int64)
    out["core.partition_s"] = probe.seconds(
        lambda: builder.partition(corpus, all_ids, index.segmenter)
    )
    budget = index.per_shard_budget(top_k)
    parts = [
        each.search_batch(request.queries, budget, ef=ef)
        for each in index.shards
    ]
    merge_rounds = 50

    def merge() -> None:
        for _ in range(merge_rounds):
            merge_shard_results_batch(parts, top_k)

    out["core.merge_us_per_query"] = (
        probe.seconds(merge) / (merge_rounds * request.queries.shape[0]) * 1e6
    )

    # storage
    probe_fs = LocalHdfs(workdir / "probe-export")
    megabytes = ledger_workloads.exported_bytes(inputs.fs, inputs.path) / 1e6
    out["storage.save_mb_per_s"] = megabytes / probe.seconds(
        lambda: save_lanns_index(index, probe_fs, "probe"), 3
    )
    out["storage.load_mb_per_s"] = megabytes / probe.seconds(
        lambda: load_lanns_index(probe_fs, "probe"), 3
    )

    # online: the result cache on this workload's query shape
    cache = QueryResultCache(256)
    keys = [
        result_cache_key("default", query, top_k, ef, config.num_shards, 1)
        for query in queries[:256]
    ]
    row_ids, row_dists = parts[0][0][0, :top_k], parts[0][1][0, :top_k]

    def puts() -> None:
        for key in keys:
            cache.put(key, row_ids, row_dists)

    def gets() -> None:
        for key in keys:
            cache.get(key)

    out["online.cache_put_us"] = probe.seconds(puts) / len(keys) * 1e6
    out["online.cache_get_us"] = probe.seconds(gets) / len(keys) * 1e6

    out.update(probe_wire(inputs, fleet, probe, workdir, budget, parts[0]))
    return out


def probe_wire(
    inputs: ledger_workloads.LayerInputs,
    fleet: list,
    probe: Probe,
    workdir,
    budget: int,
    part: tuple[np.ndarray, np.ndarray],
) -> dict[str, float]:
    """The ``net`` layer: frames of this workload's SEARCH / RESULT shapes,
    then a live searcher process (the workload's own fleet, or one launched
    here and stopped again)."""
    out: dict[str, float] = {}
    config = inputs.config
    request = inputs.requests[0]
    ef = config.hnsw.ef_search
    search_header = {"index": "default", "top_k": budget, "ef": ef, "cost": True}
    result_header = {"index": "default", "cost": dict.fromkeys(COST_FIELDS, 1000)}
    wire_queries = np.ascontiguousarray(request.queries, dtype=np.float32)
    frame_rounds = 100

    def encode() -> None:
        for _ in range(frame_rounds):
            frame_to_bytes(MsgType.SEARCH, search_header, (wire_queries,))
            frame_to_bytes(MsgType.RESULT, result_header, part)

    search_frame = frame_to_bytes(MsgType.SEARCH, search_header, (wire_queries,))
    result_frame = frame_to_bytes(MsgType.RESULT, result_header, part)

    def decode() -> None:
        for _ in range(frame_rounds):
            decode_frame(search_frame)
            decode_frame(result_frame)

    out["net.encode_us_per_frame"] = (
        probe.seconds(encode) / (2 * frame_rounds) * 1e6
    )
    out["net.decode_us_per_frame"] = (
        probe.seconds(decode) / (2 * frame_rounds) * 1e6
    )
    out["frame_bytes"] = len(search_frame) + len(result_frame)

    own_fleet = []
    if not fleet:
        own_fleet = fleet = launch_fleet(
            config.num_shards,
            root=str(inputs.fs.root),
            log_dir=workdir / "searcher-logs",
        )
    transport = RemoteSearcherTransport(fleet_addresses(fleet)[0], 0)
    try:
        pings = 50

        def ping() -> None:
            for _ in range(pings):
                transport.verify()

        rtt_s = probe.seconds(ping) / pings
        out["net.rpc_rtt_ms"] = rtt_s * 1e3

        def deploy() -> None:
            transport.deploy("probe", inputs.path, root=str(inputs.fs.root))

        deploys = []
        for _ in range(3):
            deploys.append(probe.seconds(deploy, 1))
            transport.undeploy("probe")
        out["net.deploy_s"] = min(deploys)
        transport.deploy("probe", inputs.path, root=str(inputs.fs.root))
        replayed = inputs.replayed()

        def remote_search() -> None:
            for each in replayed:
                transport.search_batch("probe", each.queries, budget, ef=ef)

        remote_search()
        rpc_s = probe.seconds(remote_search) / len(replayed)
        out["net.server_search_ms_per_query"] = (
            (rpc_s - rtt_s) / request.queries.shape[0] * 1e3
        )
        transport.undeploy("probe")
    finally:
        transport.close()
        shutdown_fleet(own_fleet)
    return out


# -- the traced run -----------------------------------------------------------------------
def run_traced(
    name: str, seed: int, seconds: float, *, smoke: bool = False
) -> dict:
    """One traced run of one workload; returns the per-layer report."""
    calibrator = Calibrator()
    tracer = tracing.Tracer()
    probe = Probe(calibrator, 2 if smoke else 5)
    runner.pin_to_one_cpu()
    with runner.scratch_dir() as workdir:
        workload = ledger_workloads.make_workload(
            name, seed, workdir, smoke=smoke
        )
        try:
            workload.prepare()
            workload.open()
            inputs = workload.layer_inputs()
            install(tracer, type(load_segmenter(inputs.fs, inputs.path)))
            runner.warm_up(workload)
            with runner.quiet_gc():
                stage_w = trace_workload(
                    workload, tracer, calibrator, seconds / 2
                )
                stage_s = replay_in_process(inputs, tracer, calibrator)
                probes = probe_layers(
                    inputs, workload.fleet, probe, seed, workdir
                )
        finally:
            tracer.uninstall()
            workload.close()
    runner.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    tracer.dump(runner.RESULTS_DIR / f"trace_{name}.json")

    metrics = dict(probes)
    frame_bytes = metrics.pop("frame_bytes")
    serving = isinstance(workload, ledger_workloads.ServingWorkload)
    spans_s = stage_s["spans"]
    queries_s = max(stage_s["queries"], 1)

    # Wherever a broker ran: the workload's own service for the serving
    # workloads, the in-process replay for the build workload.  Counts
    # are the SearchCost of its responses (cache hits cost nothing).
    if serving:
        spans_b = stage_w["spans"]
        cost: dict[str, int] = defaultdict(int)
        for response in stage_w["responses"]:
            for key, value in (response.cost or {}).items():
                cost[key] += value
        queries_pass = sum(r.ids.shape[0] for r in stage_w["responses"])
        queries_b = queries_pass * stage_w["pairs"]
    else:
        spans_b, cost = spans_s, stage_s["cost"]
        queries_pass = queries_b = queries_s
    queries_pass, queries_b = max(queries_pass, 1), max(queries_b, 1)
    metrics["distance.comps_per_query"] = (
        cost.get("distance_comps", 0) / queries_pass
    )
    metrics["hnsw.hops_per_query"] = cost.get("hops", 0) / queries_pass
    metrics["hnsw.candidates_per_query"] = (
        cost.get("candidates_visited", 0) / queries_pass
    )
    metrics["hnsw.rescore_rows_per_query"] = (
        cost.get("rescore_rows", 0) / queries_pass
    )
    metrics["segmenters.probed_per_query"] = (
        cost.get("segments_probed", 0) / queries_pass
    )

    metrics["online.searcher_ms_per_query"] = (
        span_total(spans_s, "online.searcher") / queries_s * 1e3
    )
    metrics["core.shard_self_ms_per_query"] = (
        (span_total(spans_s, "core.shard") - span_total(spans_s, "hnsw.search"))
        / queries_s
        * 1e3
    )
    below = sum(
        sum(tracing.durations(spans_b, each).values())
        for each in ("online.searcher", "net.transport")
    )
    metrics["online.broker_self_ms_per_query"] = (
        (span_total(spans_b, "online.broker") - below) / queries_b * 1e3
    )

    counters = stage_w["counters"]
    lookups = counters.get("hits", 0) + counters.get("misses", 0)
    metrics["online.cache_hit_ratio"] = (
        counters.get("hits", 0) / lookups if lookups else 0.0
    )
    metrics["online.cache_evictions"] = float(counters.get("evictions", 0))
    rpcs = sum(
        1 for span in stage_w["spans"] if span[tracing.NAME] == "net.transport"
    )
    metrics["net.rpcs_per_query"] = rpcs / queries_b
    metrics["net.wire_bytes_per_query"] = rpcs * frame_bytes / queries_b

    metrics["trace.overhead_ratio"] = stage_w["untraced_s"] / stage_w["traced_s"]
    layers, searched_s = layer_seconds(stage_w, stage_s)
    total = max(sum(layers.values()), 1e-12)
    roots = [
        span[tracing.END] - span[tracing.START]
        for span in stage_w["spans"]
        if span[tracing.PARENT] is None
    ]
    metrics["trace.self_sum_ratio"] = (
        sum(roots) / max(len(roots), 1) / stage_w["untraced_mean_s"]
    )
    metrics["trace.share_hnsw_distance"] = (
        layers.get("hnsw", 0.0) + layers.get("distance", 0.0)
    ) / total
    metrics["trace.share_net_online"] = (
        layers.get("net", 0.0) + layers.get("online", 0.0)
    ) / total
    metrics["trace.calib_ms"] = calibrator.level_ms()

    correct = bool(workload.failed == 0)
    return {
        "workload": name,
        "correct": correct,
        "attempted": int(max(workload.attempted, 1)),
        "failed": int(workload.failed),
        "metrics": {
            key: {"value": float(metrics[key]), "unit": unit}
            for key, unit in PER_LAYER.items()
        },
        "ungated": {
            "searched_request_ms": float(searched_s) * 1e3,
            **{
                f"layer_ms.{layer}": float(seconds) * 1e3
                for layer, seconds in sorted(layers.items())
            },
        },
        "counts": {
            "traced_requests": stage_w["requests"],
            "traced_pass_pairs": stage_w["pairs"],
            "spans": len(tracer.spans),
            "replayed_requests": len(inputs.replayed()),
            "cost": dict(cost),
            "cache": counters,
        },
        "notes": workload.notes,
        "environment": runner.environment(seed, workload, stage_w["pairs"]),
    }
