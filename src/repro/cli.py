"""Command-line interface for the LANNS platform.

The subcommands mirror the platform lifecycle::

    python -m repro.cli build  --data vectors.npy --out idx --shards 2 \
        --segments 4 --segmenter apd --root /tmp/lanns
    python -m repro.cli serve-searcher --shard-id 0 --port 7201 \
        --root /tmp/lanns
    python -m repro.cli query  --index idx --queries q.npy --top-k 10 \
        --root /tmp/lanns --out results.npz
    python -m repro.cli query  --index idx --queries q.npy --top-k 10 \
        --root /tmp/lanns --searchers 127.0.0.1:7201,127.0.0.1:7202
    python -m repro.cli info   --index idx --root /tmp/lanns
    python -m repro.cli bench  --dataset sift1m --top-k 10
    python -m repro.cli stats  --searchers 127.0.0.1:7201,127.0.0.1:7202
    python -m repro.cli trace  --file trace.json

``--root`` is the LocalHdfs root directory all paths are relative to.
Vector files are ``.npy`` (float32 matrices) or ``.fvecs``.
``serve-searcher`` turns this process into one searcher machine of the
paper's online topology (Section 7); ``query --searchers`` fronts such a
fleet with an in-process broker instead of running the offline pipeline.
``stats`` merges a fleet's metric registries into one Prometheus-style
text dump; ``trace`` pretty-prints trace JSON (``query --trace-out``)
as an indented span tree.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.config import LannsConfig
from repro.data.io import read_fvecs
from repro.errors import LannsError
from repro.net.server import SearcherServer, ServerOptions
from repro.offline.indexing import build_index_job
from repro.offline.querying import query_index_job
from repro.online.broker import BrokerPolicy
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from repro.sparklite.cluster import EXECUTION_MODES, LocalCluster
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import load_manifest


def _load_vectors(path: str) -> np.ndarray:
    """Load a vector matrix from .npy or .fvecs."""
    suffix = Path(path).suffix.lower()
    if suffix == ".npy":
        return np.load(path).astype(np.float32)
    if suffix == ".fvecs":
        return read_fvecs(path)
    raise SystemExit(f"unsupported vector file {path!r} (use .npy or .fvecs)")


def _spill(value: str):
    """Parse --spill: a positive int, or the string 'all'."""
    if value == "all":
        return "all"
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a segment count or 'all', got {value!r}"
        ) from None
    if parsed < 1:
        raise argparse.ArgumentTypeError(
            f"spill must be >= 1, got {value!r}"
        )
    return parsed


#: ``bench`` builds a small registry dataset: its own defaults for four
#: config fields, and the ``build`` flags it has never had (the dataset
#: fixes the metric; the rest are layouts and scorers it does not sweep).
_BENCH_DEFAULTS = dict(num_segments=4, segmenter="apd", M=12, ef_construction=56)
_BENCH_OMITS = {
    "sharding", "alpha", "spill_mode", "metric",
    "min_graph_size", "rescore_k", "pq_subspaces",
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--root", required=True, help="LocalHdfs root directory"
    )
    parser.add_argument(
        "--executors", type=int, default=4, help="cluster executors"
    )


def _cmd_build(args: argparse.Namespace) -> int:
    vectors = _load_vectors(args.data)
    config = LannsConfig.from_args(args)
    fs = LocalHdfs(args.root)
    cluster = LocalCluster(
        num_executors=args.executors, mode=args.cluster_mode, fs=fs
    )
    begin = time.perf_counter()
    manifest, metrics = build_index_job(
        cluster, fs, vectors, config, args.out
    )
    elapsed = time.perf_counter() - begin
    print(
        f"built {manifest.total_vectors} vectors "
        f"({config.num_shards}x{config.num_segments} partitions) "
        f"into {args.root}/{args.out} in {elapsed:.1f}s"
    )
    print(f"per-partition build work: {metrics.total_task_time:.1f}s")
    for executors in (2, 4, 8):
        print(
            f"  simulated makespan @ {executors} executors: "
            f"{metrics.makespan(executors):.1f}s"
        )
    return 0


def _check_query_mode(args: argparse.Namespace) -> None:
    """A flag that only one of ``query``'s two modes reads is refused in
    the other, not silently dropped."""
    remote_only = [
        flag
        for flag, spec in BrokerPolicy.flags().items()
        if getattr(args, spec.name) != spec.default
    ]
    extras = (("--spill", args.spill), ("--trace-out", args.trace_out))
    remote_only += [flag for flag, value in extras if value is not None]
    if args.searchers and args.no_checkpoint:
        args.error("--no-checkpoint belongs to the offline job (no --searchers)")
    if remote_only and not args.searchers:
        args.error(f"{remote_only[0]} belongs to remote mode (--searchers)")


def _cmd_query(args: argparse.Namespace) -> int:
    _check_query_mode(args)
    queries = _load_vectors(args.queries)
    fs = LocalHdfs(args.root)
    if args.searchers:
        return _query_remote(args, fs, queries)
    cluster = LocalCluster(num_executors=args.executors, fs=fs)
    begin = time.perf_counter()
    result = query_index_job(
        cluster,
        fs,
        args.index,
        queries,
        args.top_k,
        ef=args.ef,
        checkpoint=not args.no_checkpoint,
    )
    elapsed = time.perf_counter() - begin
    print(
        f"answered {queries.shape[0]} queries (top-{args.top_k}) "
        f"in {elapsed:.2f}s "
        f"({elapsed / queries.shape[0] * 1e3:.2f} ms/query wall)"
    )
    if args.out:
        np.savez_compressed(args.out, ids=result.ids, dists=result.dists)
        print(f"wrote ids/dists to {args.out}")
    else:
        for row in range(min(5, queries.shape[0])):
            print(f"  query {row}: {result.ids[row][:10].tolist()}")
    return 0


def _query_remote(
    args: argparse.Namespace, fs: LocalHdfs, queries: np.ndarray
) -> int:
    """Front a remote searcher fleet: deploy over RPC, one broker fan-out."""
    service = OnlineService(
        searchers=args.searchers,
        policy=BrokerPolicy.from_args(args),
        # --trace-out force-samples this one request so the exported
        # trace is guaranteed to exist.
        trace_sample_rate=1.0 if args.trace_out else 0.0,
    )
    deployed = False
    try:
        service.deploy(fs, args.index, index_name="default")
        deployed = True
        begin = time.perf_counter()
        response = service.execute(
            SearchRequest(
                queries=queries,
                top_k=args.top_k,
                index_name="default",
                ef=args.ef,
                spill=args.spill,
            )
        )
        elapsed = time.perf_counter() - begin
        ids, dists = response.ids, response.dists
        print(
            f"answered {queries.shape[0]} queries (top-{args.top_k}) over "
            f"{len(service.searchers)} remote searchers in {elapsed:.2f}s "
            f"({elapsed / queries.shape[0] * 1e3:.2f} ms/query wall)"
        )
        if args.spill is not None and args.spill != "all":
            routed = response.shards_routed
            print(
                f"  routed (spill={args.spill}): mean "
                f"{routed.mean():.2f} of {response.num_shards} "
                "shard groups queried per row"
            )
        if response.degraded_rows:
            print(
                f"  DEGRADED: {response.degraded_rows} of "
                f"{queries.shape[0]} rows missing at least one "
                "routed shard"
            )
        if response.cost is not None:
            cost = response.cost
            print(
                f"  cost: {cost.get('distance_comps', 0)} distance comps, "
                f"{cost.get('hops', 0)} hops, "
                f"{cost.get('segments_probed', 0)} segments probed"
            )
        if args.trace_out:
            if response.trace is None:
                print("  no trace captured (request served from cache?)")
            else:
                with open(args.trace_out, "w") as handle:
                    json.dump(response.trace, handle, indent=2)
                print(
                    f"wrote trace to {args.trace_out} (pretty-print: "
                    f"python -m repro.cli trace --file {args.trace_out})"
                )
        if args.out:
            np.savez_compressed(args.out, ids=ids, dists=dists)
            print(f"wrote ids/dists to {args.out}")
        else:
            for row in range(min(5, queries.shape[0])):
                print(f"  query {row}: {ids[row][:10].tolist()}")
    finally:
        # Always leave the fleet clean: a query failure (or Ctrl-C)
        # must not keep 'default' hosted, or the next run's deploy
        # would refuse with "already hosts".
        if deployed:
            try:
                service.undeploy("default")
            except (LannsError, OSError) as exc:
                # Cleanup is best-effort (the fleet may already be gone),
                # but the operator should know the undeploy didn't land.
                print(f"warning: undeploy failed: {exc}", file=sys.stderr)
        service.close()
    return 0


def _cmd_serve_searcher(args: argparse.Namespace) -> int:
    server = SearcherServer(
        SearcherNode(args.shard_id),
        host=args.host,
        port=args.port,
        root=args.root,
        options=ServerOptions.from_args(args),
    )
    return server.run()


def _cmd_info(args: argparse.Namespace) -> int:
    fs = LocalHdfs(args.root)
    manifest = load_manifest(fs, args.index)
    payload = manifest.to_dict()
    payload.pop("checksums", None)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Pretty-print exported trace JSON as indented span trees.

    Accepts a single trace dict (``query --trace-out``), a list of them
    (``Tracer.export_json``), or ``-`` for stdin.
    """
    from repro.obs.tracing import format_trace

    if args.file == "-":
        payload = json.load(sys.stdin)
    else:
        with open(args.file) as handle:
            payload = json.load(handle)
    traces = [payload] if isinstance(payload, dict) else list(payload)
    for position, trace in enumerate(traces):
        if position:
            print()
        print(format_trace(trace))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Fan STATS out to a searcher fleet; merge and render its metrics.

    Every searcher ships its process-wide metrics snapshot inside the
    STATS reply; merging them into one fresh registry yields a single
    fleet-level Prometheus text dump (counters add, gauges last-write,
    histogram buckets add).  ``--json`` prints the raw per-node stats
    instead.
    """
    from repro.net.client import RemoteSearcherClient
    from repro.net.fleet import parse_fleet_spec
    from repro.obs.metrics import MetricsRegistry

    addresses = [
        address
        for group in parse_fleet_spec(args.searchers)
        for address in group
    ]
    merged = MetricsRegistry()
    nodes: list[tuple[str, dict]] = []
    for address in addresses:
        client = RemoteSearcherClient(address, timeout_s=args.timeout_s)
        try:
            stats = client.stats(
                deadline=time.monotonic() + args.timeout_s
            )
        finally:
            client.close()
        merged.merge_snapshot(stats.pop("metrics", {}))
        nodes.append((address, stats))
    if args.json:
        print(json.dumps(dict(nodes), indent=2, sort_keys=True, default=str))
        return 0
    for address, stats in nodes:
        print(
            f"# searcher {address}: shard {stats.get('shard_id')}, "
            f"{stats.get('requests_served', 0)} requests, "
            f"{stats.get('queries_served', 0)} queries"
        )
    print(merged.render_text(), end="")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.core.builder import build_lanns_index
    from repro.data.datasets import load_dataset
    from repro.eval.serving import serving_throughput
    from repro.offline.recall import recall_at_k

    dataset = load_dataset(args.dataset)
    config = LannsConfig.from_args(args)
    print(f"dataset {dataset!r}")
    begin = time.perf_counter()
    index = build_lanns_index(dataset.base, config=config)
    print(f"build: {time.perf_counter() - begin:.1f}s")
    top_k = min(args.top_k, dataset.num_base)
    report = serving_throughput(
        index,
        dataset.queries,
        top_k,
        ef=args.ef,
        batch_size=args.batch_size,
        collect_ids=True,
    )
    recall = recall_at_k(report["ids"], dataset.ground_truth(top_k), top_k)
    sequential, batched = report["sequential"], report["batched"]
    print(
        f"recall@{top_k}: {recall:.4f}  "
        f"qps: {sequential['qps']:.0f}  p99: {sequential['p99_ms']:.2f} ms"
    )
    print(
        f"batched (B={args.batch_size}) qps: {batched['qps']:.0f}  "
        f"batch p99: {batched['p99_batch_ms']:.2f} ms  "
        f"speedup: {report['speedup']:.2f}x"
    )
    if args.clients > 0:
        from repro.eval.serving import concurrent_serving_throughput

        load = concurrent_serving_throughput(
            index,
            dataset.queries,
            top_k,
            ef=args.ef,
            clients=args.clients,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            cache_size=args.cache_size,
        )
        concurrent, cached = load["concurrent"], load["cached"]
        print(
            f"concurrent ({load['clients']} clients, micro-batch "
            f"{args.max_batch}/{args.max_wait_ms}ms) qps: "
            f"{concurrent['qps']:.0f}  p99: {concurrent['p99_ms']:.2f} ms  "
            f"speedup: {load['concurrent_speedup']:.2f}x"
        )
        print(
            f"cached repeats qps: {cached['qps']:.0f}  "
            f"speedup: {load['cache_speedup']:.2f}x  "
            f"(hits: {load['core_stats']['cache']['hits']})"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.linter import main as lint_main

    return lint_main(args.argv)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="LANNS: web-scale approximate nearest neighbor lookup",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="build and persist an index")
    _add_common(build)
    build.add_argument("--data", required=True, help=".npy or .fvecs matrix")
    build.add_argument("--out", required=True, help="index path under root")
    LannsConfig.add_flags(build)  # one flag per knob field, hnsw's included
    build.add_argument(
        "--cluster-mode",
        choices=EXECUTION_MODES,
        default="inline",
        help=(
            "how per-partition build tasks execute: 'processes' runs "
            "them on a process pool (real parallelism for multi-"
            "segment builds)"
        ),
    )
    build.set_defaults(handler=_cmd_build)

    serve = commands.add_parser(
        "serve-searcher",
        help="serve one shard position over TCP (the paper's searcher)",
    )
    serve.add_argument(
        "--shard-id", type=int, required=True, help="shard this node serves"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = pick a free one; announced on stdout)",
    )
    serve.add_argument(
        "--root",
        default=None,
        help=(
            "LocalHdfs root to load shards from (defaults to the root "
            "sent with each deploy request)"
        ),
    )
    ServerOptions.add_flags(serve)  # one knob flag per field
    serve.set_defaults(handler=_cmd_serve_searcher)

    query = commands.add_parser("query", help="query a persisted index")
    _add_common(query)
    query.add_argument("--index", required=True, help="index path under root")
    query.add_argument("--queries", required=True, help=".npy or .fvecs")
    query.add_argument("--top-k", type=int, default=10)
    query.add_argument("--ef", type=int, default=None)
    query.add_argument("--out", default=None, help="write results .npz here")
    query.add_argument("--no-checkpoint", action="store_true")
    query.add_argument(
        "--searchers",
        default=None,
        help=(
            "running serve-searcher processes, in shard order; queries "
            "then go through the online broker instead of the offline "
            "pipeline.  Comma-separated host:port per shard "
            "('h:1,h:2'), or ';'-separated replica groups with ','-"
            "separated interchangeable replicas inside each "
            "('h:1,h:2;h:3,h:4' = two shards, two replicas each)"
        ),
    )
    query.add_argument(
        "--spill",
        type=_spill,
        default=None,
        help=(
            "route each query to its top-SPILL segments and fan out "
            "only to the shard groups hosting them ('all' or omitted = "
            "query every shard group; requires a segment-aligned index "
            "for real fan-out savings)"
        ),
    )
    BrokerPolicy.add_flags(query)  # the knob fields: remote mode's policy
    query.add_argument(
        "--trace-out",
        default=None,
        help=(
            "force-sample this request and write its trace (broker + "
            "searcher spans) as JSON here (remote mode; pretty-print "
            "with 'repro.cli trace')"
        ),
    )
    # ``error``: how the handler refuses a flag of the mode it is not in.
    query.set_defaults(handler=_cmd_query, error=query.error)

    info = commands.add_parser("info", help="print an index's manifest")
    _add_common(info)
    info.add_argument("--index", required=True)
    info.set_defaults(handler=_cmd_info)

    stats = commands.add_parser(
        "stats",
        help="merge a searcher fleet's metrics into one text dump",
    )
    stats.add_argument(
        "--searchers",
        required=True,
        help=(
            "running serve-searcher processes (same spec as "
            "'query --searchers')"
        ),
    )
    stats.add_argument(
        "--timeout-s",
        type=float,
        default=10.0,
        help="per-node STATS deadline in seconds",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="print raw per-node stats JSON instead of merged metrics",
    )
    stats.set_defaults(handler=_cmd_stats)

    trace = commands.add_parser(
        "trace",
        help="pretty-print exported trace JSON as a span tree",
    )
    trace.add_argument(
        "--file",
        required=True,
        help="trace JSON ('query --trace-out' output; '-' reads stdin)",
    )
    trace.set_defaults(handler=_cmd_trace)

    bench = commands.add_parser(
        "bench", help="build + evaluate a registry dataset in one shot"
    )
    bench.add_argument("--dataset", default="sift1m")
    bench.add_argument("--top-k", type=int, default=10)
    bench.add_argument("--ef", type=int, default=96)
    bench.add_argument(
        "--batch-size",
        type=int,
        default=32,
        help="batch size for the batched serving measurement",
    )
    bench.add_argument(
        "--clients",
        type=int,
        default=0,
        help=(
            "also load-test the concurrent serving core with this many "
            "closed-loop client threads (0 = skip)"
        ),
    )
    bench.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="micro-batch flush size for the concurrent load test",
    )
    bench.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="micro-batch flush deadline (ms) for the concurrent load test",
    )
    bench.add_argument(
        "--cache-size",
        type=int,
        default=None,
        help=(
            "broker result-cache capacity for the concurrent load test "
            "(default: 2x the query count)"
        ),
    )
    LannsConfig.add_flags(bench, defaults=_BENCH_DEFAULTS, omit=_BENCH_OMITS)
    bench.set_defaults(handler=_cmd_bench)

    lint = commands.add_parser(
        "lint",
        # No token is an option of this parser, "--help" included: all
        # that follows goes to the linter's own parser as it stands.
        prefix_chars="+",
        add_help=False,
        help=(
            "run the repo-specific invariant linter (lock discipline, "
            "asyncio hygiene, determinism, error discipline)"
        ),
    )
    lint.add_argument("argv", nargs="*", help="the linter's arguments")
    lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
