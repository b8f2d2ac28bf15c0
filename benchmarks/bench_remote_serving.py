"""Remote serving over loopback RPC: parity, throughput, degradation.

This benchmark exercises the full multi-process topology of the paper's
Section 7: it builds and exports an index, spawns one **real searcher
subprocess per shard** (``repro.cli serve-searcher`` over loopback TCP),
fronts them with the broker, and

1. asserts **remote parity** -- ids and distances served through the
   RPC fleet are bit-identical to an in-process fleet serving the same
   exported index;
2. measures sequential and batched QPS through both fleets (the remote
   numbers include real framing + socket round-trips);
3. injects a **failure**: one of the (>= 3) searcher processes is
   SIGKILLed mid-serving, and the broker's ``degrade`` partial-result
   policy must keep answering from the survivors, annotate responses
   with ``shards_answered``, and match the exact merge of the surviving
   shards -- while the ``fail`` policy must raise;
4. injects a **straggler**: a fresh fleet where one searcher stalls
   every other request, served through the asyncio fan-out without and
   with hedged requests -- hedged p99 must beat unhedged p99, results
   must stay bit-identical to in-process serving, and the broker must
   report the ``loop`` venue (all in-flight shard RPCs on one thread);
5. prices **one RPC**: min-of-N PING round trip, one-query SEARCH round
   trip and the same search in process, against an in-thread server
   whose transports count write calls -- a SEARCH round trip must be
   exactly one write per side, and a PING must be cheaper than a SEARCH.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_remote_serving.py
    PYTHONPATH=src python benchmarks/bench_remote_serving.py --smoke

``--smoke`` shrinks the corpus so the whole run (including three
interpreter launches) fits CI; every correctness assertion still runs --
parity and failure semantics are the point, not the QPS figures.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.core.merge import merge_shard_results_batch
from repro.data.synthetic import clustered_gaussians, make_queries
from repro.errors import TransportError
from repro.eval.harness import remote_serving_throughput
from repro.eval.tables import format_table
from repro.hnsw.params import HnswParams
from repro.net import client as net_client
from repro.net import server as net_server
from repro.net.client import RemoteSearcherClient
from repro.net.fleet import fleet_addresses, launch_fleet, shutdown_fleet
from repro.net.protocol import ShardCall
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import save_lanns_index

RESULTS_DIR = Path(__file__).parent / "results"
INDEX_PATH = "bench/remote"


def export_index(args: argparse.Namespace, fs: LocalHdfs):
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
    index = build_lanns_index(base, config=config)
    save_lanns_index(index, fs, INDEX_PATH)
    return config, index, queries


def check_degradation(
    args: argparse.Namespace,
    fs: LocalHdfs,
    index,
    fleet,
    queries: np.ndarray,
) -> dict:
    """Kill one searcher; ``degrade`` keeps serving, ``fail`` raises."""
    addresses = fleet_addresses(fleet)
    degrade = OnlineService(
        searchers=addresses,
        partial_policy="degrade",
        request_timeout_s=args.request_timeout_s,
        rpc_retries=0,
    )
    strict = OnlineService(
        searchers=addresses,
        partial_policy="fail",
        request_timeout_s=args.request_timeout_s,
        rpc_retries=0,
    )
    probe = queries[: min(16, queries.shape[0])]
    try:
        degrade.deploy(fs, INDEX_PATH, index_name="default")
        strict.deploy(fs, INDEX_PATH, index_name="strict")
        request = SearchRequest(queries=probe, top_k=args.top_k, ef=args.ef)
        response = degrade.execute(request)
        assert (response.shards_answered == args.shards).all(), (
            "healthy fleet must answer from every shard"
        )

        victim = fleet[1]
        victim.kill()
        response = degrade.execute(request)
        got_ids, got_dists = response.ids, response.dists
        answered = response.shards_answered
        assert (answered == args.shards - 1).all(), (
            f"expected {args.shards - 1} surviving shards, got "
            f"{answered.tolist()}"
        )
        # The degraded answer must be exactly the merge of the
        # surviving shards (same perShardTopK budget, dead rows dropped).
        broker = degrade.brokers["default"]
        budget = broker.per_shard_budget(args.top_k)
        parts = [
            index.shards[shard_id].search_batch(
                probe, budget, ef=args.ef
            )
            for shard_id in range(args.shards)
            if shard_id != victim.shard_id
        ]
        want_ids, want_dists = merge_shard_results_batch(parts, args.top_k)
        assert (got_ids == want_ids).all(), (
            "degraded ids differ from the surviving shards' merge"
        )
        assert (got_dists == want_dists).all(), (
            "degraded distances differ from the surviving shards' merge"
        )

        try:
            strict.query_batch(
                probe, args.top_k, index_name="strict", ef=args.ef
            )
        except TransportError:
            strict_raised = True
        else:
            strict_raised = False
        assert strict_raised, (
            "the fail policy must raise when a searcher is dead"
        )
        stats = broker.stats()["partial"]
        return {
            "killed_shard": victim.shard_id,
            "shards_answered": int(answered[0]),
            "degraded_batches": stats["degraded_batches"],
            "shard_failures": stats["shard_failures"],
        }
    finally:
        degrade.close()
        strict.close()


def check_hedging(
    args: argparse.Namespace, fs: LocalHdfs, queries: np.ndarray
) -> dict:
    """Slow-shard scenario: hedged tail latency must beat unhedged.

    Launches a fresh 3-searcher fleet with ONE straggler (shard 1 stalls
    every other SEARCH by ``--slow-delay-s``, modelling per-request
    pauses rather than a uniformly slow machine), then serves the query
    set through two asyncio fan-out services -- without and with hedging
    -- asserting in-run that

    - every answer (ids AND distances) is bit-identical to in-process
      serving under both modes (hedging may change *when* an answer
      arrives, never *what* it is);
    - hedged p99 latency is strictly below unhedged p99 (the whole point
      of re-issuing a straggling RPC);
    - the broker reported the ``loop`` venue: every in-flight shard RPC
      was multiplexed on its one ``broker-async-loop`` thread.
    """
    probe = queries[: min(32, queries.shape[0])]
    fleet = launch_fleet(
        args.shards,
        root=str(fs.root),
        slow_shard=1,
        slow_every=2,
        slow_delay_s=args.slow_delay_s,
    )
    local = OnlineService()
    unhedged = OnlineService(
        searchers=fleet_addresses(fleet),
        request_timeout_s=args.request_timeout_s,
    )
    hedged = OnlineService(
        searchers=fleet_addresses(fleet),
        hedge_after_s=args.hedge_after_s,
        request_timeout_s=args.request_timeout_s,
    )
    try:
        local.deploy(fs, INDEX_PATH, index_name="default")
        want_ids, want_dists = local.query_batch(probe, args.top_k, ef=args.ef)

        def serve(service: OnlineService, label: str) -> np.ndarray:
            latencies = np.empty(probe.shape[0], dtype=np.float64)
            for row in range(probe.shape[0]):
                tick = time.perf_counter()
                ids, dists = service.query_batch(
                    probe[row : row + 1], args.top_k, ef=args.ef
                )
                latencies[row] = time.perf_counter() - tick
                if not (
                    (ids == want_ids[row : row + 1]).all()
                    and (dists == want_dists[row : row + 1]).all()
                ):
                    raise AssertionError(
                        f"{label} remote result differs from in-process "
                        f"serving at query {row}"
                    )
            return latencies

        unhedged.deploy(fs, INDEX_PATH, index_name="default")
        unhedged_lat = serve(unhedged, "unhedged")
        unhedged.undeploy("default")
        hedged.deploy(fs, INDEX_PATH, index_name="default")
        hedged_lat = serve(hedged, "hedged")
        stats = hedged.brokers["default"].stats()
        hedged.undeploy("default")

        unhedged_p99 = float(np.quantile(unhedged_lat, 0.99) * 1e3)
        hedged_p99 = float(np.quantile(hedged_lat, 0.99) * 1e3)
        if not hedged_p99 < unhedged_p99:
            raise AssertionError(
                f"hedged p99 {hedged_p99:.1f}ms is not below unhedged "
                f"p99 {unhedged_p99:.1f}ms with an injected straggler"
            )
        if stats["hedges"] < 1:
            raise AssertionError("the straggler shard never got hedged")
        if stats["venue"] != "loop":
            raise AssertionError("remote fan-out did not run on the loop")
        return {
            "slow_delay_ms": args.slow_delay_s * 1e3,
            "hedge_after_ms": args.hedge_after_s * 1e3,
            "unhedged_p99_ms": unhedged_p99,
            "hedged_p99_ms": hedged_p99,
            "hedges": stats["hedges"],
            "hedge_wins": stats["hedge_wins"],
        }
    finally:
        local.close()
        unhedged.close()
        hedged.close()
        shutdown_fleet(fleet)


class CountingTransport:
    """A transport that counts the write calls made on it."""

    def __init__(self, transport, counts: Counter, side: str) -> None:
        self._transport = transport
        self._counts = counts
        self._side = side

    def write(self, data) -> None:
        self._counts[self._side] += 1
        self._transport.write(data)

    def writelines(self, buffers) -> None:
        self._counts[self._side] += 1
        self._transport.writelines(buffers)

    def __getattr__(self, name: str):
        return getattr(self._transport, name)


@contextmanager
def counted_writes():
    """Connections made inside the block (either side of the wire, this
    process) write through a :class:`CountingTransport`; yields the
    ``{"client": n, "server": n}`` counter."""
    counts: Counter = Counter()
    originals = {}
    for side, module in (("client", net_client), ("server", net_server)):
        connection = module._Connection
        originals[connection] = made = connection.connection_made

        def connection_made(self, transport, made=made, side=side):
            made(self, CountingTransport(transport, counts, side))

        connection.connection_made = connection_made
    try:
        yield counts
    finally:
        for connection, made in originals.items():
            connection.connection_made = made


def min_ms(call, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        tick = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - tick)
    return best * 1e3


def check_rpc_cost(args: argparse.Namespace, index, queries: np.ndarray) -> dict:
    """What one RPC costs over what it carries, and how many writes."""
    node = SearcherNode(0)
    node.host("default", index.shards[0])
    query = queries[:1]
    repeats = 100 if args.smoke else 400
    with counted_writes() as writes:
        server = net_server.SearcherServer(node).start_in_thread()
        client = RemoteSearcherClient(server.address)
        try:
            call = ShardCall("default", query, args.top_k, ef=args.ef)

            def search():
                return client.search(call)

            want = node.search_batch("default", query, args.top_k, ef=args.ef)
            got = search()  # also dials the one pooled connection
            assert (got.ids == want[0]).all() and (got.dists == want[1]).all()
            writes.clear()
            search()
            assert dict(writes) == {"client": 1, "server": 1}, (
                f"one SEARCH round trip made {dict(writes)} write calls; "
                "a frame is one write per side"
            )
            report = {
                "ping_rtt_ms": min_ms(client.ping, repeats),
                "search_rpc_ms": min_ms(search, repeats),
                "search_in_process_ms": min_ms(
                    lambda: node.search_batch(
                        "default", query, args.top_k, ef=args.ef
                    ),
                    repeats,
                ),
            }
        finally:
            client.close()
            server.stop()
    assert report["ping_rtt_ms"] < report["search_rpc_ms"], (
        f"a PING ({report['ping_rtt_ms']:.3f}ms) must be cheaper than a "
        f"SEARCH RPC ({report['search_rpc_ms']:.3f}ms)"
    )
    return report


def run(args: argparse.Namespace) -> int:
    workdir = tempfile.mkdtemp(prefix="lanns-remote-bench-")
    fleet = []
    try:
        fs = LocalHdfs(workdir)
        config, index, queries = export_index(args, fs)
        print(
            f"corpus: {args.num_base} x {args.dim}, {args.shards} shard(s) "
            f"x {args.segments} segment(s), {queries.shape[0]} queries, "
            f"top_k={args.top_k}, ef={args.ef}"
        )
        fleet = launch_fleet(args.shards, root=workdir)
        print(
            "fleet: "
            + ", ".join(
                f"shard {member.shard_id} @ {member.address} "
                f"(pid {member.process.pid})"
                for member in fleet
            )
        )
        report = remote_serving_throughput(
            fs,
            INDEX_PATH,
            queries,
            args.top_k,
            addresses=fleet_addresses(fleet),
            ef=args.ef,
            batch_size=args.batch_size,
            request_timeout_s=args.request_timeout_s,
        )
        print(
            "parity: remote fleet results bit-identical to in-process ✓"
        )
        rows = [
            {
                "mode": "in-process fleet (batched)",
                "qps": report["local"]["qps"],
            },
            {
                "mode": "remote fleet (sequential RPC)",
                "qps": report["remote_sequential"]["qps"],
            },
            {
                "mode": f"remote fleet (batched x{args.batch_size})",
                "qps": report["remote_batched"]["qps"],
            },
        ]
        text = format_table(
            rows,
            title=(
                "Remote serving over loopback RPC "
                f"({args.shards} searcher subprocesses)"
            ),
        )
        print("\n" + text + "\n")

        degradation = check_degradation(args, fs, index, fleet, queries)
        print(
            f"degradation: killed shard {degradation['killed_shard']}; "
            f"degrade policy answered from "
            f"{degradation['shards_answered']}/{args.shards} shards "
            "(exact merge of survivors ✓), fail policy raised ✓"
        )

        hedging = check_hedging(args, fs, queries)
        print(
            f"hedging: straggler stalls {hedging['slow_delay_ms']:.0f}ms, "
            f"hedge after {hedging['hedge_after_ms']:.0f}ms -> p99 "
            f"{hedging['unhedged_p99_ms']:.1f}ms unhedged vs "
            f"{hedging['hedged_p99_ms']:.1f}ms hedged "
            f"({hedging['hedges']} hedges, {hedging['hedge_wins']} wins; "
            "bit-parity ✓, loop venue ✓)"
        )
        rpc = check_rpc_cost(args, index, queries)
        print(
            f"rpc cost (min of N, in-thread server): PING "
            f"{rpc['ping_rtt_ms']:.3f}ms, one-query SEARCH RPC "
            f"{rpc['search_rpc_ms']:.3f}ms of which the search itself is "
            f"{rpc['search_in_process_ms']:.3f}ms; one write per side ✓"
        )
        if args.smoke:
            print(
                "smoke OK (parity + degradation + hedging + one write per "
                "frame asserted)"
            )
            return 0
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": "remote_serving",
            "shards": args.shards,
            "rows": rows,
            "remote_stats": report["remote_stats"]["stages"],
            "degradation": degradation,
            "hedging": hedging,
            "rpc_cost": rpc,
        }
        (RESULTS_DIR / "remote_serving.json").write_text(
            json.dumps(payload, indent=2), encoding="utf-8"
        )
        (RESULTS_DIR / "remote_serving.txt").write_text(
            text + "\n", encoding="utf-8"
        )
        print("OK: remote parity + degrade/fail semantics hold")
        return 0
    finally:
        shutdown_fleet(fleet)
        shutil.rmtree(workdir, ignore_errors=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=(
            "Serve through real searcher subprocesses over loopback RPC"
        )
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI; all correctness assertions still run",
    )
    parser.add_argument("--num-base", type=int, default=6000)
    parser.add_argument("--num-queries", type=int, default=128)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument(
        "--shards",
        type=int,
        default=3,
        help="searcher subprocesses (>= 3 so the kill test has survivors)",
    )
    parser.add_argument("--segments", type=int, default=2)
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--ef", type=int, default=48)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument(
        "--request-timeout-s",
        type=float,
        default=30.0,
        help="per-request fan-out deadline",
    )
    parser.add_argument(
        "--hedge-after-s",
        type=float,
        default=0.05,
        help="hedge delay for the slow-shard scenario",
    )
    parser.add_argument(
        "--slow-delay-s",
        type=float,
        default=0.25,
        help="injected straggler stall for the slow-shard scenario",
    )
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.shards < 3:
        parser.error("--shards must be >= 3 (the kill test needs survivors)")
    if args.num_base <= 0 or args.num_queries <= 0 or args.dim <= 0:
        parser.error("--num-base, --num-queries and --dim must be positive")
    if args.hedge_after_s <= 0 or args.slow_delay_s <= 0:
        parser.error("--hedge-after-s and --slow-delay-s must be positive")
    if args.hedge_after_s >= args.slow_delay_s:
        parser.error(
            "--hedge-after-s must be below --slow-delay-s or the "
            "straggler scenario cannot show a hedging win"
        )
    if args.smoke:
        args.num_base = min(args.num_base, 1200)
        args.num_queries = min(args.num_queries, 32)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
