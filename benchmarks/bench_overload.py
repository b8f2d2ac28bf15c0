"""Overload and fault tolerance: admission control under a 4x burst.

This benchmark saturates a real searcher subprocess and asserts that the
serving tier degrades the way PR 10 promises instead of collapsing:

1. **baseline** -- a single closed-loop client measures unloaded QPS and
   latency against a searcher whose admission knobs are live
   (``--max-in-flight`` / ``--queue-cap``) and whose per-request service
   time is pinned by straggler injection, so the capacity math is known;
2. **burst** -- 4x the searcher's concurrency capacity in client threads
   offer load simultaneously.  In-run assertions: the searcher sheds the
   surplus with structured ``OVERLOADED`` error frames (>= 90% of all
   rejected work, i.e. clients learn about overload instantly instead of
   burning their deadline), every admitted request returns bit-identical
   ids AND distances to the unloaded path, and admitted p99 stays inside
   the bound implied by the queue depth (a bounded queue is the whole
   point -- latency cannot grow past ``queue_cap`` service times);
3. **recovery** -- once the burst stops, the same closed-loop measurement
   must recover to >= 0.95x baseline QPS (shedding must leave no debris:
   no wedged slots, no leaked connections);
4. **chaos reproducibility** -- two fresh searchers launched with the
   same ``--chaos-spec`` (seeded :class:`~repro.net.chaos.FaultPlan`)
   are driven with the same request sequence; the per-request outcome
   sequences (ok/reset/overloaded, including returned ids) and the
   servers' fault counters must be *identical* -- chaos runs are
   replayable, so a chaos-found bug is a debuggable bug.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_overload.py
    PYTHONPATH=src python benchmarks/bench_overload.py --smoke

``--smoke`` shrinks the corpus and burst so the run fits CI; every
correctness assertion still runs -- shed semantics, bit-parity under
load, recovery, and chaos determinism are the point, not the QPS.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.data.synthetic import clustered_gaussians, make_queries
from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    OverloadedError,
)
from repro.eval.tables import format_table
from repro.hnsw.params import HnswParams
from repro.net.client import RemoteSearcherClient
from repro.net.fleet import launch_searcher, shutdown_fleet
from repro.net.protocol import ShardCall
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import save_lanns_index

RESULTS_DIR = Path(__file__).parent / "results"
INDEX_PATH = "bench/overload"
INDEX_NAME = "default"


def export_index(args: argparse.Namespace, fs: LocalHdfs):
    base = clustered_gaussians(args.num_base, args.dim, seed=args.seed)
    queries = make_queries(base, args.num_queries, seed=args.seed + 1)
    config = LannsConfig(
        num_shards=1,
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


def measure_closed_loop(
    client: RemoteSearcherClient, probe: np.ndarray, args: argparse.Namespace
) -> dict:
    """Sequential single-client load: QPS + latency, no queueing."""
    latencies = np.empty(args.measure_requests, dtype=np.float64)
    tick = time.perf_counter()
    for request in range(args.measure_requests):
        row = request % probe.shape[0]
        start = time.perf_counter()
        client.search(
            ShardCall(INDEX_NAME, probe[row : row + 1], args.top_k, ef=args.ef)
        )
        latencies[request] = time.perf_counter() - start
    elapsed = time.perf_counter() - tick
    return {
        "qps": args.measure_requests / elapsed,
        "p50_ms": float(np.quantile(latencies, 0.5) * 1e3),
        "p99_ms": float(np.quantile(latencies, 0.99) * 1e3),
        "mean_s": elapsed / args.measure_requests,
    }


def run_burst(
    args: argparse.Namespace,
    address: str,
    probe: np.ndarray,
    expected_ids: np.ndarray,
    expected_dists: np.ndarray,
) -> dict:
    """Offer 4x the searcher's concurrency capacity; tally every outcome.

    Each worker is its own closed loop with its own client (no shared
    connection pool -- the point is many *independent* brokers hitting
    one searcher).  On ``OVERLOADED`` the worker honors the server's
    retry-after hint, exactly as a broker would.
    """
    capacity = args.max_in_flight + args.queue_cap
    workers = 4 * capacity
    results = [
        {"ok": 0, "overloaded": 0, "deadline": 0, "mismatches": 0,
         "latencies": []}
        for _ in range(workers)
    ]
    stop_at = time.monotonic() + args.burst_s

    def worker(slot: int) -> None:
        tally = results[slot]
        client = RemoteSearcherClient(
            address,
            retries=0,
            timeout_s=args.request_timeout_s,
            pool_size=1,
            backoff_seed=slot,
        )
        try:
            row = slot % probe.shape[0]
            while time.monotonic() < stop_at:
                deadline = time.monotonic() + args.request_timeout_s
                start = time.perf_counter()
                try:
                    reply = client.search(
                        ShardCall(
                            INDEX_NAME,
                            probe[row : row + 1],
                            args.top_k,
                            ef=args.ef,
                            deadline=deadline,
                        )
                    )
                except OverloadedError as exc:
                    tally["overloaded"] += 1
                    hint = exc.retry_after_s
                    time.sleep(hint if hint is not None else 0.01)
                except DeadlineExceededError:
                    tally["deadline"] += 1
                else:
                    tally["ok"] += 1
                    tally["latencies"].append(time.perf_counter() - start)
                    if not (
                        (reply.ids == expected_ids[row : row + 1]).all()
                        and (reply.dists == expected_dists[row : row + 1]).all()
                    ):
                        tally["mismatches"] += 1
                row = (row + 1) % probe.shape[0]
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(slot,), name=f"burst-{slot}")
        for slot in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    ok = sum(tally["ok"] for tally in results)
    overloaded = sum(tally["overloaded"] for tally in results)
    deadline = sum(tally["deadline"] for tally in results)
    mismatches = sum(tally["mismatches"] for tally in results)
    latencies = np.array(
        [lat for tally in results for lat in tally["latencies"]],
        dtype=np.float64,
    )
    return {
        "workers": workers,
        "ok": ok,
        "overloaded": overloaded,
        "deadline": deadline,
        "mismatches": mismatches,
        "admitted_p99_ms": (
            float(np.quantile(latencies, 0.99) * 1e3) if ok else float("nan")
        ),
    }


def assert_burst_semantics(
    args: argparse.Namespace, burst: dict, baseline: dict
) -> None:
    rejected = burst["overloaded"] + burst["deadline"]
    if burst["ok"] < 1:
        raise AssertionError("no request was admitted during the burst")
    if burst["overloaded"] < 1:
        raise AssertionError(
            "a 4x burst against a capacity-2 searcher never got shed -- "
            "admission control is not engaging"
        )
    shed_ratio = burst["overloaded"] / rejected
    if shed_ratio < 0.9:
        raise AssertionError(
            f"only {shed_ratio:.1%} of rejected work was shed via "
            f"OVERLOADED ({burst['overloaded']} shed vs "
            f"{burst['deadline']} deadline timeouts); overload must be "
            "signalled instantly, not discovered by expiry"
        )
    if burst["mismatches"]:
        raise AssertionError(
            f"{burst['mismatches']} admitted requests returned results "
            "that differ from the unloaded path -- load must never "
            "change answers"
        )
    # A bounded queue bounds latency: an admitted request waits behind
    # at most queue_cap others across max_in_flight slots, so its p99
    # cannot exceed ~(1 + queue_cap/max_in_flight) service times (with
    # generous slack for scheduler noise on a loaded CI box).
    bound_ms = (
        args.p99_slack
        * baseline["mean_s"]
        * (1.0 + args.queue_cap / args.max_in_flight)
        * 1e3
    )
    if burst["admitted_p99_ms"] > bound_ms:
        raise AssertionError(
            f"admitted p99 {burst['admitted_p99_ms']:.1f}ms exceeds the "
            f"queue-depth bound {bound_ms:.1f}ms -- the queue cap is not "
            "containing latency"
        )


def check_chaos_repro(
    args: argparse.Namespace, fs: LocalHdfs, probe: np.ndarray
) -> dict:
    """Two fresh searchers, same chaos seed, same requests => same run."""
    spec = (
        f"seed={args.chaos_seed},delay_rate=0.15,delay_s=0.02,"
        "reset_rate=0.15,overload_rate=0.2"
    )
    runs = []
    snapshots = []
    for _ in range(2):
        member = launch_searcher(
            0, root=str(fs.root), chaos_spec=spec,
            retry_after_s=args.retry_after_s,
        )
        client = RemoteSearcherClient(
            member.address, retries=0, timeout_s=10.0, pool_size=1
        )
        try:
            client.deploy(INDEX_NAME, INDEX_PATH)
            outcomes = []
            for request in range(args.chaos_requests):
                row = request % probe.shape[0]
                try:
                    ids = client.search(
                        ShardCall(
                            INDEX_NAME, probe[row : row + 1], args.top_k,
                            ef=args.ef,
                        )
                    ).ids
                except OverloadedError:
                    outcomes.append("overloaded")
                except ConnectionLostError:
                    outcomes.append("reset")
                else:
                    outcomes.append("ok:" + ",".join(map(str, ids[0])))
            snapshot = client.stats()["chaos"]
            runs.append(outcomes)
            snapshots.append(snapshot)
        finally:
            client.close()
            shutdown_fleet([member])
    if runs[0] != runs[1]:
        diverged = next(
            request
            for request, (first, second) in enumerate(zip(runs[0], runs[1]))
            if first != second
        )
        raise AssertionError(
            f"chaos runs with seed {args.chaos_seed} diverged at request "
            f"{diverged}: {runs[0][diverged]!r} vs {runs[1][diverged]!r}"
        )
    if snapshots[0] != snapshots[1]:
        raise AssertionError(
            f"chaos fault counters diverged between identical runs: "
            f"{snapshots[0]} vs {snapshots[1]}"
        )
    injected = snapshots[0]["injected"]
    if not any(injected.values()):
        raise AssertionError(
            f"chaos spec {spec!r} injected no faults over "
            f"{args.chaos_requests} requests -- the scenario is vacuous"
        )
    return {"spec": spec, "requests": args.chaos_requests, **snapshots[0]}


def run(args: argparse.Namespace) -> int:
    workdir = tempfile.mkdtemp(prefix="lanns-overload-bench-")
    fleet = []
    try:
        fs = LocalHdfs(workdir)
        _, index, queries = export_index(args, fs)
        probe = np.ascontiguousarray(
            queries[: min(16, queries.shape[0])], dtype=np.float32
        )
        expected_ids, expected_dists = index.shards[0].search_batch(
            probe, args.top_k, ef=args.ef
        )
        print(
            f"corpus: {args.num_base} x {args.dim}, 1 shard, "
            f"admission max_in_flight={args.max_in_flight} "
            f"queue_cap={args.queue_cap}, "
            f"service time ~{args.service_delay_s * 1e3:.0f}ms/request"
        )
        # Straggler injection on EVERY request pins the service time, so
        # capacity (= max_in_flight / service) is known and a 4x burst
        # is actually 4x.
        member = launch_searcher(
            0,
            root=workdir,
            slow_every=1,
            slow_delay_s=args.service_delay_s,
            max_in_flight=args.max_in_flight,
            queue_cap=args.queue_cap,
            retry_after_s=args.retry_after_s,
        )
        fleet = [member]
        control = RemoteSearcherClient(
            member.address, retries=0, timeout_s=30.0
        )
        try:
            control.deploy(INDEX_NAME, INDEX_PATH)
            baseline = measure_closed_loop(control, probe, args)
            burst = run_burst(
                args, member.address, probe, expected_ids, expected_dists
            )
            assert_burst_semantics(args, burst, baseline)
            recovery = measure_closed_loop(control, probe, args)
            if recovery["qps"] < 0.95 * baseline["qps"]:
                raise AssertionError(
                    f"post-burst QPS {recovery['qps']:.1f} fell below "
                    f"0.95x baseline {baseline['qps']:.1f} -- shedding "
                    "left the searcher degraded"
                )
            stats = control.stats()["admission"]
            if stats["searches_shed"] < burst["overloaded"]:
                raise AssertionError(
                    f"server counted {stats['searches_shed']} sheds but "
                    f"clients observed {burst['overloaded']} OVERLOADED "
                    "errors"
                )
        finally:
            control.close()
        shutdown_fleet(fleet)
        fleet = []

        rejected = burst["overloaded"] + burst["deadline"]
        rows = [
            {"phase": "baseline (closed loop)", "qps": baseline["qps"],
             "p99_ms": baseline["p99_ms"]},
            {"phase": f"burst ({burst['workers']} workers, admitted)",
             "qps": float("nan"), "p99_ms": burst["admitted_p99_ms"]},
            {"phase": "recovery (closed loop)", "qps": recovery["qps"],
             "p99_ms": recovery["p99_ms"]},
        ]
        text = format_table(
            rows, title="Overload burst against one admission-bounded searcher"
        )
        print("\n" + text + "\n")
        print(
            f"burst: {burst['ok']} admitted, {burst['overloaded']} shed "
            f"via OVERLOADED, {burst['deadline']} deadline timeouts "
            f"({burst['overloaded'] / rejected:.1%} of rejections shed "
            "structurally ✓, bit-parity under load ✓)"
        )
        print(
            f"recovery: {recovery['qps']:.1f} QPS vs baseline "
            f"{baseline['qps']:.1f} QPS "
            f"({recovery['qps'] / baseline['qps']:.2f}x ✓)"
        )

        chaos = check_chaos_repro(args, fs, probe)
        print(
            f"chaos: seed {args.chaos_seed} x {chaos['requests']} requests "
            f"-> injected {chaos['injected']} twice, outcome sequences "
            "identical ✓"
        )
        if args.smoke:
            print("smoke OK (shed semantics + parity + recovery + chaos)")
            return 0
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": "overload",
            "admission": {
                "max_in_flight": args.max_in_flight,
                "queue_cap": args.queue_cap,
                "retry_after_s": args.retry_after_s,
            },
            "baseline": baseline,
            "burst": burst,
            "recovery": recovery,
            "chaos": chaos,
        }
        (RESULTS_DIR / "overload.json").write_text(
            json.dumps(payload, indent=2), encoding="utf-8"
        )
        (RESULTS_DIR / "overload.txt").write_text(
            text + "\n", encoding="utf-8"
        )
        print("OK: overload shed + recovery + chaos reproducibility hold")
        return 0
    finally:
        shutdown_fleet(fleet)
        shutil.rmtree(workdir, ignore_errors=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=(
            "Saturate an admission-bounded searcher; assert shed "
            "semantics, bit-parity, recovery, and chaos reproducibility"
        )
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI; all correctness assertions still run",
    )
    parser.add_argument("--num-base", type=int, default=4000)
    parser.add_argument("--num-queries", type=int, default=64)
    parser.add_argument("--dim", type=int, default=24)
    parser.add_argument("--segments", type=int, default=2)
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--ef", type=int, default=48)
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=2,
        help="searcher admission: concurrent search slots",
    )
    parser.add_argument(
        "--queue-cap",
        type=int,
        default=2,
        help="searcher admission: waiters beyond the in-flight slots",
    )
    parser.add_argument(
        "--retry-after-s",
        type=float,
        default=0.05,
        help="backoff hint shipped in OVERLOADED error frames",
    )
    parser.add_argument(
        "--service-delay-s",
        type=float,
        default=0.02,
        help="injected per-request service time (pins the capacity math)",
    )
    parser.add_argument(
        "--burst-s",
        type=float,
        default=2.0,
        help="duration of the 4x overload burst",
    )
    parser.add_argument(
        "--measure-requests",
        type=int,
        default=40,
        help="closed-loop requests per baseline/recovery measurement",
    )
    parser.add_argument(
        "--request-timeout-s",
        type=float,
        default=10.0,
        help="per-request client deadline during the burst",
    )
    parser.add_argument(
        "--p99-slack",
        type=float,
        default=5.0,
        help="slack factor on the queue-depth latency bound",
    )
    parser.add_argument("--chaos-seed", type=int, default=42)
    parser.add_argument(
        "--chaos-requests",
        type=int,
        default=60,
        help="requests per run of the chaos reproducibility check",
    )
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.num_base <= 0 or args.num_queries <= 0 or args.dim <= 0:
        parser.error("--num-base, --num-queries and --dim must be positive")
    if args.max_in_flight < 1 or args.queue_cap < 0:
        parser.error("--max-in-flight must be >= 1, --queue-cap >= 0")
    if args.service_delay_s <= 0 or args.burst_s <= 0:
        parser.error("--service-delay-s and --burst-s must be positive")
    if args.smoke:
        args.num_base = min(args.num_base, 1200)
        args.num_queries = min(args.num_queries, 32)
        args.burst_s = min(args.burst_s, 1.0)
        args.measure_requests = min(args.measure_requests, 24)
        args.chaos_requests = min(args.chaos_requests, 40)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
