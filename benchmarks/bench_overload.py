"""Overload and fault tolerance: admission control under a 4x burst.

This benchmark saturates a real searcher subprocess and asserts that the
serving tier degrades the way PR 10 promises instead of collapsing.

``burst``, three phases against one searcher whose admission knobs are
live (``MAX_IN_FLIGHT`` / ``QUEUE_CAP``) and whose per-request service
time is pinned by straggler injection, so the capacity math is known:

1. **baseline** -- a single closed-loop client measures unloaded QPS;
2. **burst** -- 4x the searcher's concurrency capacity in client threads
   offer load simultaneously.  The searcher sheds the surplus with
   structured ``OVERLOADED`` error frames (>= 90% of all rejected work,
   i.e. clients learn about overload instantly instead of burning their
   deadline), every admitted request returns bit-identical ids AND
   distances to the unloaded path, and admitted p99 stays inside the
   bound implied by the queue depth (a bounded queue is the whole point
   -- latency cannot grow past ``QUEUE_CAP`` service times);
3. **recovery** -- once the burst stops, the same closed-loop stream
   must recover to >= 0.95x baseline QPS (shedding must leave no debris:
   no wedged slots, no leaked connections).

``chaos`` -- two fresh searchers launched with the same ``chaos`` spec
(seeded :class:`~repro.net.chaos.FaultPlan`) are driven with the same
request sequence; the per-request outcome sequences (ok/reset/
overloaded, including returned ids) and the servers' fault counters
must be *identical* -- chaos runs are replayable, so a chaos-found bug
is a debuggable bug.

    PYTHONPATH=src python benchmarks/bench_overload.py [--smoke]
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from functools import partial

import numpy as np

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
from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    OverloadedError,
)
from repro.net.client import RemoteSearcherClient
from repro.net.protocol import ShardCall

#: Searcher admission: concurrent search slots, and waiters beyond them.
MAX_IN_FLIGHT = 2
QUEUE_CAP = 2
#: Backoff hint shipped in OVERLOADED error frames.
RETRY_AFTER_S = 0.05
#: Injected per-request service time (pins the capacity math).
SERVICE_DELAY_S = 0.02
#: Per-request client deadline during the burst.
REQUEST_TIMEOUT_S = 10.0
#: Slack factor on the queue-depth latency bound.
P99_SLACK = 5.0
#: Closed-loop passes per baseline / recovery measurement.
PASSES = 2
CHAOS_SPEC = (
    "seed=42,delay_rate=0.15,delay_s=0.02,reset_rate=0.15,overload_rate=0.2"
)
FULL = dict(
    num_base=4000, num_queries=64, dim=24, shards=1, segments=2,
    top_k=10, ef=48, burst_s=2.0, measure_requests=40, chaos_requests=60,
)
SIZES = {
    "full": FULL,
    "smoke": FULL
    | dict(
        num_base=1200, num_queries=32, burst_s=1.0, measure_requests=24,
        chaos_requests=40,
    ),
}
GATES = {"recovery": Gate(full=0.95, smoke=0.95)}


@contextmanager
def setup(run):
    vectors, queries, config = corpus(run)
    index = build_lanns_index(vectors, config=config)
    probe = np.ascontiguousarray(queries[:16], dtype=np.float32)
    with exported(index) as fs:
        yield fs, probe, index.shards[0].search_batch(probe, run.top_k, ef=run.ef)


def call(run, probe: np.ndarray, request: int, **fields) -> ShardCall:
    row = request % probe.shape[0]
    return ShardCall(
        INDEX_NAME, probe[row : row + 1], run.top_k, ef=run.ef, **fields
    )


def run_burst(run, address: str, probe, expected_ids, expected_dists) -> dict:
    """Offer 4x the searcher's concurrency capacity; tally every outcome.

    Each worker is its own closed loop with its own client (no shared
    connection pool -- the point is many *independent* brokers hitting
    one searcher).  On ``OVERLOADED`` the worker honors the server's
    retry-after hint, exactly as a broker would.
    """
    workers = 4 * (MAX_IN_FLIGHT + QUEUE_CAP)
    results = [
        {"ok": 0, "overloaded": 0, "deadline": 0, "mismatches": 0,
         "latencies": []}
        for _ in range(workers)
    ]
    stop_at = time.monotonic() + run.burst_s

    def worker(slot: int) -> None:
        tally = results[slot]
        client = RemoteSearcherClient(
            address,
            retries=0,
            timeout_s=REQUEST_TIMEOUT_S,
            pool_size=1,
            backoff_seed=slot,
        )
        try:
            row = slot
            while time.monotonic() < stop_at:
                deadline = time.monotonic() + REQUEST_TIMEOUT_S
                start = time.perf_counter()
                try:
                    reply = client.search(call(run, probe, row, deadline=deadline))
                except OverloadedError as exc:
                    tally["overloaded"] += 1
                    hint = exc.retry_after_s
                    time.sleep(hint if hint is not None else 0.01)
                except DeadlineExceededError:
                    tally["deadline"] += 1
                else:
                    tally["ok"] += 1
                    tally["latencies"].append(time.perf_counter() - start)
                    at = row % probe.shape[0]
                    if not (
                        (reply.ids == expected_ids[at : at + 1]).all()
                        and (reply.dists == expected_dists[at : at + 1]).all()
                    ):
                        tally["mismatches"] += 1
                row += 1
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
    burst = {
        key: sum(tally[key] for tally in results)
        for key in ("ok", "overloaded", "deadline", "mismatches")
    }
    latencies = [lat for tally in results for lat in tally["latencies"]]
    burst["workers"] = workers
    burst["admitted_p99_ms"] = (
        float(np.quantile(latencies, 0.99) * 1e3) if latencies else float("nan")
    )
    return burst


def require_burst_semantics(burst: dict, baseline_mean_s: float) -> None:
    rejected = burst["overloaded"] + burst["deadline"]
    require(burst["ok"] >= 1, "no request was admitted during the burst")
    require(
        burst["overloaded"] >= 1,
        "a 4x burst against a capacity-2 searcher never got shed -- "
        "admission control is not engaging",
    )
    require(
        burst["overloaded"] / rejected >= 0.9,
        f"only {burst['overloaded'] / rejected:.1%} of rejected work was shed "
        f"via OVERLOADED ({burst['overloaded']} shed vs {burst['deadline']} "
        "deadline timeouts); overload must be signalled instantly, not "
        "discovered by expiry",
    )
    require(
        not burst["mismatches"],
        f"{burst['mismatches']} admitted requests returned results that "
        "differ from the unloaded path -- load must never change answers",
    )
    # A bounded queue bounds latency: an admitted request waits behind
    # at most QUEUE_CAP others across MAX_IN_FLIGHT slots, so its p99
    # cannot exceed ~(1 + QUEUE_CAP/MAX_IN_FLIGHT) service times (with
    # generous slack for scheduler noise on a loaded CI box).
    bound_ms = P99_SLACK * baseline_mean_s * (1.0 + QUEUE_CAP / MAX_IN_FLIGHT) * 1e3
    require(
        burst["admitted_p99_ms"] <= bound_ms,
        f"admitted p99 {burst['admitted_p99_ms']:.1f}ms exceeds the "
        f"queue-depth bound {bound_ms:.1f}ms -- the queue cap is not "
        "containing latency",
    )


def check_burst(run, env) -> None:
    fs, probe, (expected_ids, expected_dists) = env
    # Straggler injection on EVERY request pins the service time, so
    # capacity (= MAX_IN_FLIGHT / service) is known and a 4x burst is
    # actually 4x.
    with fleet(
        fs,
        1,
        slow_shard=0,
        slow_every=1,
        slow_delay_s=SERVICE_DELAY_S,
        max_in_flight=MAX_IN_FLIGHT,
        queue_cap=QUEUE_CAP,
        retry_after_s=RETRY_AFTER_S,
    ) as (groups, _):
        address = groups[0][0].address
        control = RemoteSearcherClient(address, retries=0, timeout_s=30.0)
        try:
            control.deploy(INDEX_NAME, INDEX_PATH)
            stream = [
                partial(control.search, call(run, probe, request))
                for request in range(run.measure_requests)
            ]
            scores = interleaved({"baseline": stream}, PASSES)
            burst = run_burst(run, address, probe, expected_ids, expected_dists)
            require_burst_semantics(burst, float(scores["baseline"].mean()))
            scores |= interleaved({"recovery": stream}, PASSES)
            shed = control.stats()["admission"]["searches_shed"]
        finally:
            control.close()
    require(
        shed >= burst["overloaded"],
        f"server counted {shed} sheds but clients observed "
        f"{burst['overloaded']} OVERLOADED errors",
    )
    stats = {name: summary(scores[name]) for name in ("baseline", "recovery")}
    rows = [
        {"phase": "baseline (closed loop)", "qps": stats["baseline"]["qps"],
         "p99_ms": stats["baseline"]["p99_ms"]},
        {"phase": f"burst ({burst['workers']} workers, admitted)",
         "qps": float("nan"), "p99_ms": burst["admitted_p99_ms"]},
        {"phase": "recovery (closed loop)", "qps": stats["recovery"]["qps"],
         "p99_ms": stats["recovery"]["p99_ms"]},
    ]
    report(
        "overload",
        rows,
        title=(
            "Overload burst against one admission-bounded searcher "
            f"(max_in_flight={MAX_IN_FLIGHT}, queue_cap={QUEUE_CAP}, "
            f"~{SERVICE_DELAY_S * 1e3:.0f}ms/request)"
        ),
        payload={"smoke": run.smoke, "burst": burst},
    )
    rejected = burst["overloaded"] + burst["deadline"]
    print(
        f"burst: {burst['ok']} admitted, {burst['overloaded']} shed via "
        f"OVERLOADED, {burst['deadline']} deadline timeouts "
        f"({burst['overloaded'] / rejected:.1%} of rejections shed "
        "structurally ✓, bit-parity under load ✓)"
    )
    run.gate("recovery", speedup(scores, "recovery", over="baseline"))


def check_chaos(run, env) -> None:
    """Two fresh searchers, same chaos seed, same requests => same run."""
    fs, probe, _ = env
    runs, snapshots = [], []
    for _ in range(2):
        with fleet(
            fs, 1, chaos=CHAOS_SPEC, retry_after_s=RETRY_AFTER_S
        ) as (groups, _):
            client = RemoteSearcherClient(
                groups[0][0].address, retries=0, timeout_s=10.0, pool_size=1
            )
            try:
                client.deploy(INDEX_NAME, INDEX_PATH)
                outcomes = []
                for request in range(run.chaos_requests):
                    try:
                        ids = client.search(call(run, probe, request)).ids
                    except OverloadedError:
                        outcomes.append("overloaded")
                    except ConnectionLostError:
                        outcomes.append("reset")
                    else:
                        outcomes.append("ok:" + ",".join(map(str, ids[0])))
                runs.append(outcomes)
                snapshots.append(client.stats()["chaos"])
            finally:
                client.close()
    for request, (first, second) in enumerate(zip(*runs)):
        require(
            first == second,
            f"chaos runs with {CHAOS_SPEC!r} diverged at request {request}: "
            f"{first!r} vs {second!r}",
        )
    require(
        snapshots[0] == snapshots[1],
        f"chaos fault counters diverged between identical runs: "
        f"{snapshots[0]} vs {snapshots[1]}",
    )
    require(
        any(snapshots[0]["injected"].values()),
        f"chaos spec {CHAOS_SPEC!r} injected no faults over "
        f"{run.chaos_requests} requests -- the scenario is vacuous",
    )
    print(
        f"chaos: {CHAOS_SPEC} x {run.chaos_requests} requests -> injected "
        f"{snapshots[0]['injected']} twice, outcome sequences identical ✓"
    )


if __name__ == "__main__":
    sys.exit(main([check_burst, check_chaos], SIZES, GATES, setup=setup))
