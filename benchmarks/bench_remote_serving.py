"""Remote serving over loopback RPC: parity, throughput, hedging, RPC cost.

This benchmark exercises the full multi-process topology of the paper's
Section 7: it builds and exports an index, spawns one **real searcher
subprocess per shard** (``repro.cli serve-searcher`` over loopback TCP),
fronts them with the broker, and

``throughput`` -- serves the query set through the RPC fleet one query
at a time and in batches, interleaved with an in-process fleet over the
same export (the remote numbers include real framing + socket round
trips); every remote answer, ids and distances, must be bit-identical
to the in-process one.  A replay of the one-query stream then prices
both sides, as CPU (user + system, from ``/proc/<pid>/stat``): the
searcher processes' per SEARCH RPC they served, and this process's --
the broker's -- per request, every one a cache miss (the remote service
caches nothing); and each process's peak resident set (``VmHWM``; the
broker's includes this process's build and in-process fleet);

``hedging`` -- injects a **straggler**: a fresh fleet where one
searcher's fault plan stalls every other request, served through the
remote fan-out without and with hedged requests -- hedged p99 must
beat unhedged p99, results must stay bit-identical to in-process
serving, and at least one hedge must have fired;

``rpc_cost`` -- prices **one RPC**: PING round trip, one-query SEARCH
round trip and the same search in process, against an in-thread server,
counting the client sockets' write calls and the server's frame
sends -- a SEARCH round trip must be exactly one write per side, and a
PING must be cheaper than a SEARCH.

What a SIGKILLed searcher does to the ``degrade`` and ``fail`` policies
is ``tests/test_remote_serving.py::
test_kill_one_searcher_process_mid_flight``.

    PYTHONPATH=src python benchmarks/bench_remote_serving.py [--smoke]
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from contextlib import contextmanager
from functools import partial
from pathlib import Path

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
    request,
    require,
    speedup,
    summary,
)
from repro.core.builder import build_lanns_index
from repro.net import client as net_client
from repro.net import server as net_server
from repro.net.client import RemoteSearcherClient
from repro.net.protocol import ShardCall
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService

#: Per-request fan-out deadline.
REQUEST_TIMEOUT_S = 30.0
#: The straggler scenario: shard 1 stalls every other SEARCH this long,
#: and the hedged service re-issues after the (shorter) hedge delay.
SLOW_DELAY_S = 0.25
HEDGE_AFTER_S = 0.05
#: Queries per request of the batched streams.
BATCH = 32
#: Replays of the one-query stream the searcher CPU is read over (the
#: ``/proc`` clock ticks at 10 ms).
CPU_PASSES = 10
# Three shards: a fan-out worth hedging, one of them the straggler.
FULL = dict(
    num_base=6000, num_queries=128, dim=32, shards=3, segments=2,
    top_k=10, ef=48, passes=3, rpc_repeats=400,
)
SIZES = {
    "full": FULL,
    "smoke": FULL | dict(num_base=1200, num_queries=32, rpc_repeats=100),
}
#: Both strict: unhedged p99 over hedged p99, SEARCH RPC time over PING's.
GATES = {
    "hedged_p99": Gate(full=1.0, smoke=1.0, strict=True),
    "ping_under_search": Gate(full=1.0, smoke=1.0, strict=True),
}


@contextmanager
def setup(run):
    vectors, queries, config = corpus(run)
    index = build_lanns_index(vectors, config=config)
    local = OnlineService()
    with exported(index) as fs:
        try:
            local.deploy(fs, INDEX_PATH)
            yield fs, index, queries, local
        finally:
            local.close()


def served(service, queries, run, rows_per_request: int, answers: dict) -> list:
    """The request stream serving ``queries`` through ``service``
    ``rows_per_request`` at a time; each answer lands in ``answers``."""

    def serve(start: int) -> None:
        answers[start] = service.execute(request(
            queries[start : start + rows_per_request], run
        ))

    return [
        partial(serve, start) for start in range(0, len(queries), rows_per_request)
    ]


def require_parity(answers: dict, want, what: str) -> None:
    for start, got in answers.items():
        stop = start + len(got.ids)
        require(
            (got.ids == want.ids[start:stop]).all()
            and (got.dists == want.dists[start:stop]).all(),
            f"{what} result differs from in-process serving at query {start}",
        )


def check_throughput(run, env) -> None:
    fs, _, queries, local = env
    want = local.execute(request(queries, run))
    with fleet(fs, run.shards) as (groups, addresses):
        print(
            "fleet: "
            + ", ".join(
                f"shard {member.shard_id} @ {member.address} "
                f"(pid {member.process.pid})"
                for (member,) in groups
            )
        )
        remote = OnlineService(
            searchers=addresses, request_timeout_s=REQUEST_TIMEOUT_S
        )
        try:
            remote.deploy(fs, INDEX_PATH)
            singles, batches = {}, {}
            streams = {
                "in-process fleet (batched)": (local, BATCH, {}),
                "remote fleet (sequential RPC)": (remote, 1, singles),
                f"remote fleet (batched x{BATCH})": (remote, BATCH, batches),
            }
            streams = {
                name: served(service, queries, run, rows, answers)
                for name, (service, rows, answers) in streams.items()
            }
            scores = interleaved(streams, run.passes)
            stages = remote.stats()["indices"][INDEX_NAME]["stages"]
            members = [member for (member,) in groups]
            cpu_ms, broker_ms = cpu_ms_per_request(
                members, streams["remote fleet (sequential RPC)"]
            )
            searcher_mib = [peak_rss_mib(member.process.pid) for member in members]
        finally:
            remote.close()
    require_parity(singles, want, "remote single-query")
    require_parity(batches, want, "remote batched")
    print("parity: remote fleet results bit-identical to in-process ✓")
    print(
        f"searcher CPU: {cpu_ms:.3f} ms per one-query SEARCH RPC (user + "
        f"system of {len(members)} searcher processes, {CPU_PASSES} replays); "
        f"broker CPU: {broker_ms:.3f} ms per one-query cache miss"
    )
    broker_mib = peak_rss_mib(os.getpid())
    print(
        "peak RSS (VmHWM): searchers "
        + ", ".join(f"{mib:.1f}" for mib in searcher_mib)
        + f" MiB; broker {broker_mib:.1f} MiB"
    )
    report(
        "remote_serving",
        [
            {"mode": name, "qps": summary(scores[name], len(queries))["qps"]}
            for name in streams
        ],
        title=(
            f"Remote serving over loopback RPC ({run.shards} searcher "
            f"subprocesses; {run.num_base} x {run.dim}, {len(queries)} queries)"
        ),
        payload={
            "smoke": run.smoke,
            "remote_stages": stages,
            "searcher_cpu_ms_per_rpc": cpu_ms,
            "broker_cpu_ms_per_miss": broker_ms,
            "searcher_peak_rss_mib": searcher_mib,
            "broker_peak_rss_mib": broker_mib,
        },
    )


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds process ``pid`` has used, all threads."""
    stat = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(stat[11]) + int(stat[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mib(pid: int) -> float:
    """Process ``pid``'s peak resident set (``VmHWM``), in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def cpu_ms_per_request(members, requests) -> tuple[float, float]:
    """CPU over :data:`CPU_PASSES` replays of ``requests``: the searcher
    processes' per SEARCH RPC they served, and this process's (the
    broker's) per request replayed."""

    def served() -> int:
        total = 0
        for member in members:
            client = RemoteSearcherClient(member.address)
            try:
                total += client.stats()["counts"]["requests_served"]
            finally:
                client.close()
        return total

    def cpu() -> float:
        return sum(cpu_seconds(member.process.pid) for member in members)

    rpcs, began, broker_began = served(), cpu(), cpu_seconds(os.getpid())
    for _ in range(CPU_PASSES):
        for request in requests:
            request()
    broker = cpu_seconds(os.getpid()) - broker_began
    spent = cpu() - began
    return (
        spent / (served() - rpcs) * 1e3,
        broker / (CPU_PASSES * len(requests)) * 1e3,
    )


def check_hedging(run, env) -> None:
    """Slow-shard scenario: hedged tail latency must beat unhedged.

    The two services are *not* interleaved: the straggler stalls every
    other SEARCH it receives, so alternating them would hand one service
    all the stalls.  Hedging may change *when* an answer arrives, never
    *what* it is.
    """
    fs, _, queries, local = env
    probe = queries[:32]
    want = local.execute(request(probe, run))
    p99_ms, stats = {}, {}
    with fleet(
        fs, run.shards, chaos_shard=1, chaos=f"delay_every=2,delay_s={SLOW_DELAY_S}"
    ) as (_, addresses):
        for name, hedge_after_s in (("unhedged", None), ("hedged", HEDGE_AFTER_S)):
            service = OnlineService(
                searchers=addresses,
                hedge_after_s=hedge_after_s,
                request_timeout_s=REQUEST_TIMEOUT_S,
            )
            try:
                service.deploy(fs, INDEX_PATH)
                answers: dict = {}
                scores = interleaved(
                    {name: served(service, probe, run, 1, answers)}, 1
                )
                require_parity(answers, want, name)
                p99_ms[name] = summary(scores[name])["p99_ms"]
                stats = service.brokers[INDEX_NAME].stats()
                service.undeploy(INDEX_NAME)
            finally:
                service.close()
    counts = stats["counts"]
    require(counts.get("hedges", 0) >= 1, "the straggler shard never got hedged")
    print(
        f"hedging: straggler stalls {SLOW_DELAY_S * 1e3:.0f}ms, hedge after "
        f"{HEDGE_AFTER_S * 1e3:.0f}ms -> p99 {p99_ms['unhedged']:.1f}ms "
        f"unhedged vs {p99_ms['hedged']:.1f}ms hedged ({counts['hedges']} "
        f"hedges, {counts.get('hedge_wins', 0)} wins; bit-parity ✓)"
    )
    run.gate("hedged_p99", p99_ms["unhedged"] / p99_ms["hedged"])


class CountingSocket:
    """A client socket that counts the write calls made on it, through
    any of the socket's write methods."""

    def __init__(self, sock, counts: Counter) -> None:
        self._sock = sock
        self._counts = counts

    def __getattr__(self, name: str):
        attr = getattr(self._sock, name)
        if name not in ("send", "sendall", "sendmsg"):
            return attr

        def write(*args, **kwargs):
            self._counts["client"] += 1
            return attr(*args, **kwargs)

        return write


@contextmanager
def counted_writes():
    """Writes made inside the block on either side of the wire, this
    process: the client connections' socket writes and the server's
    frame sends (each one ``sendall``); yields the ``{"client": n,
    "server": n}`` counter."""
    counts: Counter = Counter()
    connection = net_client._Connection
    init, send = connection.__init__, net_server._send

    def counting_init(self, sock, max_frame):
        init(self, CountingSocket(sock, counts), max_frame)

    def counted_send(sock, frame) -> None:
        counts["server"] += 1
        send(sock, frame)

    connection.__init__ = counting_init
    net_server._send = counted_send
    try:
        yield counts
    finally:
        connection.__init__ = init
        net_server._send = send


def check_rpc_cost(run, env) -> None:
    """What one RPC costs over what it carries, and how many writes."""
    _, index, queries, _ = env
    node = SearcherNode(0)
    node.host(INDEX_NAME, index.shards[0])
    query = queries[:1]
    in_process = partial(node.search_batch, INDEX_NAME, query, run.top_k, ef=run.ef)
    with counted_writes() as writes:
        server = net_server.SearcherServer(node).start_in_thread()
        client = RemoteSearcherClient(server.address)
        try:
            search = partial(
                client.search, ShardCall(INDEX_NAME, query, run.top_k, ef=run.ef)
            )
            want_ids, want_dists = in_process()
            got = search()  # also dials the one pooled connection
            require(
                (got.ids == want_ids).all() and (got.dists == want_dists).all(),
                "the SEARCH RPC's answer differs from the in-process search",
            )
            writes.clear()
            search()
            require(
                dict(writes) == {"client": 1, "server": 1},
                f"one SEARCH round trip made {dict(writes)} write calls; "
                "a frame is one write per side",
            )
            scores = interleaved(
                {
                    "ping": [client.ping],
                    "search": [search],
                    "in_process": [in_process],
                },
                run.rpc_repeats,
            )
        finally:
            client.close()
            server.stop()
    ms = {name: float(score[0] * 1e3) for name, score in scores.items()}
    print(
        f"rpc cost (min of {run.rpc_repeats}, in-thread server): PING "
        f"{ms['ping']:.3f}ms, one-query SEARCH RPC {ms['search']:.3f}ms of "
        f"which the search itself is {ms['in_process']:.3f}ms; one write "
        "per side ✓"
    )
    run.gate("ping_under_search", speedup(scores, "ping", over="search"))


if __name__ == "__main__":
    sys.exit(
        main(
            [check_throughput, check_hedging, check_rpc_cost],
            SIZES,
            GATES,
            setup=setup,
        )
    )
