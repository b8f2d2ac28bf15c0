"""Remote serving over loopback RPC: parity, throughput, hedging, RPC cost.

This benchmark exercises the full multi-process topology of the paper's
Section 7: it builds and exports an index, spawns one **real searcher
subprocess per shard** (``repro.cli serve-searcher`` over loopback TCP),
fronts them with the broker, and

``throughput`` -- serves the query set through the RPC fleet one query
at a time and in batches, interleaved with an in-process fleet over the
same export (the remote numbers include real framing + socket round
trips); every remote answer, ids and distances, must be bit-identical
to the in-process one;

``hedging`` -- injects a **straggler**: a fresh fleet where one searcher
stalls every other request, served through the asyncio fan-out without
and with hedged requests -- hedged p99 must beat unhedged p99, results
must stay bit-identical to in-process serving, and the broker must
report the ``loop`` venue (all in-flight shard RPCs on one thread);

``rpc_cost`` -- prices **one RPC**: PING round trip, one-query SEARCH
round trip and the same search in process, against an in-thread server
whose transports count write calls -- a SEARCH round trip must be
exactly one write per side, and a PING must be cheaper than a SEARCH.

What a SIGKILLed searcher does to the ``degrade`` and ``fail`` policies
is ``tests/test_remote_serving.py::
test_kill_one_searcher_process_mid_flight``.

    PYTHONPATH=src python benchmarks/bench_remote_serving.py [--smoke]
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from functools import partial

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
        answers[start] = service.query_batch(
            queries[start : start + rows_per_request], run.top_k, ef=run.ef
        )

    return [
        partial(serve, start) for start in range(0, len(queries), rows_per_request)
    ]


def require_parity(answers: dict, want_ids, want_dists, what: str) -> None:
    for start, (ids, dists) in answers.items():
        stop = start + len(ids)
        require(
            (ids == want_ids[start:stop]).all()
            and (dists == want_dists[start:stop]).all(),
            f"{what} result differs from in-process serving at query {start}",
        )


def check_throughput(run, env) -> None:
    fs, _, queries, local = env
    want_ids, want_dists = local.query_batch(queries, run.top_k, ef=run.ef)
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
        finally:
            remote.close()
    require_parity(singles, want_ids, want_dists, "remote single-query")
    require_parity(batches, want_ids, want_dists, "remote batched")
    print("parity: remote fleet results bit-identical to in-process ✓")
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
        payload={"smoke": run.smoke, "remote_stages": stages},
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
    want_ids, want_dists = local.query_batch(probe, run.top_k, ef=run.ef)
    p99_ms, stats = {}, {}
    with fleet(
        fs, run.shards, slow_shard=1, slow_every=2, slow_delay_s=SLOW_DELAY_S
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
                require_parity(answers, want_ids, want_dists, name)
                p99_ms[name] = summary(scores[name])["p99_ms"]
                stats = service.brokers[INDEX_NAME].stats()
                service.undeploy(INDEX_NAME)
            finally:
                service.close()
    require(stats["hedges"] >= 1, "the straggler shard never got hedged")
    require(stats["venue"] == "loop", "remote fan-out did not run on the loop")
    print(
        f"hedging: straggler stalls {SLOW_DELAY_S * 1e3:.0f}ms, hedge after "
        f"{HEDGE_AFTER_S * 1e3:.0f}ms -> p99 {p99_ms['unhedged']:.1f}ms "
        f"unhedged vs {p99_ms['hedged']:.1f}ms hedged ({stats['hedges']} "
        f"hedges, {stats['hedge_wins']} wins; bit-parity ✓, loop venue ✓)"
    )
    run.gate("hedged_p99", p99_ms["unhedged"] / p99_ms["hedged"])


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
