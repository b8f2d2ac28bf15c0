"""One RPC client, ``RemoteSearcherClient``, over non-blocking sockets.

- The client enforces one cumulative budget per attempt: a peer
  trickling a reply byte by byte cannot stretch an RPC past its
  deadline, and the half-read connection is discarded.
- A call whose deadline has already expired leaves the pooled
  connection pooled instead of leaking it.
- Neither a client call nor a remote-venue broker blocks a running
  event loop: both refuse.
- No client or broker starts a thread; a forked child dials its own
  connection and leaves the parent's pooled one serving.
- One transport driven through both ``search`` and
  ``search_batch_async`` answers bit-identically to the in-process shard.
  (A client shared by many threads is the ``remote`` x ``threads`` cells
  of ``tests/test_path_matrix.py``.)
- The names the frozen ``benchmarks/ledger`` reaches the shard call by
  stay reachable (they go with ROADMAP 2(a)).
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import socket
import subprocess
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.errors import DeadlineExceededError
from repro.net.client import RemoteSearcherClient
from repro.net.protocol import MsgType, ShardCall, frame_to_bytes
from repro.net.server import SearcherServer
from repro.net.transport import (
    AsyncRemoteSearcherTransport,
    RemoteSearcherTransport,
)
from repro.online.broker import Broker
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from tests.conftest import FAST_HNSW, make_clustered

INDEX_NAME = "facade"


CONFIG = LannsConfig(
    num_shards=1,
    num_segments=2,
    segmenter="rh",
    hnsw=FAST_HNSW,
    segmenter_sample_size=300,
    seed=41,
)


@pytest.fixture(scope="module")
def shard():
    corpus = make_clustered(400, 16, seed=42)
    return build_lanns_index(corpus, config=CONFIG).shards[0]


@pytest.fixture(scope="module")
def queries():
    return make_clustered(24, 16, seed=43)


@pytest.fixture
def server(shard):
    node = SearcherNode(0)
    node.host(INDEX_NAME, shard)
    running = SearcherServer(node).start_in_thread()
    yield running
    running.stop()


class TestBudget:
    def test_trickled_reply_cannot_outlive_the_deadline(self):
        """A peer that answers one byte every 20 ms keeps each read
        alive; only a budget over the whole round trip stops it."""
        reply = frame_to_bytes(
            MsgType.RESULT,
            {"index": INDEX_NAME},
            (np.zeros((1, 3), np.int64), np.zeros((1, 3), np.float64)),
        )
        listener = socket.create_server(("127.0.0.1", 0))

        def trickle() -> None:
            conn, _ = listener.accept()
            with conn:
                conn.recv(1 << 16)
                try:
                    for byte in reply:
                        conn.sendall(bytes([byte]))
                        time.sleep(0.02)
                except OSError:
                    pass  # the client hung up on us, as it should

        peer = threading.Thread(target=trickle, daemon=True)
        peer.start()
        client = RemoteSearcherClient(listener.getsockname()[:2], retries=0)
        began = time.monotonic()
        try:
            with pytest.raises(DeadlineExceededError, match="did not answer"):
                client.search(
                    ShardCall(
                        INDEX_NAME,
                        np.zeros((1, 16), np.float32),
                        3,
                        deadline=began + 0.15,
                    )
                )
            assert time.monotonic() - began < len(reply) * 0.02 / 2
            assert client.open_connections == 0, "half-read stream was kept"
        finally:
            client.close()
            peer.join(timeout=10)
            listener.close()
        assert not peer.is_alive()


class TestClient:
    def test_deadline_expiring_after_checkout_returns_the_connection(
        self, server
    ):
        client = RemoteSearcherClient(server.address, retries=0)
        try:
            client.ping()  # warm one pooled connection
            assert client.tally.snapshot()["connects"] == 1
            assert client.open_connections == 1
            with pytest.raises(DeadlineExceededError, match="already expired"):
                client.ping(deadline=time.monotonic() - 1.0)
            assert client.open_connections == 1
            # Still pooled: the next call dials nothing.
            client.ping()
            assert client.tally.snapshot()["connects"] == 1
            assert client.open_connections == 1
        finally:
            client.close()
        assert client.open_connections == 0

    def test_calling_from_a_running_loop_raises_instead_of_deadlocking(
        self, server
    ):
        client = RemoteSearcherClient(server.address, retries=0)

        async def misuse():
            return client.ping()

        try:
            with pytest.raises(
                RuntimeError, match=r"RemoteSearcherClient\.ping\(\) from a running"
            ):
                asyncio.run(misuse())
            assert client.tally.snapshot() == {}
            # The way out the refusal names: a plain thread.
            assert asyncio.run(asyncio.to_thread(client.ping)) == 0
        finally:
            client.close()


def ping_within(client: RemoteSearcherClient, seconds: float) -> None:
    began = time.monotonic()
    assert client.ping() == 0
    assert time.monotonic() - began < seconds


class TestBlockingCallers:
    def test_a_blocking_broker_call_inside_a_loop_raises(self, server, queries):
        """From a coroutine under ``asyncio.run``: refused before any
        RPC."""
        client = RemoteSearcherClient(server.address, 0)
        broker = Broker([client], CONFIG)

        async def misuse():
            return broker.execute(SearchRequest(queries[:2], 5, INDEX_NAME))

        try:
            with pytest.raises(RuntimeError, match="running event loop"):
                asyncio.run(misuse())
            assert client.tally.snapshot() == {}
        finally:
            broker.close()
            client.close()

    @pytest.mark.filterwarnings(
        "ignore:This process .* is multi-threaded:DeprecationWarning"
    )
    def test_a_forked_child_pings_on_its_own_connection(self, server):
        """The pooled socket is the parent's: the child dials its own,
        and the parent's still serves afterwards."""
        client = RemoteSearcherClient(server.address, timeout_s=2.0, retries=0)
        try:
            assert client.ping() == 0
            child = multiprocessing.get_context("fork").Process(
                target=ping_within, args=(client, 2.0)
            )
            child.start()
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
            assert child.exitcode == 0
            assert client.ping() == 0
            assert client.tally.snapshot()["connects"] == 1
        finally:
            client.close()


class TestOneRemoteTransport:
    def test_alias_names_the_same_class(self):
        """The remote transport is the client; the frozen ledger's two
        names for it are aliases, not a class that forwards."""
        assert (
            RemoteSearcherTransport
            is AsyncRemoteSearcherTransport
            is RemoteSearcherClient
        )

    def test_both_search_paths_agree_and_count_each_row_once(
        self, server, shard, queries
    ):
        want_ids, want_dists = shard.search_batch(queries, 5)
        transport = RemoteSearcherTransport(server.address, 0)
        call = ShardCall(INDEX_NAME, queries, 5)
        try:
            transport.verify()
            blocking = transport.search(call)
            awaited = asyncio.run(transport.search_batch_async(call))
            for reply in (blocking, awaited):
                np.testing.assert_array_equal(reply.ids, want_ids)
                np.testing.assert_array_equal(reply.dists, want_dists)
                assert reply.cost is None and reply.trace is None
            counts = transport.tally.snapshot()
            assert counts["queries_served"] == 2 * queries.shape[0]
        finally:
            transport.close()
        assert transport.open_connections == 0

    def test_the_positional_shim_is_search_of_the_same_call(
        self, server, queries
    ):
        """The frozen ledger's blocking probe spells the call
        positionally; it must stay ``search`` of that very call."""
        transport = RemoteSearcherTransport(server.address, 0)
        try:
            shim = transport.search_batch(INDEX_NAME, queries, 5, ef=48)
            direct = transport.search(ShardCall(INDEX_NAME, queries, 5, ef=48))
        finally:
            transport.close()
        assert shim.ids.tobytes() == direct.ids.tobytes()
        assert shim.dists.tobytes() == direct.dists.tobytes()

    def test_the_frozen_ledgers_patch_points_are_crossed(
        self, server, shard, queries, monkeypatch
    ):
        """``benchmarks/ledger/layers.py`` times a shard RPC by wrapping
        two class attributes with ``(*args, **kwargs)`` functions.  Every
        search a process runs must cross the second, or its
        ``online.searcher`` rows silently go empty (only CI's bench-smoke
        would notice).  The first, ``search_batch_async``, is crossed by
        nothing since the fan-out starts its RPCs on the calling thread:
        the traced ledger's ``net.transport`` rows stay empty until
        ROADMAP 2(a) ports it."""
        crossed = Counter()

        def counting(owner, attribute, is_async):
            original = getattr(owner, attribute)

            if is_async:

                @functools.wraps(original)
                async def wrapper(*args, **kwargs):
                    crossed[attribute] += 1
                    return await original(*args, **kwargs)

            else:

                @functools.wraps(original)
                def wrapper(*args, **kwargs):
                    crossed[attribute] += 1
                    return original(*args, **kwargs)

            monkeypatch.setattr(owner, attribute, wrapper)

        counting(RemoteSearcherTransport, "search_batch_async", True)
        counting(SearcherNode, "search_batch", False)
        want = shard.search_batch(queries[:3], 5)

        transport = RemoteSearcherTransport(server.address, 0)
        remote = Broker([transport], CONFIG)
        try:
            got = remote.execute(SearchRequest(queries[:3], 5, INDEX_NAME))
        finally:
            remote.close()
            transport.close()
        # The server's search of the one shard RPC, in this process.
        assert crossed == {"search_batch": 1}

        local = Broker([server.node], CONFIG)
        try:
            inline = local.execute(SearchRequest(queries[:3], 5, INDEX_NAME))
        finally:
            local.close()
        assert crossed == {"search_batch": 2}
        for response in (got, inline):
            np.testing.assert_array_equal(response.ids, want[0])
            np.testing.assert_array_equal(response.dists, want[1])

    def test_the_ledgers_service_keyword_is_still_accepted(self):
        OnlineService(async_fanout=True).close()


CENSUS_SCRIPT = """
import threading

import numpy as np

import repro.net
from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.hnsw.index import HnswParams
from repro.net.client import RemoteSearcherClient
from repro.net.server import SearcherServer
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import save_lanns_index


def started_threads():  # besides the main one and the searcher's
    return [
        t.name
        for t in threading.enumerate()
        if t is not threading.main_thread() and not t.name.startswith("searcher")
    ]


rng = np.random.default_rng(5)
config = LannsConfig(
    num_shards=1,
    num_segments=1,
    hnsw=HnswParams(M=8, ef_construction=40, ef_search=40, seed=0),
    seed=3,
)
index = build_lanns_index(
    rng.normal(size=(200, 8)).astype(np.float32), config=config
)
fs = LocalHdfs(ROOT)
save_lanns_index(index, fs, "census")
service = OnlineService()
service.deploy(fs, "census", index_name="census")
service.execute(
    SearchRequest(rng.normal(size=(4, 8)).astype(np.float32), 3, "census")
)
assert started_threads() == [], started_threads()
service.close()

node = SearcherNode(0)
node.host("census", index.shards[0])
server = SearcherServer(node).start_in_thread()
clients = [RemoteSearcherClient(server.address) for _ in range(12)]
assert started_threads() == [], "constructing a client started a thread"


def drive(worker):
    for client in clients[worker::8] + clients[:2]:
        assert client.ping() == 0


threads = [threading.Thread(target=drive, args=(w,)) for w in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
assert not any(thread.is_alive() for thread in threads)
assert started_threads() == [], started_threads()

# A/B: two indices deployed on the remote fleet, one broker each.
ab = OnlineService(searchers=[server.address])
for name in ("a", "b"):
    ab.deploy(fs, "census", index_name=name)
    ab.execute(SearchRequest(rng.normal(size=(4, 8)).astype(np.float32), 3, name))
assert started_threads() == [], started_threads()
ab.close()
for client in clients:
    client.close()
assert [client.open_connections for client in clients] == [0] * 12
server.stop()
print("census-ok")
"""


class TestThreadCensus:
    def test_no_service_client_or_broker_starts_a_thread(self, tmp_path):
        """Run in a fresh interpreter, so no other test's threads count:
        an in-process service, 12 clients pinged from 8 threads and an
        A/B service's two remote brokers start none."""
        script = CENSUS_SCRIPT.replace("ROOT", repr(str(tmp_path)))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().endswith("census-ok")
