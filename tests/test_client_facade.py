"""One RPC client core; ``RemoteSearcherClient`` is a blocking facade.

- The core enforces one cumulative budget per attempt: a peer trickling
  a reply byte by byte cannot stretch an RPC past its deadline, and the
  half-read connection is discarded.
- A deadline that expires between checkout and send returns the pooled
  connection instead of leaking it.
- The facade refuses to block a running event loop.
- All facades of a process share one lazily started loop thread; an
  in-process service starts none.
- One facade shared by many threads, and one transport driven through
  both ``search`` and ``search_batch_async``, answer bit-identically to
  the in-process shard.
- The names the frozen ``benchmarks/ledger`` reaches the shard call by
  stay reachable (they go with ROADMAP 1(a)).
"""

from __future__ import annotations

import asyncio
import functools
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
from repro.net.client import AsyncRemoteSearcherClient, RemoteSearcherClient
from repro.net.protocol import MsgType, ShardCall, frame_to_bytes
from repro.net.server import SearcherServer
from repro.net.transport import (
    AsyncRemoteSearcherTransport,
    RemoteSearcherTransport,
)
from repro.online.broker import Broker
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
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


class TestCoreBudget:
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
        client = AsyncRemoteSearcherClient(
            listener.getsockname()[:2], retries=0
        )
        began = time.monotonic()
        try:
            with pytest.raises(DeadlineExceededError, match="did not answer"):
                asyncio.run(
                    client.search(
                        ShardCall(
                            INDEX_NAME,
                            np.zeros((1, 16), np.float32),
                            3,
                            deadline=began + 0.15,
                        )
                    )
                )
            assert time.monotonic() - began < len(reply) * 0.02 / 2
            assert client.open_connections == 0, "half-read stream was kept"
        finally:
            client.close()
            peer.join(timeout=10)
            listener.close()
        assert not peer.is_alive()


class TestFacade:
    def test_deadline_expiring_after_checkout_returns_the_connection(
        self, server
    ):
        client = RemoteSearcherClient(server.address, retries=0)
        try:
            client.ping()  # warm one pooled connection
            assert (client.connects, client.open_connections) == (1, 1)
            with pytest.raises(DeadlineExceededError, match="already expired"):
                client.ping(deadline=time.monotonic() - 1.0)
            assert client.open_connections == 1
            # Still pooled: the next call dials nothing.
            client.ping()
            assert (client.connects, client.open_connections) == (1, 1)
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
            with pytest.raises(RuntimeError, match=r"await .*\.ping\(\)"):
                asyncio.run(misuse())
            assert client.requests_sent == 0
            assert asyncio.run(client.core.ping()) == 0
        finally:
            client.close()

    def test_one_facade_shared_by_eight_threads_is_bit_identical(
        self, server, shard, queries
    ):
        want_ids, want_dists = shard.search_batch(queries, 5)
        client = RemoteSearcherClient(server.address, retries=0)
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                for call in range(50):
                    row = (seed * 50 + call) % (queries.shape[0] - 1)
                    reply = client.search(
                        ShardCall(INDEX_NAME, queries[row : row + 2], 5)
                    )
                    np.testing.assert_array_equal(
                        reply.ids, want_ids[row : row + 2]
                    )
                    np.testing.assert_array_equal(
                        reply.dists, want_dists[row : row + 2]
                    )
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, repr(errors[:1])
            assert client.queries_served == 8 * 50 * 2
            assert client.requests_sent == 8 * 50
            # Quiescent: whatever is still open is idle in the pool.
            assert 1 <= client.open_connections <= client.core.pool_size
        finally:
            client.close()
        assert client.open_connections == 0


class TestOneRemoteTransport:
    def test_alias_names_the_same_class(self):
        assert AsyncRemoteSearcherTransport is RemoteSearcherTransport

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
            assert transport.queries_served == 2 * queries.shape[0]
        finally:
            transport.close()
        assert transport.client.open_connections == 0

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
        two class attributes with ``(*args, **kwargs)`` functions; every
        loop-venue RPC must cross the first and every search a process
        runs the second, or its ``net.transport`` / ``online.searcher``
        rows silently go empty (only CI's bench-smoke would notice)."""
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
            assert remote.venue == "loop"
            got = remote.search_batch(INDEX_NAME, queries[:3], 5)
        finally:
            remote.close()
            transport.close()
        # One shard RPC, and the server's search of it in this process.
        assert crossed == {"search_batch_async": 1, "search_batch": 1}

        local = Broker([server.node], CONFIG)
        try:
            assert local.venue == "inline"
            inline = local.search_batch(INDEX_NAME, queries[:3], 5)
        finally:
            local.close()
        assert crossed == {"search_batch_async": 1, "search_batch": 2}
        for ids, dists in (got, inline):
            np.testing.assert_array_equal(ids, want[0])
            np.testing.assert_array_equal(dists, want[1])

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
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import save_lanns_index


def loop_threads():
    return [t.name for t in threading.enumerate() if "async-loop" in t.name]


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
service.query_batch(
    rng.normal(size=(4, 8)).astype(np.float32), 3, index_name="census"
)
assert loop_threads() == [], loop_threads()
service.close()

node = SearcherNode(0)
node.host("census", index.shards[0])
server = SearcherServer(node).start_in_thread()
clients = [RemoteSearcherClient(server.address) for _ in range(12)]
assert loop_threads() == [], "constructing a client started a thread"


def drive(worker):
    for client in clients[worker::8] + clients[:2]:
        assert client.ping() == 0


threads = [threading.Thread(target=drive, args=(w,)) for w in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
assert not any(thread.is_alive() for thread in threads)
assert loop_threads() == ["client-async-loop"], loop_threads()
for client in clients:
    client.close()
assert [client.open_connections for client in clients] == [0] * 12
server.stop()
print("census-ok")
"""


class TestThreadCensus:
    def test_in_process_service_starts_none_and_all_facades_share_one(
        self, tmp_path
    ):
        """Run in a fresh interpreter: the client loop is process-wide,
        so other tests of this run may already have started it."""
        script = CENSUS_SCRIPT.replace("ROOT", repr(str(tmp_path)))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().endswith("census-ok")
