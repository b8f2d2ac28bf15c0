"""Overload-safety tests: admission, deadlines, abandonment, shutdown.

The server-side half of PR 10, pinned against a real in-thread asyncio
searcher (raw sockets where the client library would get in the way):

- a saturated searcher sheds surplus SEARCH frames instantly with a
  structured ``OVERLOADED`` error carrying the configured retry-after
  hint -- and serves normally again the moment load drops;
- a request whose ``deadline_ms`` budget is spent -- on arrival or
  while queued for admission -- is rejected with
  ``DeadlineExceededError`` instead of executing for nobody;
- a client that hangs up mid-request has its in-flight work abandoned
  (counted, not computed);
- server-side micro-batching coalesces SEARCH frames from *different*
  connections into one lockstep batch with bit-identical results;
- ``SearcherServer.stop()`` raises instead of silently leaking a thread
  that outlives ``join(timeout)``;
- client reconnect backoff is full jitter, deterministic per seed;
- the broker treats ``OVERLOADED`` as failover-eligible and honors
  retry-after hints at most once, within the deadline budget.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    OverloadedError,
    RemoteCallError,
)
from repro.net.client import AsyncRemoteSearcherClient, RemoteSearcherClient
from repro.net.protocol import (
    PREFIX_SIZE,
    MsgType,
    ShardCall,
    decode_frame,
    frame_to_bytes,
    pack,
    parse_prefix,
    raise_if_error,
)
from repro.net.server import SearcherServer
from repro.online.broker import Broker
from repro.online.failover import failover_eligible, retry_after_pause
from repro.online.searcher import SearcherNode
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import save_lanns_index
from tests.conftest import FAST_HNSW, make_clustered

INDEX_PATH = "prod/overload"
INDEX_NAME = "r"


@pytest.fixture(scope="module")
def shared_fs(tmp_path_factory):
    return LocalHdfs(tmp_path_factory.mktemp("overload-hdfs"))


@pytest.fixture(scope="module")
def queries(index):
    rng = np.random.default_rng(23)
    return rng.normal(size=(4, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def index(shared_fs):
    corpus = make_clustered(400, 16, seed=29)
    config = LannsConfig(
        num_shards=1,
        num_segments=2,
        segmenter="rh",
        hnsw=FAST_HNSW,
        segmenter_sample_size=300,
        seed=7,
    )
    built = build_lanns_index(corpus, config=config)
    save_lanns_index(built, shared_fs, INDEX_PATH)
    return built


def start_server(shared_fs, **kwargs) -> SearcherServer:
    server = SearcherServer(
        SearcherNode(0), root=str(shared_fs.root), **kwargs
    ).start_in_thread()
    client = RemoteSearcherClient(server.address, retries=0)
    try:
        client.deploy(INDEX_NAME, INDEX_PATH)
    finally:
        client.close()
    return server


def recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    data = bytearray()
    while len(data) < nbytes:
        chunk = sock.recv(nbytes - len(data))
        if not chunk:
            raise ConnectionLostError("connection closed mid-frame")
        data += chunk
    return bytes(data)


def raw_search(
    address: str,
    queries: np.ndarray,
    *,
    deadline_ms: float | None = None,
    timeout_s: float = 10.0,
):
    """One SEARCH over a bare socket; returns or raises like the client."""
    header = pack(
        MsgType.SEARCH,
        index=INDEX_NAME,
        top_k=3,
        ef=None,
        deadline_ms=deadline_ms,
    )
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=timeout_s) as s:
        s.sendall(frame_to_bytes(MsgType.SEARCH, header, (queries,)))
        prefix = recv_exact(s, PREFIX_SIZE)
        _, header_len, payload_len = parse_prefix(prefix)
        msg_type, reply, arrays = decode_frame(
            prefix + recv_exact(s, header_len + payload_len)
        )
    raise_if_error(msg_type, reply)
    return arrays


def occupy_slot(server: SearcherServer, queries: np.ndarray):
    """Issue one search on a helper thread; wait until it is executing."""
    seen_before = server.searches_seen
    client = RemoteSearcherClient(server.address, retries=0)

    def request():
        try:
            client.search(ShardCall(INDEX_NAME, queries[:1], 3))
        finally:
            client.close()

    thread = threading.Thread(target=request)
    thread.start()
    deadline = time.monotonic() + 5.0
    while server.searches_seen == seen_before:
        if time.monotonic() > deadline:
            raise TimeoutError("helper request never reached the server")
        time.sleep(0.005)
    return thread


class TestAdmission:
    def test_saturated_searcher_sheds_with_retry_after(
        self, shared_fs, index, queries
    ):
        server = start_server(
            shared_fs,
            max_in_flight=1,
            queue_cap=0,
            retry_after_s=0.123,
            slow_every=1,
            slow_delay_s=0.5,
        )
        try:
            holder = occupy_slot(server, queries)
            with pytest.raises(OverloadedError, match="capacity") as excinfo:
                raw_search(server.address, queries[:1])
            assert excinfo.value.retry_after_s == 0.123
            holder.join(timeout=10)
            # Load gone: the very next request is admitted and served.
            ids, dists = raw_search(server.address, queries[:1])
            assert ids.shape == (1, 3)
            assert server.searches_shed == 1
        finally:
            server.stop()

    def test_admission_disabled_by_default(self, shared_fs, index, queries):
        server = start_server(shared_fs, slow_every=1, slow_delay_s=0.2)
        try:
            holders = [occupy_slot(server, queries) for _ in range(2)]
            # No admission bound: a third concurrent request executes
            # rather than shedding.
            ids, _ = raw_search(server.address, queries[:1])
            assert ids.shape == (1, 3)
            for holder in holders:
                holder.join(timeout=10)
            assert server.searches_shed == 0
        finally:
            server.stop()

    def test_stats_surface_admission_counters(
        self, shared_fs, index, queries
    ):
        server = start_server(shared_fs, max_in_flight=2, queue_cap=5)
        client = RemoteSearcherClient(server.address, retries=0)
        try:
            client.search(ShardCall(INDEX_NAME, queries, 3))
            admission = client.stats()["admission"]
            assert admission["max_in_flight"] == 2
            assert admission["queue_cap"] == 5
            assert admission["searches_shed"] == 0
            assert admission["searches_expired"] == 0
            assert admission["searches_abandoned"] == 0
        finally:
            client.close()
            server.stop()

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            SearcherServer(SearcherNode(0), max_in_flight=-1)
        with pytest.raises(ValueError, match="retry_after_s"):
            SearcherServer(SearcherNode(0), retry_after_s=-0.1)
        with pytest.raises(ValueError, match="batch_max"):
            SearcherServer(SearcherNode(0), batch_max=0)


class TestDeadlinePropagation:
    def test_expired_on_arrival_rejected(self, shared_fs, index, queries):
        server = start_server(shared_fs)
        try:
            with pytest.raises(DeadlineExceededError, match="arrival"):
                raw_search(server.address, queries[:1], deadline_ms=0.0)
            assert server.searches_expired == 1
            # A healthy budget still serves.
            ids, _ = raw_search(
                server.address, queries[:1], deadline_ms=5000.0
            )
            assert ids.shape == (1, 3)
        finally:
            server.stop()

    def test_budget_spent_queueing_rejected(self, shared_fs, index, queries):
        server = start_server(
            shared_fs,
            max_in_flight=1,
            queue_cap=1,
            slow_every=1,
            slow_delay_s=0.4,
        )
        try:
            holder = occupy_slot(server, queries)
            # Queued behind a 0.4s stall with only 50ms of budget: the
            # slot arrives after the client has already given up.
            with pytest.raises(DeadlineExceededError, match="waiting"):
                raw_search(server.address, queries[:1], deadline_ms=50.0)
            holder.join(timeout=10)
            assert server.searches_expired == 1
            assert server.searches_shed == 0
        finally:
            server.stop()

    def test_client_ships_remaining_budget(self, shared_fs, index, queries):
        """An expired client-side deadline reaches the server as ~0ms
        remaining budget and is rejected server-side, not executed."""
        server = start_server(shared_fs)
        client = RemoteSearcherClient(server.address, retries=0)
        try:
            before = server.node.stats()["requests_served"]
            with pytest.raises(DeadlineExceededError):
                client.search(
                    ShardCall(
                        INDEX_NAME,
                        queries[:1],
                        3,
                        deadline=time.monotonic() + 1e-9,
                    )
                )
            assert server.node.stats()["requests_served"] == before
        finally:
            client.close()
            server.stop()


class TestHangupAbandonment:
    def test_disconnect_mid_request_abandons_work(
        self, shared_fs, index, queries
    ):
        server = start_server(shared_fs, slow_every=1, slow_delay_s=0.5)
        try:
            host, port = server.address.rsplit(":", 1)
            with socket.create_connection((host, int(port))) as s:
                s.sendall(
                    frame_to_bytes(
                        MsgType.SEARCH,
                        pack(
                            MsgType.SEARCH, index=INDEX_NAME, top_k=3, ef=None
                        ),
                        (queries[:1],),
                    )
                )
                # Wait for the server to start the stalled search, then
                # hang up -- a cancelled hedge loser, in miniature.
                deadline = time.monotonic() + 5.0
                while server.searches_seen == 0:
                    if time.monotonic() > deadline:
                        raise TimeoutError("request never arrived")
                    time.sleep(0.005)
            deadline = time.monotonic() + 5.0
            while server.searches_abandoned == 0:
                if time.monotonic() > deadline:
                    raise TimeoutError("hang-up never abandoned the work")
                time.sleep(0.005)
            assert server.searches_abandoned == 1
            # The server survives the abandonment and keeps serving.
            ids, _ = raw_search(server.address, queries[:1])
            assert ids.shape == (1, 3)
        finally:
            server.stop()


class TestServerSideMicroBatch:
    def test_coalesces_across_connections_bit_identically(
        self, shared_fs, index, queries
    ):
        server = start_server(shared_fs, batch_max=4, batch_wait_ms=250.0)
        want_ids, want_dists = index.shards[0].search_batch(queries[:3], 3)
        barrier = threading.Barrier(3)
        results: list = [None] * 3
        errors: list = []

        def request(slot: int) -> None:
            client = RemoteSearcherClient(server.address, retries=0)
            try:
                barrier.wait(timeout=10)
                results[slot] = client.search(
                    ShardCall(INDEX_NAME, queries[slot : slot + 1], 3)
                )
            except BaseException as exc:
                errors.append(exc)
            finally:
                client.close()

        threads = [
            threading.Thread(target=request, args=(slot,))
            for slot in range(3)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors, f"batched request failed: {errors[:1]!r}"
            for slot, reply in enumerate(results):
                np.testing.assert_array_equal(
                    reply.ids, want_ids[slot : slot + 1]
                )
                np.testing.assert_array_equal(
                    reply.dists, want_dists[slot : slot + 1]
                )
            stats = RemoteSearcherClient(server.address, retries=0)
            try:
                batch = stats.stats()["server_microbatch"]
            finally:
                stats.close()
            assert batch["rows_executed"] == 3
            assert batch["largest_batch"] >= 2, (
                "three simultaneous frames never coalesced"
            )
        finally:
            server.stop()

    def test_requests_with_extras_bypass_the_batcher(
        self, shared_fs, index, queries
    ):
        server = start_server(shared_fs, batch_max=4, batch_wait_ms=5.0)
        client = RemoteSearcherClient(server.address, retries=0)
        try:
            reply = client.search(ShardCall(INDEX_NAME, queries[:2], 3, cost=True))
            assert reply.cost, "cost accounting lost server-side"
            batch = client.stats()["server_microbatch"]
            assert batch["rows_admitted"] == 0
        finally:
            client.close()
            server.stop()


class TestShutdownRaises:
    def test_stop_raises_when_thread_survives_join(self):
        server = SearcherServer(SearcherNode(0))
        wedged = threading.Thread(target=time.sleep, args=(5.0,), daemon=True)
        wedged.start()
        server._thread = wedged
        with pytest.raises(TimeoutError, match="still alive"):
            server.stop(timeout=0.05)

    def test_stop_is_idempotent_after_clean_shutdown(self, shared_fs):
        server = SearcherServer(
            SearcherNode(0), root=str(shared_fs.root)
        ).start_in_thread()
        server.stop()
        server.stop()  # second stop: no thread left, no raise


class TestBackoffJitter:
    def test_jitter_is_bounded_and_deterministic_per_seed(self):
        """One RNG implementation: the facade draws through its core, so
        a seed (or the address-hash default) fixes the schedule for
        blocking and awaiting callers alike."""

        def draws(**kwargs):
            core = AsyncRemoteSearcherClient("127.0.0.1:1", **kwargs)
            return [core._jitter(0.2) for _ in range(16)]

        assert draws(backoff_seed=7) == draws(backoff_seed=7)
        assert all(0.0 <= draw <= 0.2 for draw in draws(backoff_seed=7))
        assert draws(backoff_seed=7) != draws(backoff_seed=8)
        assert draws() == draws()
        facade = RemoteSearcherClient("127.0.0.1:1")
        assert [facade.core._jitter(0.2) for _ in range(16)] == draws()

    def test_retries_actually_draw_jittered_pauses(self):
        client = RemoteSearcherClient(
            "127.0.0.1:1",
            retries=2,
            backoff_s=0.01,
            backoff_seed=3,
            connect_timeout_s=0.2,
        )
        try:
            with pytest.raises(ConnectionLostError):
                client.ping()
            assert client.retried == 2
        finally:
            client.close()


class TestBrokerOverloadPolicy:
    def test_overloaded_is_failover_eligible(self):
        assert failover_eligible(OverloadedError("full"))
        assert not failover_eligible(
            RemoteCallError("ValueError", "boom")
        )

    def test_retry_after_pause_honored_once_within_budget(self):
        shed = OverloadedError("full", retry_after_s=0.05)
        assert retry_after_pause(shed, None, False) == 0.05
        # Only once per request.
        assert retry_after_pause(shed, None, True) is None
        # Only for overload, and only with a hint.
        assert retry_after_pause(None, None, False) is None
        assert retry_after_pause(OverloadedError("no hint"), None, False) is None
        # The hint must fit the remaining deadline budget.
        tight = time.monotonic() + 0.01
        roomy = time.monotonic() + 10.0
        assert retry_after_pause(shed, tight, False) is None
        assert retry_after_pause(shed, roomy, False) == 0.05
