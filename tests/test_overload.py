"""Overload-safety tests: admission, deadlines, abandonment, shutdown.

The server-side half of PR 10, pinned against a real in-thread searcher
(raw sockets where the client library would get in the way):

- a saturated searcher sheds surplus SEARCH frames instantly with a
  structured ``OVERLOADED`` error carrying the configured retry-after
  hint -- and serves normally again the moment load drops;
- a request whose ``deadline_ms`` budget is spent -- on arrival or
  while queued for admission -- is rejected with
  ``DeadlineExceededError`` instead of executing for nobody;
- a client that hangs up mid-request has its in-flight work abandoned
  (counted, not computed);
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
from repro.net.client import RemoteSearcherClient
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


def counted(server: SearcherServer, name: str) -> int:
    return server.tally.snapshot().get(name, 0)


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


def stalls(server: SearcherServer) -> int:
    return server.tally.snapshot().get("faults", {}).get("delay", 0)


def occupy_slot(server: SearcherServer, queries: np.ndarray):
    """Issue one search on a helper thread; wait until its injected
    stall holds an admission slot (a stall is counted once its slot is
    taken, right before it sleeps)."""
    stalled_before = stalls(server)
    client = RemoteSearcherClient(server.address, retries=0)

    def request():
        try:
            client.search(ShardCall(INDEX_NAME, queries[:1], 3))
        finally:
            client.close()

    thread = threading.Thread(target=request)
    thread.start()
    deadline = time.monotonic() + 5.0
    while stalls(server) == stalled_before:
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
            chaos="delay_every=1,delay_s=0.5",
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
            assert counted(server, "shed") == 1
        finally:
            server.stop()

    def test_an_injected_stall_holds_its_slot_and_shows_in_the_trace(
        self, shared_fs, index, queries
    ):
        """A ``delay`` fault stalls after admission, holding its slot, so
        a concurrent SEARCH is shed; a traced call's searcher spans carry
        the ``stall``."""
        server = start_server(
            shared_fs, max_in_flight=1, queue_cap=0,
            chaos="delay_every=1,delay_s=0.3",
        )
        client = RemoteSearcherClient(server.address, retries=0)
        try:
            holder = occupy_slot(server, queries)
            with pytest.raises(OverloadedError, match="capacity"):
                raw_search(server.address, queries[:1])
            holder.join(timeout=10)
            trace = {"trace_id": "stall", "sampled": True}
            reply = client.search(ShardCall(INDEX_NAME, queries[:1], 3, trace=trace))
            (stall,) = [span for span in reply.trace if span["name"] == "stall"]
            assert stall["annotations"] == {"injected": True}
            assert stall["dur_ms"] >= 0.9 * 300
            # The shed frame drew a stall too, but never slept it.
            assert counted(server, "shed") == 1 and stalls(server) == 2
        finally:
            client.close()
            server.stop()

    def test_admission_disabled_by_default(self, shared_fs, index, queries):
        server = start_server(shared_fs, chaos="delay_every=1,delay_s=0.2")
        try:
            holders = [occupy_slot(server, queries) for _ in range(2)]
            # No admission bound: a third concurrent request executes
            # rather than shedding.
            ids, _ = raw_search(server.address, queries[:1])
            assert ids.shape == (1, 3)
            for holder in holders:
                holder.join(timeout=10)
            assert counted(server, "shed") == 0
        finally:
            server.stop()

    def test_stats_surface_admission_counters(
        self, shared_fs, index, queries
    ):
        server = start_server(shared_fs, max_in_flight=2, queue_cap=5)
        client = RemoteSearcherClient(server.address, retries=0)
        try:
            client.search(ShardCall(INDEX_NAME, queries, 3))
            stats = client.stats()
            assert stats["options"]["max_in_flight"] == 2
            assert stats["options"]["queue_cap"] == 5
            assert not {"shed", "expired", "abandoned"} & set(stats["counts"])
        finally:
            client.close()
            server.stop()

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            SearcherServer(SearcherNode(0), max_in_flight=-1)
        with pytest.raises(ValueError, match="retry_after_s"):
            SearcherServer(SearcherNode(0), retry_after_s=-0.1)


class TestDeadlinePropagation:
    def test_expired_on_arrival_rejected(self, shared_fs, index, queries):
        server = start_server(shared_fs)
        try:
            with pytest.raises(DeadlineExceededError, match="arrival"):
                raw_search(server.address, queries[:1], deadline_ms=0.0)
            assert counted(server, "expired") == 1
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
            chaos="delay_every=1,delay_s=0.4",
        )
        try:
            holder = occupy_slot(server, queries)
            # Queued behind a 0.4s stall with only 50ms of budget: the
            # slot arrives after the client has already given up.
            with pytest.raises(DeadlineExceededError, match="waiting"):
                raw_search(server.address, queries[:1], deadline_ms=50.0)
            holder.join(timeout=10)
            assert counted(server, "expired") == 1
            assert counted(server, "shed") == 0
        finally:
            server.stop()

    def test_client_ships_remaining_budget(self, shared_fs, index, queries):
        """An expired client-side deadline reaches the server as ~0ms
        remaining budget and is rejected server-side, not executed."""
        server = start_server(shared_fs)
        client = RemoteSearcherClient(server.address, retries=0)
        try:
            before = server.node.stats()["counts"]
            with pytest.raises(DeadlineExceededError):
                client.search(
                    ShardCall(
                        INDEX_NAME,
                        queries[:1],
                        3,
                        deadline=time.monotonic() + 1e-9,
                    )
                )
            assert server.node.stats()["counts"] == before
        finally:
            client.close()
            server.stop()


class TestHangupAbandonment:
    def test_disconnect_mid_request_abandons_work(
        self, shared_fs, index, queries
    ):
        server = start_server(shared_fs, chaos="delay_every=1,delay_s=0.5")
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
                while stalls(server) == 0:
                    if time.monotonic() > deadline:
                        raise TimeoutError("request never arrived")
                    time.sleep(0.005)
            deadline = time.monotonic() + 5.0
            while counted(server, "abandoned") == 0:
                if time.monotonic() > deadline:
                    raise TimeoutError("hang-up never abandoned the work")
                time.sleep(0.005)
            assert counted(server, "abandoned") == 1
            # The server survives the abandonment and keeps serving.
            ids, _ = raw_search(server.address, queries[:1])
            assert ids.shape == (1, 3)
        finally:
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
        """A seed (or the address-hash default) fixes the schedule."""

        def draws(**kwargs):
            client = RemoteSearcherClient("127.0.0.1:1", **kwargs)
            return [client._jitter(0.2) for _ in range(16)]

        assert draws(backoff_seed=7) == draws(backoff_seed=7)
        assert all(0.0 <= draw <= 0.2 for draw in draws(backoff_seed=7))
        assert draws(backoff_seed=7) != draws(backoff_seed=8)
        assert draws() == draws()

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
            assert client.tally.snapshot()["retried"] == 2
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
