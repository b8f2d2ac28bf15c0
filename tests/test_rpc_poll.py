"""The blocking client's RPC machinery: :class:`Rpc` and :func:`poll`.

Driven against small fake searchers on loopback, so each test pins one
rule of ``repro.net.client`` without an index behind it:

- RPCs started together are in flight together, each on its own socket,
  and one ``poll`` collects them all;
- a socket comes back to the pool only after a reply that ends exactly
  at its frame; a reply with bytes past it, a cancelled RPC and a
  timed-out one each discard their socket;
- a retry's reconnect backoff is a timer of the poll, never a sleep in
  the starting thread; a call that is not idempotent is never retried;
- neither a connect that never completes nor a peer that stops reading
  holds the starting thread: each ends on its own budget, in the poll;
- a reply of the wrong type, and a call on a closed client, fail typed.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import ConnectionLostError, DeadlineExceededError, ProtocolError
from repro.net.client import RemoteSearcherClient, Rpc, poll
from repro.net.protocol import MsgType, ShardCall, frame_to_bytes, pack
from tests.test_net_protocol import recv_frames
from tests.test_remote_serving import black_hole, full_backlog, refused_address

#: The OK frame a searcher answers PING with.
PONG = frame_to_bytes(MsgType.OK, pack(MsgType.OK, shard_id=7), ())


@contextlib.contextmanager
def fake_searcher(handle):
    """A fake searcher on loopback: every connection it accepts is
    handed, on a thread of its own, to ``handle(conn)``."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop, workers = threading.Event(), []

    def serve(conn: socket.socket) -> None:
        with conn:
            try:
                handle(conn)
            except OSError:
                pass  # the client hung up first

    def accept() -> None:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            worker = threading.Thread(target=serve, args=(conn,), daemon=True)
            worker.start()
            workers.append(worker)

    acceptor = threading.Thread(target=accept, daemon=True)
    acceptor.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}"
    finally:
        stop.set()
        acceptor.join(timeout=10)
        for worker in workers:
            worker.join(timeout=10)
        listener.close()


def answer_pings(conn: socket.socket) -> None:
    """Answer every PING on the connection until the client hangs up."""
    while recv_frames(conn, 1):
        conn.sendall(PONG)


def start_ping(client: RemoteSearcherClient, **kwargs) -> Rpc:
    return client._start(MsgType.PING, **kwargs)


class TestPoll:
    def test_rpcs_started_together_are_answered_together(self):
        """The peer answers no PING before all four arrived: a client
        that waited on one RPC before sending the next would stall."""
        count = 4
        barrier = threading.Barrier(count, timeout=5)

        def answer_once_all_arrived(conn: socket.socket) -> None:
            recv_frames(conn, 1)
            barrier.wait()
            conn.sendall(PONG)

        with fake_searcher(answer_once_all_arrived) as address:
            client = RemoteSearcherClient(address, retries=0, pool_size=count)
            try:
                rpcs = [start_ping(client) for _ in range(count)]
                poll(rpcs)
                assert [rpc.result().shard_id for rpc in rpcs] == [7] * count
                counts = client.tally.snapshot()
                assert counts["connects"] == counts["requests_sent"] == count
                assert client.open_connections == count  # all pooled
            finally:
                client.close()
        assert client.open_connections == 0

    def test_finished_waiters_cost_no_wait(self):
        with fake_searcher(answer_pings) as address:
            client = RemoteSearcherClient(address, retries=0)
            try:
                rpc = start_ping(client)
                poll([rpc])
                assert rpc.done
                began = time.monotonic()
                poll([])
                poll([rpc, rpc])
                assert time.monotonic() - began < 0.05
                assert client.tally.snapshot()["requests_sent"] == 1
            finally:
                client.close()

    def test_each_silent_rpc_ends_on_its_own_budget(self):
        """The poll sleeps until the earliest timer, not the latest: the
        short RPC is over long before the long one."""
        ended = {}

        class Timed:
            """A waiter that notes when its RPC ended."""

            def __init__(self, name: str, rpc: Rpc) -> None:
                self.name, self.rpc = name, rpc

            @property
            def done(self) -> bool:
                return self.rpc.done

            @property
            def wake_at(self) -> float:
                return self.rpc.wake_at

            def rpcs(self):
                return (self.rpc,)

            def step(self, now, ready) -> None:
                self.rpc.step(now, ready)
                if self.rpc.done:
                    ended.setdefault(self.name, time.monotonic())

        silent = threading.Event()
        with fake_searcher(lambda conn: silent.wait(10)) as address:
            client = RemoteSearcherClient(address, retries=0)
            try:
                began = time.monotonic()
                short = start_ping(client, deadline=began + 0.1)
                long = start_ping(client, deadline=began + 0.4)
                poll([Timed("short", short), Timed("long", long)])
                for rpc in (short, long):
                    with pytest.raises(DeadlineExceededError, match="did not answer"):
                        rpc.result()
                assert 0.1 <= ended["short"] - began < 0.3
                assert ended["long"] - began >= 0.4
                assert client.open_connections == 0, "a timed-out socket was kept"
            finally:
                silent.set()
                client.close()


class TestPooling:
    @pytest.mark.parametrize(
        "tail", [PONG, PONG[:5]], ids=["a_second_frame", "a_partial_frame"]
    )
    def test_bytes_past_the_reply_discard_the_socket(self, tail):
        """The stream is out of step with the requests: the next call
        on that socket would read a reply to somebody else's request."""

        def answer_with_a_tail(conn: socket.socket) -> None:
            while recv_frames(conn, 1):
                conn.sendall(PONG + tail)

        with fake_searcher(answer_with_a_tail) as address:
            client = RemoteSearcherClient(address, retries=0)
            try:
                assert client.ping() == 7
                assert client.open_connections == 0
                assert client.ping() == 7
                assert client.tally.snapshot()["connects"] == 2
            finally:
                client.close()

    def test_cancel_discards_the_socket_of_an_rpc_in_flight(self):
        hung_up = threading.Event()

        def wait_for_hangup(conn: socket.socket) -> None:
            recv_frames(conn, 1)
            conn.settimeout(5)
            if conn.recv(1) == b"":
                hung_up.set()

        with fake_searcher(wait_for_hangup) as address:
            client = RemoteSearcherClient(address, retries=0)
            try:
                rpc = start_ping(client)
                assert client.open_connections == 1 and not rpc.done
                rpc.cancel()
                assert rpc.done and rpc.sock is None
                assert client.open_connections == 0
                assert hung_up.wait(5), "the peer never saw the socket close"
            finally:
                client.close()


class TestRetries:
    def test_the_backoff_is_a_poll_timer_not_a_sleep(self):
        """Starting an RPC to a refused address returns at once with its
        retry pending; the poll makes the retries and ends the call."""
        client = RemoteSearcherClient(
            refused_address(), retries=2, backoff_s=0.2, backoff_seed=0
        )
        try:
            began = time.monotonic()
            rpc = start_ping(client)
            assert time.monotonic() - began < 0.1
            assert not rpc.done and rpc.sock is None
            assert began < rpc.wake_at <= time.monotonic() + 0.2
            poll([rpc])
            with pytest.raises(ConnectionLostError, match="cannot connect"):
                rpc.result()
            counts = client.tally.snapshot()
            assert counts["requests_sent"] == 3
            assert counts["retried"] == 2
            assert counts.get("connects", 0) == 0
        finally:
            client.close()

    def test_a_dial_falls_through_to_the_next_address(self):
        """A name may resolve to several addresses (``localhost`` to
        ``::1`` and ``127.0.0.1``); a refused one is not yet a failure."""
        with fake_searcher(answer_pings) as address:
            client = RemoteSearcherClient(address, retries=0)
            host, port = refused_address().split(":")
            refused = socket.getaddrinfo(host, int(port), type=socket.SOCK_STREAM)
            resolve = client._resolve
            client._resolve = lambda: refused + resolve()
            try:
                assert client.ping() == 7
                counts = client.tally.snapshot()
                assert counts["requests_sent"] == counts["connects"] == 1
            finally:
                client.close()

    def test_a_call_that_is_not_idempotent_is_not_retried(self):
        client = RemoteSearcherClient(refused_address(), retries=3)
        try:
            with pytest.raises(ConnectionLostError, match="cannot connect"):
                client.undeploy("anything")
            counts = client.tally.snapshot()
            assert counts["requests_sent"] == 1
            assert counts.get("retried", 0) == 0
        finally:
            client.close()


class TestStalledPeers:
    @pytest.mark.parametrize(
        "connect_timeout_s, deadline_s, error",
        [(0.2, 5.0, ConnectionLostError), (5.0, 0.2, DeadlineExceededError)],
        ids=["connect_timeout", "deadline"],
    )
    def test_a_connect_that_never_completes_is_a_poll_timer(
        self, connect_timeout_s, deadline_s, error
    ):
        with full_backlog() as address:
            client = RemoteSearcherClient(
                address, retries=0, connect_timeout_s=connect_timeout_s
            )
            try:
                began = time.monotonic()
                rpc = start_ping(client, deadline=began + deadline_s)
                assert time.monotonic() - began < 0.1
                assert not rpc.done and rpc.sock is not None
                poll([rpc])
                with pytest.raises(error, match="timed out after"):
                    rpc.result()
                assert 0.2 <= time.monotonic() - began < 2.0
                assert client.open_connections == 0
            finally:
                client.close()

    def test_a_peer_that_stops_reading_cannot_hold_a_send(self):
        """A 16 MiB frame, four times what loopback buffers: the start
        returns with the rest of the send pending, and the attempt's
        budget ends it."""
        queries = np.zeros((4096, 1024), dtype=np.float32)
        with black_hole() as address:
            client = RemoteSearcherClient(address, retries=0)
            try:
                began = time.monotonic()
                rpc = client.start_search(
                    ShardCall("x", queries, 1, deadline=began + 0.5)
                )
                assert time.monotonic() - began < 0.5 and not rpc.done
                poll([rpc])
                with pytest.raises(DeadlineExceededError, match="did not answer"):
                    rpc.result()
                assert time.monotonic() - began < 2.0
                assert client.open_connections == 0
            finally:
                client.close()


class TestTypedFailures:
    def test_a_reply_of_the_wrong_type_is_a_protocol_error(self):
        stats = frame_to_bytes(MsgType.RESULT, pack(MsgType.RESULT, index="x"), ())

        def answer_with_a_result(conn: socket.socket) -> None:
            while recv_frames(conn, 1):
                conn.sendall(stats)

        with fake_searcher(answer_with_a_result) as address:
            client = RemoteSearcherClient(address, retries=2)
            try:
                with pytest.raises(ProtocolError, match="PING was answered with RESULT"):
                    client.ping()
                # A well-framed reply is the searcher's answer: not retried.
                assert client.tally.snapshot()["requests_sent"] == 1
            finally:
                client.close()

    def test_a_closed_client_refuses_calls_without_dialing(self):
        with fake_searcher(answer_pings) as address:
            client = RemoteSearcherClient(address, retries=0)
            assert client.ping() == 7
            client.close()
            assert client.open_connections == 0
            with pytest.raises(ConnectionLostError, match="is closed"):
                client.ping()
            assert client.tally.snapshot()["connects"] == 1
