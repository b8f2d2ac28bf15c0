"""Tests for the runtime concurrency sanitizer (``repro.analysis.sanitizer``).

Constructs a real A->B / B->A lock-order inversion across two threads
and asserts the sanitizer sees it, plus the blocking-call-under-lock
detector and the Condition/RLock plumbing the instrumented primitives
must keep intact.

The tests cooperate with a session-wide sanitizer (``REPRO_SANITIZE=1``
installs one via conftest): they only install/uninstall when nobody
else has, and they remove the violations they provoke so the session
teardown assertion stays clean.
"""

import threading
import time

import pytest

from repro.analysis import sanitizer


@pytest.fixture
def sanitized():
    """Yield the violation-list watermark; restore state afterwards."""
    was_installed = sanitizer._state.installed
    if not was_installed:
        sanitizer.install()
    watermark = len(sanitizer.violations())
    try:
        yield watermark
    finally:
        with sanitizer._state.guard:
            del sanitizer._state.violations[watermark:]
        if not was_installed:
            sanitizer.uninstall()


def _new_since(watermark: int):
    return sanitizer.violations()[watermark:]


def _run_thread(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestLockOrder:

    def test_inversion_across_two_threads_detected(self, sanitized):
        lock_a = threading.Lock()
        lock_b = threading.Lock()

        def forward():
            with lock_a:
                with lock_b:
                    pass

        def backward():
            with lock_b:
                with lock_a:
                    pass

        # Sequential threads: the orders never actually deadlock, which
        # is exactly why only the order *graph* can catch the hazard.
        _run_thread(forward)
        _run_thread(backward)

        inversions = [
            v for v in _new_since(sanitized) if v.kind == "lock-order"
        ]
        assert inversions, "A->B then B->A must report an inversion"
        assert "inversion" in inversions[0].message

    def test_consistent_order_clean(self, sanitized):
        lock_a = threading.Lock()
        lock_b = threading.Lock()

        def worker():
            with lock_a:
                with lock_b:
                    pass

        _run_thread(worker)
        _run_thread(worker)
        assert _new_since(sanitized) == []

    def test_transitive_cycle_detected(self, sanitized):
        # A->B, B->C, then C->A: no single pair inverts, only the cycle.
        lock_a = threading.Lock()
        lock_b = threading.Lock()
        lock_c = threading.Lock()

        def ab():
            with lock_a:
                with lock_b:
                    pass

        def bc():
            with lock_b:
                with lock_c:
                    pass

        def ca():
            with lock_c:
                with lock_a:
                    pass

        _run_thread(ab)
        _run_thread(bc)
        _run_thread(ca)
        assert any(v.kind == "lock-order" for v in _new_since(sanitized))


class TestBlockingUnderLock:

    def test_sleep_under_lock_detected(self, sanitized):
        lock = threading.Lock()
        with lock:
            time.sleep(0.001)
        blocking = [
            v for v in _new_since(sanitized) if v.kind == "blocking-call"
        ]
        assert blocking
        assert "time.sleep" in blocking[0].message

    def test_sleep_without_lock_clean(self, sanitized):
        time.sleep(0.001)
        assert _new_since(sanitized) == []

    def test_future_result_under_lock_detected(self, sanitized):
        from concurrent.futures import Future

        future = Future()
        future.set_result(42)
        lock = threading.Lock()
        with lock:
            assert future.result() == 42
        assert any(
            v.kind == "blocking-call" and "Future.result" in v.message
            for v in _new_since(sanitized)
        )


    def test_a_client_call_under_lock_detected(self, sanitized):
        """A client call -- like the remote fan-out, which polls the
        same RPCs -- parks the calling thread in its ``select.poll``
        wait: holding a lock across it is flagged."""
        from repro.net.client import RemoteSearcherClient
        from repro.net.server import SearcherServer
        from repro.online.searcher import SearcherNode

        server = SearcherServer(SearcherNode(0)).start_in_thread()
        client = RemoteSearcherClient(server.address)
        lock = threading.Lock()
        try:
            client.ping()  # dials outside the lock
            watermark = len(sanitizer.violations())
            with lock:
                client.ping()
        finally:
            client.close()
            server.stop()
        calls = {
            v.message.split("()")[0]
            for v in _new_since(watermark)
            if v.kind == "blocking-call"
        }
        assert calls == {"select.poll.poll"}, calls


class TestPrimitiveSemantics:
    """The instrumented primitives must behave exactly like the real ones."""

    def test_rlock_reentrant(self, sanitized):
        rlock = threading.RLock()
        with rlock:
            with rlock:
                pass
        assert _new_since(sanitized) == []

    def test_condition_wait_notify_roundtrip(self, sanitized):
        # Regression for the Condition-over-wrapped-RLock plumbing
        # (_is_owned/_release_save/_acquire_restore): a waiter must be
        # able to sleep on the condition and get woken.
        cond = threading.Condition()
        ready = []

        def waiter():
            with cond:
                while not ready:
                    assert cond.wait(timeout=5)

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            with cond:
                ready.append(True)
                cond.notify_all()
            if not thread.is_alive():
                break
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_lock_released_on_exception(self, sanitized):
        lock = threading.Lock()
        with pytest.raises(RuntimeError):
            with lock:
                raise RuntimeError("boom")
        # The held-stack must be unwound: a fresh acquire on another
        # lock records no pairing with the released one.
        assert not lock._inner.locked()
