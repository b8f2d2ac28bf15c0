"""Tests for the micro-batching admission layer.

The unit tests drive :class:`MicroBatcher` with a stub executor; the
broker tests pin its shutdown contract: ``close()`` never deadlocks, even
with requests in flight, and is idempotent.  That micro-batched answers
equal the reference under concurrent clients is a cell family of
``tests/test_path_matrix.py`` (admission ``micro``).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.online.broker import Broker
from repro.online.microbatch import MicroBatcher
from tests.conftest import LANNS_2X2, host_all

NUM_CLIENTS = 8


@pytest.fixture(scope="module")
def searchers(lanns):
    return host_all(lanns)


@pytest.fixture(scope="module")
def singles(searchers, clustered_queries):
    """Sequential answers from a plain broker."""
    plain = Broker(searchers, LANNS_2X2)
    return [plain.search("main", query, 8, ef=48) for query in clustered_queries]


def make_core(searchers, **kwargs):
    defaults = dict(max_batch=8, max_wait_ms=5.0, cache_size=0)
    defaults.update(kwargs)
    return Broker(searchers, LANNS_2X2, **defaults)


def run_clients(worker, num_clients=NUM_CLIENTS, join_timeout=60.0):
    """Run ``worker(client_id)`` on N threads; fail instead of hanging."""
    errors: list[BaseException] = []

    def wrapped(client_id):
        try:
            worker(client_id)
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(client,), daemon=True)
        for client in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=join_timeout)
    stuck = [thread for thread in threads if thread.is_alive()]
    assert not stuck, f"{len(stuck)} client threads deadlocked"
    if errors:
        raise errors[0]


class TestMicroBatcherUnit:
    @staticmethod
    def echo_execute(record):
        """An execute fn returning each row's first component as its id."""

        def execute(key, queries):
            record.append((key, queries.shape[0]))
            ids = np.arange(queries.shape[0], dtype=np.int64)[:, np.newaxis]
            dists = queries[:, :1].astype(np.float64)
            return ids, dists

        return execute

    def test_flush_on_max_batch(self):
        record: list = []
        batcher = MicroBatcher(
            self.echo_execute(record), max_batch=4, max_wait_ms=60_000.0
        )
        try:
            blocks = [
                batcher.submit("k", np.full((1, 2), row, dtype=np.float32))
                for row in range(4)
            ]
            for future in blocks:
                future.result(timeout=30)
        finally:
            batcher.close()
        # One coalesced flush, triggered by max_batch (the deadline is
        # a minute out, so a timer flush would hang the test instead).
        assert [rows for _, rows in record] == [4]

    def test_flush_on_deadline(self):
        record: list = []
        batcher = MicroBatcher(
            self.echo_execute(record), max_batch=1000, max_wait_ms=20.0
        )
        try:
            start = time.perf_counter()
            future = batcher.submit("k", np.zeros((1, 2), dtype=np.float32))
            future.result(timeout=30)
            elapsed = time.perf_counter() - start
        finally:
            batcher.close()
        assert [rows for _, rows in record] == [1]
        assert elapsed < 10.0  # flushed by the deadline, not by close()

    def test_groups_never_mix(self):
        record: list = []
        batcher = MicroBatcher(
            self.echo_execute(record), max_batch=8, max_wait_ms=10.0
        )
        try:
            futures = [
                batcher.submit(key, np.zeros((1, 2), dtype=np.float32))
                for key in ("a", "b", "a", "b")
            ]
            for future in futures:
                future.result(timeout=30)
        finally:
            batcher.close()
        assert sum(rows for _, rows in record) == 4
        assert {key for key, _ in record} == {"a", "b"}

    def test_oversized_block_flushes_alone(self):
        record: list = []
        batcher = MicroBatcher(
            self.echo_execute(record), max_batch=4, max_wait_ms=60_000.0
        )
        try:
            future = batcher.submit("k", np.zeros((10, 2), dtype=np.float32))
            ids, dists = future.result(timeout=30)
        finally:
            batcher.close()
        assert [rows for _, rows in record] == [10]
        assert ids.shape == (10, 1) and dists.shape == (10, 1)

    def test_blocks_are_never_split(self):
        record: list = []
        batcher = MicroBatcher(
            self.echo_execute(record), max_batch=4, max_wait_ms=30.0
        )
        try:
            first = batcher.submit("k", np.zeros((3, 2), dtype=np.float32))
            second = batcher.submit("k", np.ones((3, 2), dtype=np.float32))
            first.result(timeout=30)
            second.result(timeout=30)
        finally:
            batcher.close()
        # 3 + 3 > max_batch, and blocks stay whole: two separate flushes.
        assert [rows for _, rows in record] == [3, 3]

    def test_execute_error_propagates_to_all_waiters(self):
        calls = {"n": 0}

        def explode(key, queries):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("shard fleet on fire")
            ids = np.zeros((queries.shape[0], 1), dtype=np.int64)
            return ids, ids.astype(np.float64)

        batcher = MicroBatcher(explode, max_batch=2, max_wait_ms=60_000.0)
        try:
            futures = [
                batcher.submit("k", np.zeros((1, 2), dtype=np.float32))
                for _ in range(2)
            ]
            for future in futures:
                with pytest.raises(RuntimeError, match="on fire"):
                    future.result(timeout=30)
            # The flusher survives a failing batch and keeps serving.
            ok = batcher.submit("k", np.zeros((2, 2), dtype=np.float32))
            ids, _ = ok.result(timeout=30)
            assert ids.shape == (2, 1)
        finally:
            batcher.close()

    def test_submit_after_close_runs_inline(self):
        record: list = []
        batcher = MicroBatcher(
            self.echo_execute(record), max_batch=8, max_wait_ms=5.0
        )
        batcher.close()
        batcher.close()  # idempotent
        future = batcher.submit("k", np.zeros((2, 2), dtype=np.float32))
        ids, _ = future.result(timeout=30)
        assert ids.shape == (2, 1)
        assert batcher.stats["inline_after_close"] == 1

    def test_invalid_knobs_rejected(self):
        execute = self.echo_execute([])
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(execute, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            MicroBatcher(execute, max_wait_ms=-1.0)


class TestBrokerShutdown:
    def test_close_during_inflight_requests_no_deadlock(
        self, searchers, clustered_queries, singles
    ):
        """close() drains in-flight work; late requests run inline."""
        core = make_core(searchers, max_wait_ms=10.0)
        num_queries = clustered_queries.shape[0]
        started = threading.Barrier(NUM_CLIENTS + 1)

        def worker(client):
            started.wait(timeout=30)
            for _repeat in range(5):
                for row in range(client, num_queries, NUM_CLIENTS):
                    ids, dists = core.search(
                        "main", clustered_queries[row], 8, ef=48
                    )
                    want_ids, want_dists = singles[row]
                    np.testing.assert_array_equal(ids, want_ids)
                    np.testing.assert_array_equal(dists, want_dists)

        closer_done = threading.Event()

        def closer():
            started.wait(timeout=30)
            time.sleep(0.02)  # land mid-flight
            core.close()
            core.close()  # idempotent, also mid-flight
            closer_done.set()

        close_thread = threading.Thread(target=closer, daemon=True)
        close_thread.start()
        run_clients(worker)
        close_thread.join(timeout=60)
        assert closer_done.is_set(), "close() deadlocked"
        # The broker still answers (inline + sequential fan-out) after close.
        ids, dists = core.search("main", clustered_queries[0], 8, ef=48)
        np.testing.assert_array_equal(ids, singles[0][0])
        core.close()  # idempotent after full shutdown

    def test_empty_batch_skips_admission(self, searchers):
        core = make_core(searchers, cache_size=16)
        try:
            empty = np.empty((0, 16), dtype=np.float32)
            ids, dists = core.search_batch("main", empty, 7, ef=48)
            assert ids.shape == (0, 7) and dists.shape == (0, 7)
            assert core.stats()["microbatch"]["blocks_admitted"] == 0
        finally:
            core.close()
