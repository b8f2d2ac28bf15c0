"""The one clock: a stage is timed once and every consumer sees that timing.

Covers :mod:`repro.obs.clock` (window, histogram, span and
``Stage.seconds`` all get the same two readings) and
:class:`repro.obs.metrics.Tally` (one ``count`` feeds the registry and
the owner's snapshot) -- without a ``Broker`` -- plus the one
broker-level consequence: a request that fails is still in the latency
record.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.errors import DeadlineExceededError
from repro.net.server import SearcherServer
from repro.net.transport import RemoteSearcherTransport
from repro.obs.clock import StageClock
from repro.obs.metrics import MetricsRegistry, Tally, get_registry
from repro.obs.tracing import SpanRecorder, Tracer
from repro.online.broker import Broker
from repro.online.searcher import SearcherNode
from tests.conftest import FAST_HNSW, make_clustered


class TestStage:
    def test_span_window_histogram_and_seconds_are_one_measurement(self):
        histogram = MetricsRegistry().histogram("seconds")
        clock = StageClock(broker="b")
        recorder = SpanRecorder()
        with clock.stage(
            "fanout", recorder, window="fanout", histogram=histogram, groups=3
        ) as stage:
            stage.annotate(budget=7)
        (span,) = recorder.export()
        assert span["name"] == "fanout"
        assert span["annotations"] == {"groups": 3, "budget": 7}
        # Not "close to": the very same difference of two readings.
        assert span["dur_ms"] == stage.seconds * 1e3
        assert clock.quantile("fanout", 0.5) == (1, stage.seconds)
        series = histogram.value(broker="b")
        assert series["count"] == 1 and series["sum"] == stage.seconds
        assert clock.summary()["fanout"]["total_ms"] == stage.seconds * 1e3

    def test_explicit_parent_nests_without_the_recorder_stack(self):
        clock = StageClock()
        recorder = SpanRecorder()
        with clock.stage("fanout", recorder) as fanout:
            with clock.stage("shard_rpc", recorder, parent=fanout.span, shard=0):
                pass
            with clock.stage("merge", recorder):
                pass
        names = [span["name"] for span in recorder.export()]
        assert names == ["fanout", "merge"], "no parent = top level"
        (child,) = recorder.export()[0]["children"]
        assert child["name"] == "shard_rpc"
        assert child["start_ms"] >= recorder.export()[0]["start_ms"]

    def test_a_failing_stage_is_still_recorded_and_says_why(self):
        clock = StageClock()
        recorder = SpanRecorder()
        stage = clock.stage("fanout", recorder, window="fanout")
        with pytest.raises(DeadlineExceededError):
            with stage:
                raise DeadlineExceededError("late")
        assert isinstance(stage.error, DeadlineExceededError)
        (span,) = recorder.export()
        assert span["annotations"] == {
            "outcome": "error", "error": "DeadlineExceededError",
        }
        assert span["dur_ms"] == stage.seconds * 1e3
        assert clock.quantile("fanout", 0.5) == (1, stage.seconds)

    def test_stage_nobody_listens_to_reads_no_clock(self):
        clock = StageClock()
        with clock.stage("cache", None, hits=1) as stage:
            stage.annotate(misses=0)
        assert stage.span is None and stage.seconds == 0.0
        assert clock.summary() == {}

    def test_untraced_stage_still_feeds_its_window(self):
        clock = StageClock()
        with clock.stage("merge", None, window="merge", parts=2) as stage:
            pass
        assert stage.span is None
        assert clock.quantile("merge", 0.5) == (1, stage.seconds)


class TestWindow:
    def test_window_is_bounded_counters_are_not(self):
        clock = StageClock(window=4)
        for sample in range(10):
            clock.record("shard_rpc", float(sample))
        assert clock.quantile("shard_rpc", 0.0) == (4, 6.0)
        summary = clock.summary()["shard_rpc"]
        assert summary["count"] == 10
        assert summary["total_ms"] == sum(range(10)) * 1e3
        assert summary["max_ms"] == 9e3 and summary["p50_ms"] == 7.5e3
        assert set(summary) == {
            "count", "total_ms", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms",
        }

    def test_empty_stage_has_no_quantile(self):
        clock = StageClock()
        assert clock.quantile("shard_rpc", 0.5) is None
        clock.record("fanout", 0.1)
        assert clock.quantile("shard_rpc", 0.5) is None

    def test_window_must_hold_something(self):
        with pytest.raises(ValueError, match="window"):
            StageClock(window=0)

    def test_concurrent_stages_and_counts_lose_nothing(self):
        """More recorders than cores, a short switch interval: every
        sample and every count must land (and, under REPRO_SANITIZE=1,
        the clock / tally / registry locks must never nest)."""
        registry = MetricsRegistry()
        histogram = registry.histogram("seconds")
        clock = StageClock(window=64, broker="b")
        tally = Tally({"served": registry.counter("served")}, broker="b")
        workers, rounds = 8, 400
        barrier = threading.Barrier(workers)

        def hammer() -> None:
            barrier.wait(timeout=30)
            for _ in range(rounds):
                with clock.stage("request", window="request", histogram=histogram):
                    tally.count("served")
                    tally.count("served", 2, shard=1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        total = workers * rounds
        assert clock.summary()["request"]["count"] == total
        assert clock.quantile("request", 0.5)[0] == 64
        assert histogram.value(broker="b")["count"] == total
        assert tally.snapshot() == {"served": total, ("served", 1): 2 * total}
        counter = registry.counter("served")
        assert counter.value(broker="b") == total
        assert counter.value(broker="b", shard=1) == 2 * total


class TestTracerFinish:
    def test_error_annotates_the_root_and_is_kept_when_slow(self):
        tracer = Tracer(0.0, slow_query_threshold_s=0.01)
        trace = tracer.begin()
        assert tracer.finish(trace, 0.5, DeadlineExceededError("late"))
        assert trace.to_dict()["annotations"] == {
            "outcome": "error", "error": "DeadlineExceededError",
        }
        assert tracer.slow() == [trace]

    def test_success_leaves_the_root_bare(self):
        tracer = Tracer(1.0, seed=0)
        trace = tracer.begin()
        assert tracer.finish(trace, 0.001)
        assert trace.to_dict()["annotations"] == {}


def test_failed_request_stays_in_the_latency_record():
    """The request that blew its deadline is the one the slow-query log
    and the latency histogram exist for (at the parent commit
    ``Broker.execute`` skipped both when the fan-out raised, and
    ``tracer.stats()["started"]`` drifted above ``kept`` forever)."""
    config = LannsConfig(
        num_shards=1, num_segments=2, segmenter="rh", hnsw=FAST_HNSW,
        segmenter_sample_size=300, seed=7,
    )
    index = build_lanns_index(make_clustered(300, 16, seed=29), config=config)
    node = SearcherNode(0)
    node.host("stall", index.shards[0])
    server = SearcherServer(
        node, slow_every=1, slow_delay_s=1.0
    ).start_in_thread()
    transport = RemoteSearcherTransport(server.address, 0, retries=0)
    broker = Broker(
        [transport], config, request_timeout_s=0.15, slow_query_log_s=0.05,
        name="latency-record",
    )
    queries = make_clustered(2, 16, seed=30)
    try:
        with pytest.raises(DeadlineExceededError):
            broker.search_batch("stall", queries, 3)
        series = get_registry().histogram(
            "lanns_broker_request_seconds"
        ).value(broker="latency-record")
        assert series["count"] == 1 and series["sum"] >= 0.15
        (slow,) = broker.tracer.slow()
        assert slow.duration_ms >= 150.0
        assert slow.annotations == {
            "outcome": "error", "error": "DeadlineExceededError",
        }
        failed = {
            span["name"]: span["annotations"].get("error")
            for span in slow.spans
        }
        assert failed["fanout"] == "DeadlineExceededError"
        stats = broker.tracer.stats()
        assert stats["started"] == stats["kept"] == stats["slow_queries"] == 1
        assert np.isfinite(broker.stats()["stages"]["fanout"]["max_ms"])
    finally:
        broker.close()
        transport.close()
        server.stop()
