"""Observability tests: metrics registry, tracing, search-cost accounting.

Three contracts pinned here:

- the registry is the single process-wide metrics surface (labelled
  counters/gauges/histograms, mergeable snapshots, Prometheus text);
- tracing is opt-in, deterministic under a seed, and produces the
  broker span tree (route/cache/queue_wait/fanout/shard_rpc/attempt/
  merge) with searcher spans spliced in (that it changes no answer is
  the ``trace`` factor of ``tests/test_path_matrix.py``);
- cost accounting is exact bookkeeping (that it never changes results
  is ``tests/test_path_matrix.py``).

``stats()`` schemas are snapshot-tested so a dashboard built against
one release does not silently lose fields in the next.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs.cost import FIELDS, SearchCost
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry, get_registry
from repro.obs.tracing import SpanRecorder, Tracer, format_trace
from repro.online.broker import Broker
from repro.online.searcher import SearcherNode
from repro.online.types import SearchRequest
from tests.conftest import LANNS_2X2, host_all


def make_broker(lanns, **kwargs):
    return Broker(host_all(lanns), LANNS_2X2, **kwargs)


class TestMetricsRegistry:
    def test_counter_labels_and_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests", "help!")
        counter.inc(shard=0)
        counter.inc(2, shard=0)
        counter.inc(shard=1)
        assert counter.value(shard=0) == 3
        assert counter.value(shard=1) == 1
        assert counter.value(shard=9) == 0

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_add(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5.0, node="a")
        gauge.add(-2.0, node="a")
        assert gauge.value(node="a") == 3.0

    def test_histogram_observe(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(0.001)
        histogram.observe(0.2)
        series = histogram.value()
        assert series["count"] == 2
        assert series["sum"] == pytest.approx(0.201)
        assert sum(series["counts"]) == 2

    def test_reregistration_is_idempotent_same_kind_only(self):
        registry = MetricsRegistry()
        counter = registry.counter("x", "first help")
        assert registry.counter("x") is counter
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_snapshot_merge_adds_counters(self):
        worker_a, worker_b = MetricsRegistry(), MetricsRegistry()
        worker_a.counter("queries").inc(3, shard=0)
        worker_b.counter("queries").inc(4, shard=0)
        worker_b.counter("queries").inc(1, shard=1)
        fleet = MetricsRegistry()
        fleet.merge_snapshot(worker_a.snapshot())
        fleet.merge_snapshot(worker_b.snapshot())
        merged = fleet.counter("queries")
        assert merged.value(shard=0) == 7
        assert merged.value(shard=1) == 1

    def test_snapshot_merge_adds_histogram_buckets(self):
        worker_a, worker_b = MetricsRegistry(), MetricsRegistry()
        worker_a.histogram("lat").observe(0.01)
        worker_b.histogram("lat").observe(0.02)
        fleet = MetricsRegistry()
        fleet.merge_snapshot(worker_a.snapshot())
        fleet.merge_snapshot(worker_b.snapshot())
        series = fleet.histogram("lat").value()
        assert series["count"] == 2
        assert series["sum"] == pytest.approx(0.03)

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(label="v")
        registry.histogram("h").observe(0.5)
        json.dumps(registry.snapshot())

    def test_render_text_exposition(self):
        registry = MetricsRegistry()
        registry.counter("reqs", "Requests served.").inc(5, shard=1)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_text()
        assert "# HELP reqs Requests served." in text
        assert "# TYPE reqs counter" in text
        assert 'reqs{shard="1"} 5' in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_process_registry_is_a_singleton(self):
        assert get_registry() is get_registry()

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestSearchCost:
    def test_starts_at_zero(self):
        assert SearchCost().as_dict() == {field: 0 for field in FIELDS}

    def test_merge_and_round_trip(self):
        cost = SearchCost()
        cost.hops = 3
        cost.distance_comps = 10
        other = SearchCost()
        other.hops = 2
        other.rescore_rows = 7
        cost.merge(other).merge(None).merge({"hops": 1})
        assert cost.hops == 6
        assert cost.distance_comps == 10
        assert cost.rescore_rows == 7
        assert SearchCost.from_dict(cost.as_dict()) == cost


class TestTracer:
    def test_sampling_off_starts_nothing(self):
        tracer = Tracer(0.0)
        assert not tracer.enabled
        assert tracer.begin() is None

    def test_sampling_on_keeps_traces(self):
        tracer = Tracer(1.0)
        trace = tracer.begin()
        assert trace is not None and trace.sampled
        with trace.span("work"):
            pass
        assert tracer.finish(trace, duration_s=0.01)
        (kept,) = tracer.traces()
        assert kept.trace_id == trace.trace_id
        exported = tracer.export()
        assert exported[0]["spans"][0]["name"] == "work"

    def test_seeded_sampling_is_deterministic(self):
        decisions = [
            [Tracer(0.5, seed=42).begin() is not None for _ in range(1)][0]
            for _ in range(3)
        ]
        assert len(set(decisions)) == 1

    def test_slow_query_log_force_keeps(self):
        tracer = Tracer(0.0, slow_query_threshold_s=0.005)
        trace = tracer.begin()
        assert trace is not None  # tentative: armed by the slow log
        assert not tracer.finish(trace, duration_s=0.001)  # fast: dropped
        slow = tracer.begin()
        assert tracer.finish(slow, duration_s=0.5)
        assert tracer.stats()["slow_queries"] == 1
        assert [t.trace_id for t in tracer.slow()] == [slow.trace_id]

    def test_capacity_bounds_kept_traces(self):
        tracer = Tracer(1.0, capacity=2)
        for _ in range(5):
            tracer.finish(tracer.begin(), duration_s=0.0)
        assert len(tracer.traces()) == 2
        assert tracer.stats()["started"] == 5

    def test_recorder_nesting_and_remote_splice(self):
        recorder = SpanRecorder()
        with recorder.span("outer"):
            with recorder.span("inner", detail=1):
                pass
        (outer,) = recorder.export()
        assert outer["name"] == "outer"
        assert outer["children"][0]["name"] == "inner"
        assert outer["children"][0]["annotations"] == {"detail": 1}
        remote = SpanRecorder()
        with remote.span("decode"):
            pass
        recorder.attach_remote(outer, remote.export())
        names = [child["name"] for child in outer["children"]]
        assert names == ["inner", "decode"]
        spliced = outer["children"][-1]
        assert spliced["start_ms"] >= outer["start_ms"]

    def test_format_trace_renders_tree(self):
        tracer = Tracer(1.0)
        trace = tracer.begin()
        with trace.span("fanout", groups=2):
            with trace.span("shard_rpc", shard=0):
                pass
        tracer.finish(trace, duration_s=0.01)
        text = format_trace(tracer.export()[0])
        assert "fanout" in text
        assert "shard_rpc" in text
        assert trace.trace_id in text


def _flatten(spans):
    for span in spans:
        yield span
        yield from _flatten(span.get("children", ()))


class TestBrokerObservability:
    def test_stats_schema_snapshot(self, lanns, clustered_queries):
        broker = make_broker(lanns)
        for query in clustered_queries[:7]:
            broker.search("main", query, 5)
        stats = broker.stats()
        request = stats["stages"]["request"]  # the one request timer
        assert request["count"] == 7 and request["p99_ms"] >= request["p50_ms"]
        assert set(stats) == {
            "counts",
            "cache",
            "microbatch",
            "stages",
            "venue",
            "tracer",
            "replicas",
        }
        assert stats["venue"] == "inline"
        assert set(stats["tracer"]) == {"started", "kept", "slow_queries"}

    def test_searcher_stats_schema_snapshot(self, lanns):
        searcher = SearcherNode(0)
        searcher.host("main", lanns.shards[0])
        assert set(searcher.stats()) == {
            "shard_id",
            "hosted_indices",
            "memory_vectors",
            "counts",
        }

    def test_a_stats_reply_is_a_frozen_consistent_snapshot(
        self, lanns, clustered_queries
    ):
        """Later traffic never shows through a ``stats()`` reply (its
        ``microbatch`` entry once shared the batcher's live dict), and
        the counts of one reply agree with each other."""
        broker = make_broker(lanns, cache_size=64, max_batch=4, max_wait_ms=0.0)
        try:
            broker.search_batch("main", clustered_queries[:6], 5)
            stats = broker.stats()
            frozen = copy.deepcopy(stats)
            for _ in range(3):
                broker.search_batch("main", clustered_queries[6:12], 5)
            assert stats == frozen
            cache, micro = stats["cache"], stats["microbatch"]
            assert stats["counts"]["queries_served"] == 6
            assert (cache["hits"], cache["misses"]) == (0, 6)
            assert micro["rows_admitted"] == micro["rows_executed"] == 6
            assert sum(micro["flushes"].values()) == micro["blocks_admitted"] == 1
        finally:
            broker.close()

    def test_cost_accounting_counts_the_work(
        self, lanns, clustered_queries
    ):
        """Only the counters: answers with ``collect_cost`` on and off
        are the matrix's (its ``server`` cells turn it off)."""
        counted = make_broker(lanns, collect_cost=True)
        plain = make_broker(lanns, collect_cost=False)
        request = SearchRequest(
            queries=clustered_queries[:8], top_k=10, index_name="main"
        )
        with_cost = counted.execute(request)
        without = plain.execute(request)
        assert without.cost is None
        assert with_cost.cost is not None
        assert set(with_cost.cost) == set(FIELDS)
        assert with_cost.cost["distance_comps"] > 0
        assert with_cost.cost["hops"] > 0
        assert with_cost.cost["segments_probed"] > 0

    def test_traced_request_builds_span_tree(
        self, lanns, clustered_queries
    ):
        broker = make_broker(
            lanns, trace_sample_rate=1.0, trace_seed=0
        )
        response = broker.execute(
            SearchRequest(
                queries=clustered_queries[:4], top_k=5, index_name="main"
            )
        )
        trace = response.trace
        assert trace is not None
        assert trace["sampled"]
        assert trace["duration_ms"] > 0
        top_level = [span["name"] for span in trace["spans"]]
        assert "fanout" in top_level
        assert "merge" in top_level
        names = [span["name"] for span in _flatten(trace["spans"])]
        assert names.count("shard_rpc") == LANNS_2X2.num_shards
        attempts = [
            span
            for span in _flatten(trace["spans"])
            if span["name"] == "attempt"
        ]
        assert len(attempts) == LANNS_2X2.num_shards
        for attempt in attempts:
            assert attempt["annotations"]["outcome"] == "ok"
            assert attempt["annotations"]["win"] is True
        # The searcher-side spans are spliced under the winning attempt.
        assert "beam" in names
        (kept,) = broker.tracer.traces()
        assert kept.to_dict()["trace_id"] == trace["trace_id"]

    def test_tracing_off_attaches_nothing(
        self, lanns, clustered_queries
    ):
        broker = make_broker(lanns)
        response = broker.execute(
            SearchRequest(
                queries=clustered_queries[:4], top_k=5, index_name="main"
            )
        )
        assert response.trace is None
