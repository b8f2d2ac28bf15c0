"""Router tests: margin scoring, spill routing, and broker integration.

The router embeds the index's trained segmenter and maps each query to
its top-``spill`` segments by hyperplane margin; under the
segment-aligned build layout the broker then fans out only to the shard
groups hosting those segments.  Pinned here:

- margin-scored top-segment sets are *nested* as spill grows, and the
  top-1 segment is the segmenter's natural no-spill route;
- ``spill="all"`` (and ``spill=None``) fans out to every shard group
  (that it answers bit-identically to the pre-router path, and a routed
  ``spill`` like the shards asked with the router's probes, is the
  ``spill`` factor of ``tests/test_path_matrix.py``);
- recall against exact ground truth is monotone non-decreasing in
  ``spill`` (nested probe sets + batch-invariant lockstep searches);
- segments empty on every shard route nowhere (occupancy pruning), and
  rows routed nowhere come back as fully-padded sentinel rows, not
  errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import ConfigError, LannsConfig
from repro.offline.brute_force import exact_top_k
from repro.online.broker import Broker
from repro.online.router import Router
from repro.online.searcher import SearcherNode
from repro.online.types import SearchRequest
from tests.conftest import FAST_HNSW, make_clustered

NUM_SHARDS = 4
TOP_K = 10


@pytest.fixture(scope="module")
def config():
    return LannsConfig(
        num_shards=NUM_SHARDS,
        num_segments=NUM_SHARDS,
        sharding="segment",
        segmenter="rh",
        hnsw=FAST_HNSW,
        segmenter_sample_size=500,
        seed=11,
    )


@pytest.fixture(scope="module")
def corpus():
    return make_clustered(900, 16, seed=31)


@pytest.fixture(scope="module")
def queries(corpus):
    rng = np.random.default_rng(32)
    rows = rng.integers(0, corpus.shape[0], size=32)
    noise = rng.normal(scale=0.2, size=(32, corpus.shape[1]))
    return (corpus[rows] + noise).astype(np.float32)


@pytest.fixture(scope="module")
def index(corpus, config):
    return build_lanns_index(corpus, config=config)


@pytest.fixture(scope="module")
def broker(index, config):
    nodes = [SearcherNode(shard_id) for shard_id in range(NUM_SHARDS)]
    for shard_id, node in enumerate(nodes):
        node.host("r", index.shards[shard_id])
    broker = Broker(
        nodes,
        config,
        segmenter=index.segmenter,
        segment_sizes=[shard.segment_sizes for shard in index.shards],
    )
    yield broker
    broker.close()


class TestSegmentAlignedBuild:
    def test_layout_is_diagonal(self, index):
        """Shard s hosts exactly segment s (plus spill duplicates)."""
        for shard_id, shard in enumerate(index.shards):
            for segment_id, size in enumerate(shard.segment_sizes):
                if segment_id != shard_id:
                    assert size == 0, (
                        f"shard {shard_id} hosts off-diagonal segment "
                        f"{segment_id}"
                    )
            assert shard.segment_sizes[shard_id] > 0

    def test_segment_sharding_requires_matching_counts(self):
        with pytest.raises(ConfigError, match="num_shards == num_segments"):
            LannsConfig(num_shards=2, num_segments=4, sharding="segment")


class TestMarginScoring:
    def test_top1_matches_natural_route(self, index, queries):
        margins = index.segmenter.leaf_margins(queries)
        assert margins.shape == (queries.shape[0], NUM_SHARDS)
        natural = index.segmenter.route_query_batch(queries)
        for row in range(queries.shape[0]):
            assert int(np.argmax(margins[row])) in natural[row]

    def test_top_segment_sets_are_nested(self, index, queries):
        router = Router(index.segmenter, NUM_SHARDS)
        previous = None
        for spill in range(1, NUM_SHARDS + 1):
            routes = router.top_segments(queries, spill)
            assert all(len(route) == spill for route in routes)
            if previous is not None:
                for small, large in zip(previous, routes):
                    assert set(small) <= set(large)
            previous = routes

    def test_spill_capped_at_segment_count(self, index, queries):
        router = Router(index.segmenter, NUM_SHARDS)
        routes = router.top_segments(queries, NUM_SHARDS + 7)
        assert all(len(route) == NUM_SHARDS for route in routes)

    def test_spill_must_be_positive(self, index, queries):
        router = Router(index.segmenter, NUM_SHARDS)
        with pytest.raises(ValueError, match="spill"):
            router.top_segments(queries, 0)


class TestSpillAll:
    def test_spill_all_fans_out_to_every_group(self, broker, queries):
        """Byte-identical to the pre-router path: the matrix's
        ``unrouted`` cells; here, the annotation that says so."""
        for spill in (None, "all"):
            response = broker.execute(
                SearchRequest(
                    queries=queries, top_k=TOP_K, index_name="r", spill=spill
                )
            )
            assert (response.shards_answered == NUM_SHARDS).all()
            assert (response.shards_routed == NUM_SHARDS).all()
            assert response.degraded_rows == 0
            assert response.fully_answered


class TestSpillRouting:
    def test_recall_monotone_in_spill(self, broker, corpus, queries):
        truth, _ = exact_top_k(corpus, queries, TOP_K)

        def recall_of(ids):
            hits = sum(
                len(set(row_ids[row_ids >= 0]) & set(row_truth))
                for row_ids, row_truth in zip(ids, truth)
            )
            return hits / truth.size

        recalls = []
        for spill in (1, 2, NUM_SHARDS):
            response = broker.execute(
                SearchRequest(
                    queries=queries, top_k=TOP_K, index_name="r", spill=spill
                )
            )
            assert (response.shards_routed == spill).all()
            assert (response.shards_answered == spill).all()
            recalls.append(recall_of(response.ids))
        assert recalls == sorted(recalls), (
            f"recall must be monotone in spill, got {recalls}"
        )
        # Meaningful routing: even spill=1 finds most true neighbors on
        # clustered data, and full spill probes a superset of every
        # shard's natural route, so it cannot lose to the unrouted path.
        assert recalls[0] > 0.5
        unrouted = broker.execute(
            SearchRequest(queries=queries, top_k=TOP_K, index_name="r")
        )
        assert recalls[-1] >= recall_of(unrouted.ids)

    def test_routed_rows_receive_full_top_k(self, broker, queries):
        # Every diagonal segment holds far more than TOP_K points, so a
        # spill=1 answer must fill all TOP_K slots.  Regression: the
        # per-shard budget used to be sized from the full deployment
        # width (4 groups -> budget 6 for top_k=10) even though the plan
        # queried a single group, truncating every routed answer.
        for spill in (1, 2):
            response = broker.execute(
                SearchRequest(
                    queries=queries, top_k=TOP_K, index_name="r", spill=spill
                )
            )
            assert (response.ids >= 0).all()
            assert np.isfinite(response.dists).all()

    def test_routing_hints_require_spill(self, queries):
        with pytest.raises(ValueError, match="routing_hints"):
            SearchRequest(
                queries=queries[:1],
                top_k=TOP_K,
                index_name="r",
                routing_hints=[(0,)],
            )
        with pytest.raises(ValueError, match="routing_hints"):
            SearchRequest(
                queries=queries[:1],
                top_k=TOP_K,
                index_name="r",
                spill="all",
                routing_hints=[(0,)],
            )

    def test_routed_fanout_prunes_shard_groups(self, broker, queries):
        response = broker.execute(
            SearchRequest(
                queries=queries, top_k=TOP_K, index_name="r", spill=1
            )
        )
        assert (response.shards_routed == 1).all()
        assert response.replicas_used is not None
        plan = broker.router.plan(queries, 1)
        assert plan.groups_queried < NUM_SHARDS or len(
            {route[0] for route in broker.router.top_segments(queries, 1)}
        ) == NUM_SHARDS

    def test_routed_requests_bypass_the_cache(self, index, config, queries):
        nodes = [SearcherNode(shard_id) for shard_id in range(NUM_SHARDS)]
        for shard_id, node in enumerate(nodes):
            node.host("r", index.shards[shard_id])
        broker = Broker(
            nodes,
            config,
            cache_size=64,
            segmenter=index.segmenter,
            segment_sizes=[shard.segment_sizes for shard in index.shards],
        )
        try:
            request = SearchRequest(
                queries=queries[:4], top_k=TOP_K, index_name="r", spill=1
            )
            broker.execute(request)
            broker.execute(request)
            assert broker.cache.stats.as_dict()["hits"] == 0
        finally:
            broker.close()

    def test_routed_request_without_router_raises(self, index, config):
        nodes = [SearcherNode(shard_id) for shard_id in range(NUM_SHARDS)]
        for shard_id, node in enumerate(nodes):
            node.host("r", index.shards[shard_id])
        broker = Broker(nodes, config)
        try:
            with pytest.raises(ValueError, match="router"):
                broker.execute(
                    SearchRequest(
                        queries=np.zeros((1, 16), np.float32),
                        top_k=5,
                        index_name="r",
                        spill=1,
                    )
                )
        finally:
            broker.close()


class TestEmptySegmentRouting:
    def test_unhosted_segments_route_nowhere(self, index, queries):
        # Segment 2 is empty on EVERY shard: occupancy pruning must drop
        # it from the fan-out instead of asking a shard for nothing.
        sizes = [[10, 10, 0, 10] for _ in range(NUM_SHARDS)]
        router = Router(index.segmenter, NUM_SHARDS, segment_sizes=sizes)
        plan = router.plan(queries[:3], 1, hints=[(2,), (2,), (2,)])
        assert plan.shard_rows == {}
        assert (plan.routed_counts == 0).all()

    def test_rows_routed_nowhere_return_sentinels(self, broker, queries):
        response = broker.execute(
            SearchRequest(
                queries=queries[:2],
                top_k=TOP_K,
                index_name="r",
                spill=1,
                # Hint both rows at a segment the occupancy table shows
                # on exactly one shard; empty-hint rows use (): nothing
                # is queried for them.
                routing_hints=[(0,), ()],
            )
        )
        assert response.shards_routed.tolist() == [1, 0]
        assert (response.ids[1] == -1).all()
        assert np.isinf(response.dists[1]).all()
        assert response.shards_answered[1] == 0

    def test_hint_out_of_range_raises(self, broker, queries):
        with pytest.raises(ValueError, match="segment"):
            broker.execute(
                SearchRequest(
                    queries=queries[:1],
                    top_k=TOP_K,
                    index_name="r",
                    spill=1,
                    routing_hints=[(NUM_SHARDS + 3,)],
                )
            )

    def test_empty_segment_on_one_shard_still_served_by_probes(
        self, broker, queries
    ):
        """Under the diagonal layout a spilled query probes segment g on
        shard g even when the query's *natural* segment is absent there
        -- the probe push-down, without which spill would find nothing."""
        response = broker.execute(
            SearchRequest(
                queries=queries, top_k=TOP_K, index_name="r", spill=2
            )
        )
        # Every row got answers from both routed groups: at least one
        # more result row than the single-segment route could return
        # overall, and no row degraded.
        assert response.degraded_rows == 0
        assert (response.shards_answered == 2).all()
