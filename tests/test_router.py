"""Router tests: one routing rule, pruned by occupancy.

The router runs the segmenter's own ``route_query_batch`` -- the rule
every shard runs -- and maps each row's segments to the shard groups
hosting them; the broker builds one only when the occupancy table shows
some segment missing from some shard.  Pinned here:

- under the segment-aligned layout a default request asks fewer than
  every shard group and answers exactly like ``LannsIndex.query_batch``
  (every sharding and path is the matrix's width check, in
  ``tests/test_path_matrix.py``);
- routed rows go through the result cache like any other;
- segments empty on every shard route nowhere, and rows routed nowhere
  come back as fully-padded sentinel rows, not errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import ConfigError, LannsConfig
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


class TestOneRule:
    def test_the_occupancy_table_decides_whether_to_route(self):
        assert not Router.prunes(None)
        assert not Router.prunes([[3, 1], [2, 5]])
        assert Router.prunes([[3, 0], [2, 5]])

    def test_a_segment_sharded_request_asks_only_hosting_groups(
        self, broker, index, queries
    ):
        response = broker.execute(
            SearchRequest(queries=queries, top_k=TOP_K, index_name="r")
        )
        ids, dists = index.query_batch(queries, TOP_K)
        assert response.ids.tobytes() == ids.tobytes()
        assert response.dists.tobytes() == dists.tobytes()
        # Diagonal layout: one group per routed segment.
        routes = index.segmenter.route_query_batch(queries)
        assert response.shards_routed.tolist() == [len(r) for r in routes]
        assert response.shards_routed.mean() < NUM_SHARDS
        assert response.fully_answered

    def test_routed_rows_are_cached(self, index, config, queries):
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
            request = SearchRequest(queries=queries[:4], top_k=TOP_K, index_name="r")
            first, second = broker.execute(request), broker.execute(request)
            assert broker.cache.stats.as_dict()["hits"] == 4
        finally:
            broker.close()
        assert second.ids.tobytes() == first.ids.tobytes()
        assert second.shards_routed.tolist() == first.shards_routed.tolist()


class TestEmptySegmentRouting:
    @staticmethod
    def unhosted(index, segment):
        """The diagonal occupancy table with ``segment`` hosted nowhere."""
        sizes = [list(shard.segment_sizes) for shard in index.shards]
        for shard_sizes in sizes:
            shard_sizes[segment] = 0
        return sizes

    def test_unhosted_segments_route_nowhere(self, index, queries):
        # A segment empty on EVERY shard: occupancy pruning must drop it
        # from the fan-out instead of asking a shard for nothing.
        routes = index.segmenter.route_query_batch(queries)
        segment = next(route[0] for route in routes if len(route) == 1)
        router = Router(index.segmenter, self.unhosted(index, segment))
        rows = [row for row, route in enumerate(routes) if route == (segment,)]
        plan = router.plan(queries[rows])
        assert plan.shard_rows == {}
        assert (plan.routed_counts == 0).all()

    def test_rows_routed_nowhere_return_sentinels(self, index, config, queries):
        nodes = [SearcherNode(shard_id) for shard_id in range(NUM_SHARDS)]
        for shard_id, node in enumerate(nodes):
            node.host("r", index.shards[shard_id])
        routes = index.segmenter.route_query_batch(queries)
        lone = next(row for row, route in enumerate(routes) if len(route) == 1)
        (segment,) = routes[lone]
        hosted = next(row for row, route in enumerate(routes) if segment not in route)
        broker = Broker(
            nodes,
            config,
            segmenter=index.segmenter,
            segment_sizes=self.unhosted(index, segment),
        )
        try:
            # The lone row's one segment is hosted on no shard: nothing
            # is queried for it; each of the other row's is hosted on one.
            response = broker.execute(
                SearchRequest(
                    queries=queries[[hosted, lone]], top_k=TOP_K, index_name="r"
                )
            )
        finally:
            broker.close()
        assert response.shards_routed.tolist() == [len(routes[hosted]), 0]
        assert (response.ids[1] == -1).all()
        assert np.isinf(response.dists[1]).all()
        assert response.shards_answered[1] == 0
