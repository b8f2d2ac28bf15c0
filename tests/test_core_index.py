"""Tests for ShardIndex / LannsIndex: routing, merging, correctness."""

import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.core.index import LannsIndex, ShardIndex
from repro.core.merge import merge_segment_results_batch, merge_shard_results_batch
from repro.errors import IndexNotBuiltError
from repro.hnsw.index import HnswIndex, build_hnsw
from repro.obs.cost import SearchCost
from repro.segmenters.base import SPILL_MODES, get_segmenter_class, registered_kinds
from repro.segmenters.random_segmenter import RandomSegmenter
from tests.conftest import FAST_HNSW
from tests.test_core_topk import merged_row


@pytest.fixture(scope="module")
def config():
    return LannsConfig(
        num_shards=2,
        num_segments=4,
        segmenter="apd",
        hnsw=FAST_HNSW,
        segmenter_sample_size=600,
        seed=5,
    )


@pytest.fixture(scope="module")
def lanns(clustered_data, config):
    return build_lanns_index(clustered_data, config=config)


class TestMergeFunctions:
    def test_segment_merge_dedupes(self):
        ids, dists = merge_segment_results_batch(
            np.array([[5, 5, 6]]), np.array([[2.0, 1.0, 3.0]]), 2
        )
        assert ids.tolist() == [[5, 6]]
        assert dists.tolist() == [[1.0, 3.0]]

    def test_shard_merge_global_topk(self):
        ids, dists = merge_shard_results_batch(
            [
                (np.array([[1, 2]]), np.array([[4.0, 5.0]])),
                (np.array([[3, -1]]), np.array([[1.0, np.inf]])),
                (np.array([[4, -1]]), np.array([[2.0, np.inf]])),
            ],
            3,
        )
        assert ids.tolist() == [[3, 4, 1]]
        assert dists.tolist() == [[1.0, 2.0, 4.0]]


class TestShardIndex:
    def test_segment_count_must_match_segmenter(self, clustered_data):
        segment = build_hnsw(clustered_data[:50], params=FAST_HNSW)
        with pytest.raises(ValueError, match="segment"):
            ShardIndex(0, [segment], RandomSegmenter(2))

    def test_search_probes_routed_segments(self, lanns, clustered_queries):
        shard = lanns.shards[0]
        probed = shard.probed_segments(clustered_queries[0])
        assert len(probed) >= 1
        ids, dists = shard.search_batch(clustered_queries[:1], 5)
        assert ids.shape == (1, 5)
        assert dists[0].tolist() == sorted(dists[0].tolist())

    def test_len_counts_all_segments(self, lanns):
        shard = lanns.shards[0]
        assert len(shard) == sum(shard.segment_sizes)


#: Every point of the 4 x 4 x 4 integer lattice: exact distance ties.
LATTICE = np.array(list(itertools.product(range(4), repeat=3)), dtype=np.float32)


@pytest.fixture(scope="module")
def lattice_shard() -> ShardIndex:
    """Segments over :data:`LATTICE`: two that share 20 ids at the same
    points (physical spill), one of four points (shorter than most
    ``k``), one empty, one of every other point of the upper half, and
    one of two points, one so far off that its distance overflows to
    ``inf`` (which the merge orders after the ``-1`` padding)."""
    with np.errstate(over="ignore", invalid="ignore"):
        far = build_hnsw(
            np.array([[1.5, 1.5, 1.5], [2e19, 0, 0]], dtype=np.float32),
            ids=np.array([400, 401]),
            params=FAST_HNSW,
        )
    point_id = np.arange(64) * 37 % 64  # ids out of insertion order
    segments = [
        build_hnsw(LATTICE[:40], ids=point_id[:40], params=FAST_HNSW),
        build_hnsw(LATTICE[20:60], ids=point_id[20:60], params=FAST_HNSW),
        build_hnsw(LATTICE[60:] + 0.5, ids=np.arange(203, 199, -1), params=FAST_HNSW),
        HnswIndex(dim=3, params=FAST_HNSW),
        build_hnsw(LATTICE[30:64:2], ids=point_id[30:64:2] + 300, params=FAST_HNSW),
        far,
    ]
    return ShardIndex(0, segments, RandomSegmenter(len(segments)))


class Routed(RandomSegmenter):
    """Routes query row ``i`` to the segments ``routes[i]`` names."""

    def __init__(self, num_segments, routes):
        super().__init__(num_segments)
        self.routes = routes

    def route_query_batch(self, queries):
        assert len(queries) == len(self.routes)
        return self.routes


def routed_search(shard, queries, k, probes, ef=None, cost=None):
    """``shard``'s segments searched with row ``i`` probing ``probes[i]``."""
    routed = ShardIndex(0, shard.segments, Routed(len(shard.segments), probes))
    return routed.search_batch(queries, k, ef=ef, cost=cost)


def reference_shard_answer(shard, queries, k, probes, ef):
    """Level 1 as every row once ran it: each probed non-empty segment's
    answer (the pair searched alone) packed into its own ``k`` slots of
    a ``max_probes * k`` row padded with ``(-1, inf)``, then the literal
    per-row merge."""
    width = max(len(probed) for probed in probes) * k
    out_ids, out_dists = [], []
    for row, probed in enumerate(probes):
        ids, dists = [-1] * width, [np.inf] * width
        slot = 0
        for segment_id in sorted(probed):
            segment = shard.segments[segment_id]
            if not len(segment):
                continue
            found_ids, found_dists = segment.search_batch(
                queries[row : row + 1], min(k, len(segment)), ef=ef
            )
            for column, (node, dist) in enumerate(zip(found_ids[0], found_dists[0])):
                ids[slot * k + column], dists[slot * k + column] = int(node), float(dist)
            slot += 1
        merged = merged_row(dists, ids, k)
        out_dists.append([dist for dist, _ in merged])
        out_ids.append([node for _, node in merged])
    return np.array(out_ids, dtype=np.int64), np.array(out_dists, dtype=np.float64)


@st.composite
def lattice_requests(draw):
    """Query rows on (or half a step off) the lattice, 1-3 probes per
    row, a ``k`` on both sides of the short segment, an ``ef``."""
    rows = draw(st.integers(1, 6))
    cells = st.integers(-1, 8).map(lambda half_steps: half_steps / 2)
    queries = np.array(
        draw(st.lists(st.tuples(cells, cells, cells), min_size=rows, max_size=rows)),
        dtype=np.float32,
    )
    probes = [
        tuple(draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True)))
        for _ in range(rows)
    ]
    return queries, probes, draw(st.integers(1, 12)), draw(st.sampled_from([None, 4, 64]))


class TestLevelOneMerge:
    """A request whose rows each probe one segment skips the merge; every
    row still answers what packing its segments' answers and merging
    them did."""

    @settings(max_examples=200, deadline=None)
    @given(request=lattice_requests())
    def test_every_row_answers_its_packed_merge(self, lattice_shard, request):
        queries, probes, k, ef = request
        with np.errstate(over="ignore", invalid="ignore"):
            ids, dists = routed_search(lattice_shard, queries, k, probes, ef)
            want = reference_shard_answer(lattice_shard, queries, k, probes, ef)
        want_ids, want_dists = want
        assert (ids.dtype, dists.dtype) == (np.int64, np.float64)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(dists, want_dists)

    def test_an_answer_reaching_inf_is_merged_around_the_padding(self, lattice_shard):
        """The overflow segment answers a query at its near point with
        one finite and one ``inf`` distance; at ``k = 4`` the merge puts
        one padding entry before the ``inf`` id, as the literal merge
        does, where the answer as it stands would not."""
        queries = np.full((1, 3), 1.5, dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            ids, dists = routed_search(lattice_shard, queries, 4, [(5,)])
            want = reference_shard_answer(lattice_shard, queries, 4, [(5,)], None)
        assert ids.tolist() == [[400, -1, 401, -1]]
        np.testing.assert_array_equal(ids, want[0])
        np.testing.assert_array_equal(dists, want[1])

    def test_only_a_request_where_answers_meet_is_merged(self, lattice_shard, monkeypatch):
        """Rows each probing one segment, answered in distinct finite
        distances, reach no merge; a row probing two, or a tie in one
        answer, merges the request."""
        merges = []

        def spy(ids, dists, k):
            merges.append(ids.shape[0])
            return merge_segment_results_batch(ids, dists, k)

        monkeypatch.setattr("repro.core.index.merge_segment_results_batch", spy)
        queries = LATTICE[[0, 5, 21, 33]] + [0.11, 0.23, 0.37]
        routed_search(lattice_shard, queries, 6, [(0,), (1,), (4,), (2,)])
        routed_search(lattice_shard, queries[:1], 4, [(0,)])
        assert merges == []
        routed_search(lattice_shard, queries, 6, [(0,), (0, 1), (4,), (2,)])
        routed_search(lattice_shard, LATTICE[:1], 4, [(0,)])  # 3 ties at 1.0
        assert merges == [4, 1]


#: Every registered segmenter kind, under each spill mode it offers.
ROUTING_CASES = {
    "rs": ("rs", {}),
    **{
        f"{kind}-{mode}": (kind, {"spill_mode": mode})
        for kind in ("apd", "kmeans", "rh")
        for mode in SPILL_MODES
    },
}


@pytest.fixture(scope="module", params=sorted(ROUTING_CASES))
def routed_shard(request, clustered_data) -> ShardIndex:
    """One four-segment shard over :func:`clustered_data`, built around
    a segmenter of the case's kind and spill mode."""
    kind, options = ROUTING_CASES[request.param]
    segmenter = get_segmenter_class(kind)(4, seed=0, **options).fit(clustered_data)
    config = LannsConfig(num_shards=1, num_segments=4, hnsw=FAST_HNSW, seed=5)
    return build_lanns_index(clustered_data, config=config, segmenter=segmenter).shards[0]


class TestRoutingRule:
    """A shard searches exactly the segments its segmenter's
    ``route_query_batch`` names for each row; there is no other source
    of routes."""

    def test_every_registered_kind_is_a_case(self):
        assert sorted({kind for kind, _ in ROUTING_CASES.values()}) == registered_kinds()

    def test_search_batch_takes_no_routes_of_its_own(self, lattice_shard):
        parameters = inspect.signature(ShardIndex.search_batch).parameters
        assert list(parameters) == ["self", "queries", "k", "ef", "cost"]
        with pytest.raises(TypeError, match="probes"):
            lattice_shard.search_batch(LATTICE[:1], 4, probes=[(0,)])

    def test_a_segmenter_names_each_probed_segment_once(
        self, routed_shard, clustered_queries
    ):
        """The shard no longer checks routes, so every segmenter must
        hand it at least one in-range segment per row, none twice (a
        repeated segment would be searched, and charged, once per
        mention), and the row's own ``route_query``."""
        segmenter = routed_shard.segmenter
        routes = segmenter.route_query_batch(clustered_queries)
        assert len(routes) == len(clustered_queries)
        for query, probed in zip(clustered_queries, routes):
            assert probed
            assert len(set(probed)) == len(probed)
            assert all(0 <= segment < segmenter.num_segments for segment in probed)
            assert segmenter.route_query(query) == probed

    @pytest.mark.parametrize("rows", [1, 7, 40])
    def test_a_shard_answers_its_routed_segments_merged(
        self, routed_shard, clustered_queries, rows
    ):
        """Under each segmenter, each row answers the packed merge of the
        segments its route names, searched alone, and each executed
        (row, non-empty segment) pair is charged one probe.  One and
        seven rows run the heap kernels, forty the array ones."""
        queries = clustered_queries[:rows]
        routes = routed_shard.segmenter.route_query_batch(queries)
        cost = SearchCost()
        ids, dists = routed_shard.search_batch(queries, 10, cost=cost)
        want_ids, want_dists = reference_shard_answer(
            routed_shard, queries, 10, routes, None
        )
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(dists, want_dists)
        assert cost.segments_probed == sum(
            1
            for probed in routes
            for segment in probed
            if len(routed_shard.segments[segment])
        )

    @pytest.mark.parametrize(
        "probes",
        [
            [()],
            [(), ()],
            [(3,)],
            [(), (3,)],
            [(2,), ()],
            [(), (0,), (3,), (0, 4)],
        ],
    )
    def test_a_row_routed_to_no_vector_answers_padding(self, lattice_shard, probes):
        """A row routed nowhere, or only to the empty segment, answers
        ``k`` padding entries and is charged no probe, whether or not
        other rows of the request find vectors; those answer as if the
        unrouted rows were not there."""
        k = 4
        queries = LATTICE[: len(probes)] + np.float32(0.25)
        cost = SearchCost()
        ids, dists = routed_search(lattice_shard, queries, k, probes, cost=cost)
        assert (ids.shape, dists.shape) == ((len(probes), k), (len(probes), k))
        answered = [
            row
            for row, probed in enumerate(probes)
            if any(len(lattice_shard.segments[segment]) for segment in probed)
        ]
        unanswered = [row for row in range(len(probes)) if row not in answered]
        assert (ids[unanswered] == -1).all()
        assert (dists[unanswered] == np.inf).all()
        if answered:
            want_ids, want_dists = reference_shard_answer(
                lattice_shard, queries[answered], k, [probes[row] for row in answered], None
            )
            np.testing.assert_array_equal(ids[answered], want_ids)
            np.testing.assert_array_equal(dists[answered], want_dists)
        assert cost.segments_probed == sum(
            1
            for probed in probes
            for segment in probed
            if len(lattice_shard.segments[segment])
        )


class TestLannsIndex:
    def test_every_point_stored_exactly_once_virtual(self, lanns, clustered_data):
        assert len(lanns) == len(clustered_data)

    def test_stats_shape(self, lanns, config):
        stats = lanns.stats()
        assert stats["partitioning"] == (2, 4)
        assert len(stats["shard_sizes"]) == 2
        assert all(len(sizes) == 4 for sizes in stats["segment_sizes"])
        assert sum(stats["shard_sizes"]) == len(lanns)

    def test_query_matches_exact_on_clustered_data(
        self, lanns, clustered_queries, clustered_truth
    ):
        hits = 0
        for query, truth in zip(clustered_queries, clustered_truth):
            ids, _ = lanns.query(query, 10, ef=64)
            hits += len(set(ids.tolist()) & set(truth[:10].tolist()))
        assert hits / (len(clustered_queries) * 10) >= 0.9

    def test_query_returns_sorted_distances(self, lanns, clustered_queries):
        _, dists = lanns.query(clustered_queries[0], 10)
        assert np.all(np.diff(dists) >= -1e-12)

    def test_query_finds_stored_point(self, lanns, clustered_data):
        ids, dists = lanns.query(clustered_data[42], 1, ef=48)
        assert ids[0] == 42
        # float32 norm cancellation leaves ~1e-3-scale noise on the
        # self-distance; anything near zero is correct.
        assert dists[0] == pytest.approx(0.0, abs=2e-2)

    def test_invalid_topk(self, lanns, clustered_queries):
        with pytest.raises(ValueError):
            lanns.query(clustered_queries[0], 0)

    def test_shard_count_validated(self, lanns, config):
        with pytest.raises(ValueError, match="shards"):
            LannsIndex(config, lanns.shards[:1], lanns.segmenter)

    def test_empty_index_query_rejected(self, clustered_data, config):
        empty = build_lanns_index(clustered_data[:0], config=LannsConfig())
        with pytest.raises(IndexNotBuiltError):
            empty.query(clustered_data[0], 5)

    def test_per_shard_budget_respects_flag(self, clustered_data):
        config = LannsConfig(
            num_shards=4,
            hnsw=FAST_HNSW,
            use_per_shard_topk=False,
        )
        index = build_lanns_index(clustered_data[:200], config=config)
        assert index.per_shard_budget(100) == 100
        config_on = config.with_updates(use_per_shard_topk=True)
        index_on = build_lanns_index(clustered_data[:200], config=config_on)
        assert index_on.per_shard_budget(100) < 100

    def test_dim_property(self, lanns, clustered_data):
        assert lanns.dim == clustered_data.shape[1]


class TestPhysicalSpill:
    def test_physical_spill_stores_duplicates(self, clustered_data):
        config = LannsConfig(
            num_segments=4,
            segmenter="rh",
            spill_mode="physical",
            alpha=0.15,
            hnsw=FAST_HNSW,
            segmenter_sample_size=600,
        )
        index = build_lanns_index(clustered_data, config=config)
        assert len(index) > len(clustered_data)

    def test_physical_spill_query_returns_unique_ids(self, clustered_data, clustered_queries):
        config = LannsConfig(
            num_segments=4,
            segmenter="rh",
            spill_mode="physical",
            alpha=0.2,
            hnsw=FAST_HNSW,
            segmenter_sample_size=600,
        )
        index = build_lanns_index(clustered_data, config=config)
        for query in clustered_queries[:10]:
            ids, _ = index.query(query, 10)
            assert len(set(ids.tolist())) == len(ids)
