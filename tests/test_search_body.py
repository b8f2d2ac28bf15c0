"""The one HNSW search body, as one matrix of cells.

``HnswIndex._search_many`` is candidates -> exact rescore iff the
candidates were scored approximately -> gather; float / int8 / PQ-ADC /
flat scan differ only in who scores the candidates.  Every cell of
scorer x metric x batch size checks the same three promises:

(a) ``search`` equals its row of ``search_batch`` bit for bit, across
    the lockstep-group boundary;
(b) every returned distance is the exact float kernel's score of the
    returned row, bit for bit, in ``(distance, row)`` order;
(c) a batch's ``SearchCost`` is the merged cost of its rows run singly.

The ``flat`` arm is built with ``quantize="int8"`` *and* a
``min_graph_size`` above the segment size: the flat scan wins and
distances stay exact.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.distance.scorer import Scorer
from repro.hnsw.index import _MAX_LOCKSTEP, HnswIndex, build_hnsw
from repro.obs.cost import SearchCost
from repro.obs.tracing import SpanRecorder, activate, deactivate
from tests.conftest import FAST_HNSW

ARMS = {
    "float": {},
    "int8": {"quantize": "int8", "rescore_k": 64},
    "pq": {"quantize": "pq", "rescore_k": 64, "pq_subspaces": 4},
    "flat": {"quantize": "int8", "min_graph_size": 10_000},
}
METRICS = ("euclidean", "cosine", "inner_product")
BATCHES = (1, 7, _MAX_LOCKSTEP, _MAX_LOCKSTEP + 1)
K = 10
#: External id of internal row ``r`` is ``3 r + 7``: a gather that
#: returned rows instead of ids cannot pass.
ID_STRIDE, ID_BASE = 3, 7


@pytest.fixture(scope="module")
def queries(clustered_data) -> np.ndarray:
    rng = np.random.default_rng(5)
    rows = rng.integers(0, clustered_data.shape[0], size=_MAX_LOCKSTEP + 1)
    noise = rng.normal(scale=0.2, size=(rows.size, clustered_data.shape[1]))
    return (clustered_data[rows] + noise).astype(np.float32)


@pytest.fixture(scope="module")
def indices(clustered_data) -> dict[tuple[str, str], HnswIndex]:
    ids = np.arange(clustered_data.shape[0]) * ID_STRIDE + ID_BASE
    return {
        (arm, metric): build_hnsw(
            clustered_data,
            ids=ids,
            metric=metric,
            params=replace(FAST_HNSW, **extra),
        )
        for arm, extra in ARMS.items()
        for metric in METRICS
    }


@pytest.fixture(scope="module")
def references(clustered_data) -> dict[str, Scorer]:
    """One independent float scorer per metric over the same rows."""
    scorers = {}
    for metric in METRICS:
        scorer = Scorer(metric, clustered_data.shape[1])
        scorer.add(clustered_data)
        scorers[metric] = scorer
    return scorers


def _single_cost(index: HnswIndex, query: np.ndarray) -> SearchCost:
    cost = SearchCost()
    index.search_batch(query[np.newaxis, :], K, cost=cost)
    return cost


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("arm", ARMS)
class TestCell:
    def test_search_is_a_row_of_search_batch(
        self, indices, queries, arm, metric, batch
    ):
        index = indices[arm, metric]
        ids, dists = index.search_batch(queries[:batch], K)
        assert ids.shape == dists.shape == (batch, K)
        for row in range(batch):
            single_ids, single_dists = index.search(queries[row], K)
            assert len(single_ids) == K
            np.testing.assert_array_equal(ids[row], single_ids)
            np.testing.assert_array_equal(dists[row], single_dists)

    def test_distances_are_the_exact_kernel_in_order(
        self, indices, references, queries, arm, metric, batch
    ):
        index, scorer = indices[arm, metric], references[metric]
        ids, dists = index.search_batch(queries[:batch], K)
        rows = (ids - ID_BASE) // ID_STRIDE
        np.testing.assert_array_equal(rows * ID_STRIDE + ID_BASE, ids)
        prepared = scorer.prepare_queries(queries[:batch])
        for row in range(batch):
            reduced = scorer.score_pairs(prepared, np.full(K, row), rows[row])
            if arm == "flat":
                # The flat scan's exact kernel is the row-at-a-time GEMM;
                # its bits need not match score_pairs' einsum.
                pairs = reduced
                reduced = scorer.score_all_batch(prepared[row : row + 1])[0][
                    rows[row]
                ]
                np.testing.assert_allclose(reduced, pairs, rtol=1e-4, atol=1e-4)
            np.testing.assert_array_equal(
                dists[row], scorer.to_true(reduced.astype(np.float64))
            )
            order = list(zip(reduced.tolist(), rows[row].tolist()))
            assert order == sorted(order)

    def test_batch_cost_is_the_merged_single_costs(
        self, indices, queries, arm, metric, batch
    ):
        index = indices[arm, metric]
        batch_cost = SearchCost()
        index.search_batch(queries[:batch], K, cost=batch_cost)
        merged = SearchCost()
        for row in range(batch):
            merged.merge(_single_cost(index, queries[row]))
        assert batch_cost == merged
        assert (batch_cost.rescore_rows > 0) == (arm in ("int8", "pq"))
        if arm == "flat":
            assert batch_cost.hops == 0
            assert batch_cost.candidates_visited == 0
            assert batch_cost.distance_comps == batch * len(index)
        else:
            assert batch_cost.hops > 0
            assert batch_cost.distance_comps > batch_cost.candidates_visited


@pytest.mark.parametrize("arm", ARMS)
def test_every_candidate_source_records_its_stage(indices, queries, arm):
    """A traced request shows the searcher subtree whichever arm serves
    it, every stage tagged with who scored the candidates -- and tracing
    never changes a result."""
    index = indices[arm, "euclidean"]
    plain = index.search_batch(queries[:3], K)
    recorder, cost = SpanRecorder(), SearchCost()
    token = activate(recorder)
    try:
        traced = index.search_batch(queries[:3], K, cost=cost)
    finally:
        deactivate(token)
    np.testing.assert_array_equal(traced[0], plain[0])
    np.testing.assert_array_equal(traced[1], plain[1])
    spans = {span["name"]: span["annotations"] for span in recorder.export()}
    want = {
        "flat": ["scan"],
        "float": ["descend", "beam"],
        "int8": ["descend", "beam", "rescore"],
        "pq": ["descend", "beam", "rescore"],
    }[arm]
    assert list(spans) == want
    assert all(notes["scorer"] == arm for notes in spans.values())
    if arm == "flat":
        assert spans["scan"]["rows"] == len(index)
        assert spans["scan"]["num_queries"] == 3
    else:
        assert spans["beam"]["num_queries"] == 3
        assert spans["beam"]["ef"] >= K
    if "rescore" in spans:
        assert spans["rescore"]["rows"] == cost.rescore_rows


class TestExternalIdGather:
    """The tail gathers through a private row -> external-id array."""

    def test_public_property_stays_a_fresh_array(self, indices, queries):
        index = indices["float", "euclidean"]
        before = index.search_batch(queries[:5], K)
        index.external_ids[:] = -5  # a caller scribbling on its own copy
        after = index.search_batch(queries[:5], K)
        np.testing.assert_array_equal(before[0], after[0])
        assert index.external_ids is not index.external_ids

    @pytest.mark.parametrize("arm", ARMS)
    def test_add_and_reload_invalidate_it(self, clustered_data, arm):
        params = replace(FAST_HNSW, **ARMS[arm])
        index = build_hnsw(clustered_data[:200], params=params)
        index.search(clustered_data[0], K)  # the array now exists
        index.add(clustered_data[200:260], ids=np.arange(5000, 5060))
        ids, _ = index.search(clustered_data[230], 1, ef=64)
        assert ids.tolist() == [5030]
        restored = HnswIndex.from_arrays(index.to_arrays())
        want = index.search_batch(clustered_data[195:205], K)
        got = restored.search_batch(clustered_data[195:205], K)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
