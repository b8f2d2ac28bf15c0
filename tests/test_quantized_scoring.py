"""Quantized beam search + exact rescore, and the codecs behind it.

Covers the compressed-domain scoring tier: codec round trips, the
not-fitted error contract, what ``rescore_k`` buys, and persistence
through the manifest layer.  That int8 / PQ answers carry the exact
kernel's distances and meet the recall floor on every serving path is
the ``quantize`` factor of ``tests/test_path_matrix.py``; the
batch-of-one invariance of both views is its scorer cell.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.data import clustered_gaussians
from repro.distance.scorer import (
    QUANTIZE_KINDS,
    Int8Codec,
    PqAdcCodec,
    QuantizedStore,
    Scorer,
    pq_subspaces_for,
)
from repro.errors import CodecNotFittedError
from repro.hnsw.index import build_hnsw
from repro.hnsw.params import HnswParams
from repro.offline.brute_force import exact_top_k
from repro.offline.recall import recall_at_k
from repro.online.service import OnlineService
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import load_manifest, save_lanns_index


def _corpus(n=1500, dim=24, seed=0):
    return clustered_gaussians(n, dim, num_clusters=8, seed=seed)


# -- satellite: score_pairs query_sq ------------------------------------------------


class TestScorePairsQuerySq:
    @pytest.mark.parametrize("kind", ["float", "int8", "pq"])
    @pytest.mark.parametrize(
        "metric", ["euclidean", "cosine", "inner_product"]
    )
    def test_precomputed_norm_is_bit_identical(self, metric, kind):
        """With or without ``query_sq``, with ``query_rows`` given or not
        (a batch of one row does not read it), and as row 3 of a 4-row
        batch: one value per pair, for the float scorer and both views."""
        data = _corpus(n=200, dim=12)
        scorer = Scorer(metric, 12)
        scorer.add(data)
        batch = scorer.prepare_queries(_corpus(n=4, dim=12, seed=9))
        queries = batch[3:]
        ids = np.arange(0, 200, 3, dtype=np.int64)
        rows = np.zeros(ids.size, dtype=np.int64)

        store = None if kind == "float" else QuantizedStore(scorer, kind)

        def bound(prepared):
            return scorer if store is None else store.view(prepared)

        baseline = bound(queries).score_pairs(queries, rows, ids)
        for unread in (rows, None):
            threaded = bound(queries).score_pairs(
                queries, unread, ids, scorer.query_sq_norms(queries)
            )
            np.testing.assert_array_equal(baseline, threaded)
        in_batch = bound(batch).score_pairs(
            batch, rows + 3, ids, scorer.query_sq_norms(batch)
        )
        assert in_batch.tobytes() == baseline.tobytes()


# -- codecs -------------------------------------------------------------------------


class TestInt8Codec:
    def test_round_trip_error_is_bounded_by_step(self):
        data = _corpus(n=500, dim=16)
        codec = Int8Codec().fit(data)
        decoded = codec.decode(codec.encode(data))
        # Affine scalar quantization is exact to half a step per dim.
        assert np.all(np.abs(decoded - data) <= codec.scale * 0.5 + 1e-6)

    def test_constant_dimension_is_exact(self):
        data = _corpus(n=100, dim=8)
        data[:, 3] = 2.5
        codec = Int8Codec().fit(data)
        decoded = codec.decode(codec.encode(data))
        np.testing.assert_allclose(decoded[:, 3], 2.5, atol=1e-6)

    def test_unfitted_raises(self):
        with pytest.raises(CodecNotFittedError, match="fit"):
            Int8Codec().encode(_corpus(n=4, dim=8))
        with pytest.raises(CodecNotFittedError, match="fit"):
            Int8Codec().decode(np.zeros((4, 8), dtype=np.int8))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Int8Codec().fit(np.empty((0, 8), dtype=np.float32))

    def test_array_round_trip(self):
        data = _corpus(n=100, dim=8)
        codec = Int8Codec().fit(data)
        restored = Int8Codec.from_arrays(codec.to_arrays(), 8)
        np.testing.assert_array_equal(
            restored.encode(data), codec.encode(data)
        )


class TestPqAdcCodec:
    def test_subspace_divisor_fallback(self):
        assert pq_subspaces_for(24, 8) == 8
        assert pq_subspaces_for(25, 8) == 5
        assert pq_subspaces_for(23, 8) == 1
        assert pq_subspaces_for(4, 8) == 4

    def test_awkward_dim_fits(self):
        data = _corpus(n=300, dim=25)
        codec = PqAdcCodec(8, seed=0).fit(data)
        assert codec.num_subspaces == 5
        assert codec.encode(data).shape == (300, 5)

    def test_unfitted_raises(self):
        codec = PqAdcCodec(4)
        assert not codec.is_fitted
        with pytest.raises(CodecNotFittedError, match="fit"):
            codec.encode(_corpus(n=4, dim=8))
        with pytest.raises(CodecNotFittedError, match="fit"):
            codec.to_arrays()

    def test_fewer_rows_than_codewords_clamps_the_codebooks(self):
        codec = PqAdcCodec(2, seed=0).fit(_corpus(n=10, dim=8))
        assert codec.is_fitted
        assert codec.codebooks.shape == (2, 10, 4)

    @pytest.mark.parametrize("rows", [10, 300])
    def test_array_round_trip(self, rows):
        data = _corpus(n=rows, dim=16)
        codec = PqAdcCodec(4, seed=2).fit(data)
        restored = PqAdcCodec.from_arrays(codec.to_arrays(), 16)
        np.testing.assert_array_equal(
            restored.encode(data), codec.encode(data)
        )
        np.testing.assert_array_equal(
            restored.codebooks, codec.codebooks
        )


class TestQuantizedStore:
    def test_rejects_unknown_kind(self):
        scorer = Scorer("euclidean", 8)
        with pytest.raises(ValueError, match="int8"):
            QuantizedStore(scorer, "float16")

    def test_kinds_constant_matches_params_validation(self):
        assert QUANTIZE_KINDS == ("none", "int8", "pq")
        for kind in QUANTIZE_KINDS:
            HnswParams(quantize=kind)  # must validate
        with pytest.raises(ValueError, match="quantize"):
            HnswParams(quantize="float16")

    def test_refresh_covers_incremental_adds(self):
        scorer = Scorer("euclidean", 8)
        scorer.add(_corpus(n=50, dim=8))
        store = QuantizedStore(scorer, "int8")
        store.refresh()
        assert store.is_trained
        scorer.add(_corpus(n=30, dim=8, seed=5))
        assert not store.is_trained  # stale: codes cover 50 of 80 rows
        store.refresh()
        assert store.is_trained and store.count == 80

    def test_codes_are_four_times_smaller(self):
        scorer = Scorer("euclidean", 32)
        scorer.add(_corpus(n=400, dim=32))
        store = QuantizedStore(scorer, "int8")
        store.refresh()
        assert store.codes.nbytes * 4 == scorer.data.nbytes


# -- quantized beam + exact rescore -------------------------------------------------


class TestQuantizedSearch:
    def test_rescore_k_deepens_the_beam(self):
        data = _corpus(n=1000, dim=24, seed=1)
        queries = _corpus(n=30, dim=24, seed=2)
        shallow = build_hnsw(
            data, params=HnswParams(seed=3, ef_search=12, quantize="pq")
        )
        deep = build_hnsw(
            data,
            params=HnswParams(
                seed=3, ef_search=12, quantize="pq", rescore_k=100
            ),
        )
        truth_ids, _ = exact_top_k(data, queries, 10)
        shallow_recall = recall_at_k(
            shallow.search_batch(queries, 10)[0], truth_ids, 10
        )
        deep_recall = recall_at_k(
            deep.search_batch(queries, 10)[0], truth_ids, 10
        )
        assert deep_recall > shallow_recall

    def test_incremental_add_retrains_codes(self):
        data = _corpus(n=1200, dim=16, seed=4)
        extra = _corpus(n=300, dim=16, seed=6)
        queries = _corpus(n=10, dim=16, seed=5)
        index = build_hnsw(
            data, params=HnswParams(seed=3, quantize="int8", rescore_k=40)
        )
        index.add(extra)
        assert index._quantized.count == 1500
        ids, dists = index.search_batch(queries, 10)
        assert np.all(ids >= 0) and np.all(np.isfinite(dists))


# -- persistence / serving ----------------------------------------------------------


class TestQuantizedPersistence:
    @pytest.mark.parametrize("kind", ["none", "int8", "pq"])
    def test_manifest_records_quantize(self, tmp_path, kind):
        data = _corpus(n=900, dim=16, seed=4)
        config = LannsConfig(
            num_shards=2,
            num_segments=2,
            hnsw=HnswParams(quantize=kind, rescore_k=30),
            seed=5,
        )
        fs = LocalHdfs(str(tmp_path))
        index = build_lanns_index(data, config=config)
        save_lanns_index(index, fs, "idx")
        assert load_manifest(fs, "idx").lanns_config.hnsw.quantize == kind
        service = OnlineService()
        service.deploy(fs, "idx")
        assert service.stats()["indices"]["default"]["quantize"] == kind
        assert (index.shards[0].segments[0]._quantized is None) == (kind == "none")
