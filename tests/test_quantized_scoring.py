"""Quantized beam search + exact rescore, and the PQ codec fixes.

Covers the compressed-domain scoring tier end to end: codec round
trips, the not-fitted error contract, wire-boundary bit-parity of the
quantized-then-rescored path against the float path, recall floors for
both backends, and persistence through the manifest layer.  (The
batch-of-one invariance is a cell of ``test_search_body.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.pq import PqIndex, ProductQuantizer
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
from repro.hnsw.index import HnswIndex, build_hnsw
from repro.hnsw.params import HnswParams
from repro.offline.brute_force import exact_top_k
from repro.offline.recall import recall_at_k
from repro.online.service import OnlineService
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import (
    load_lanns_index,
    load_manifest,
    save_lanns_index,
)


def _corpus(n=1500, dim=24, seed=0):
    return clustered_gaussians(n, dim, num_clusters=8, seed=seed)


# -- satellite: ProductQuantizer fixes ------------------------------------------------


class TestProductQuantizerFixes:
    def test_clamped_fit_updates_num_codes(self):
        data = _corpus(n=10, dim=8)
        quantizer = ProductQuantizer(2, 256, seed=0).fit(data)
        assert quantizer.num_codes == 10
        assert quantizer.codebooks.shape[1] == quantizer.num_codes

    def test_clamped_fit_round_trips(self):
        data = _corpus(n=10, dim=8)
        quantizer = ProductQuantizer(2, 256, seed=0).fit(data)
        restored = ProductQuantizer.from_dict(quantizer.to_dict())
        assert restored.num_codes == quantizer.num_codes
        np.testing.assert_array_equal(
            restored.codebooks, quantizer.codebooks
        )
        np.testing.assert_array_equal(
            restored.encode(data), quantizer.encode(data)
        )

    def test_from_dict_rejects_inconsistent_num_codes(self):
        data = _corpus(n=32, dim=8)
        payload = ProductQuantizer(2, 16, seed=0).fit(data).to_dict()
        payload["num_codes"] = 99
        with pytest.raises(ValueError, match="num_codes"):
            ProductQuantizer.from_dict(payload)

    @pytest.mark.parametrize("method", ["encode", "decode", "adc_table"])
    def test_unfitted_quantizer_raises_clear_error(self, method):
        quantizer = ProductQuantizer(2, 16)
        argument = (
            np.zeros((3, 2), dtype=np.uint16)
            if method == "decode"
            else np.zeros(8 if method == "adc_table" else (3, 8))
        )
        with pytest.raises(CodecNotFittedError, match="fit"):
            getattr(quantizer, method)(argument)

    def test_is_fitted_flag(self):
        quantizer = ProductQuantizer(2, 16)
        assert not quantizer.is_fitted
        quantizer.fit(_corpus(n=64, dim=8))
        assert quantizer.is_fitted

    def test_pq_index_no_rerank_distances_are_sorted(self):
        data = _corpus(n=400, dim=16, seed=3)
        index = PqIndex(4, 16, rerank=0, seed=0)
        index.fit(data)
        for query in _corpus(n=8, dim=16, seed=4):
            ids, dists = index.search(query, 10)
            assert np.all(np.diff(dists) >= 0.0)
            # The distances really are exact for the returned ids.
            exact = np.sqrt(
                ((data[ids].astype(np.float64) - query) ** 2).sum(axis=1)
            )
            np.testing.assert_allclose(dists, exact)


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
        restored = Int8Codec.from_arrays(codec.to_arrays())
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
        with pytest.raises(CodecNotFittedError, match="fit"):
            PqAdcCodec(4).encode(_corpus(n=4, dim=8))

    def test_array_round_trip(self):
        data = _corpus(n=300, dim=16)
        codec = PqAdcCodec(4, seed=2).fit(data)
        restored = PqAdcCodec.from_arrays(codec.to_arrays())
        np.testing.assert_array_equal(
            restored.encode(data), codec.encode(data)
        )
        np.testing.assert_array_equal(
            restored.codebooks32, codec.codebooks32
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


# -- the tentpole: quantized beam + exact rescore ------------------------------------


def _parity_case(metric, kind):
    data = _corpus(n=2500, dim=24, seed=1)
    queries = _corpus(n=40, dim=24, seed=2)
    base = dict(seed=3, ef_search=60)
    float_index = build_hnsw(
        data, metric=metric, params=HnswParams(**base)
    )
    quant_index = build_hnsw(
        data,
        metric=metric,
        params=HnswParams(
            **base, quantize=kind, rescore_k=80, pq_subspaces=6
        ),
    )
    return data, queries, float_index, quant_index


class TestQuantizedSearchParity:
    @pytest.mark.parametrize("kind", ["int8", "pq"])
    @pytest.mark.parametrize(
        "metric", ["euclidean", "cosine", "inner_product"]
    )
    def test_rescored_distances_bit_identical_to_float_path(
        self, metric, kind
    ):
        """The wire contract: any id both paths return carries the exact

        same bits of distance -- the rescore runs the same
        batch-composition-invariant float32 kernel the float traversal
        scores with.
        """
        _, queries, float_index, quant_index = _parity_case(metric, kind)
        float_ids, float_dists = float_index.search_batch(queries, 10)
        quant_ids, quant_dists = quant_index.search_batch(queries, 10)
        compared = 0
        for fi, fd, qi, qd in zip(
            float_ids, float_dists, quant_ids, quant_dists
        ):
            quant_map = dict(zip(qi.tolist(), qd.tolist()))
            for candidate, distance in zip(fi.tolist(), fd.tolist()):
                if candidate in quant_map:
                    assert quant_map[candidate] == distance
                    compared += 1
        # The overlap must be substantial for the parity check to mean
        # anything (recall floors are pinned separately below).
        assert compared >= 300

    @pytest.mark.parametrize("kind", ["int8", "pq"])
    def test_returned_distances_are_exact(self, kind):
        data, queries, _, quant_index = _parity_case("euclidean", kind)
        ids, dists = quant_index.search_batch(queries, 10)
        for row in range(queries.shape[0]):
            exact = np.sqrt(
                (
                    (
                        data[ids[row]].astype(np.float64)
                        - queries[row].astype(np.float64)
                    )
                    ** 2
                ).sum(axis=1)
            )
            np.testing.assert_allclose(dists[row], exact, rtol=1e-5)
            assert np.all(np.diff(dists[row]) >= 0.0)

    @pytest.mark.parametrize("kind", ["int8", "pq"])
    def test_recall_floor_vs_exact_ground_truth(self, kind):
        data = _corpus(n=3000, dim=24, seed=1)
        queries = _corpus(n=50, dim=24, seed=2)
        truth_ids, _ = exact_top_k(data, queries, 10)
        index = build_hnsw(
            data,
            params=HnswParams(
                seed=3, ef_search=80, quantize=kind, rescore_k=120
            ),
        )
        ids, _ = index.search_batch(queries, 10)
        recall = recall_at_k(ids, truth_ids, 10)
        # Clustered 24-d corpus at ef=80: the float path is ~1.0 here;
        # quantized-then-rescored must stay close.
        assert recall >= 0.92, f"{kind} recall@10 = {recall:.3f}"

    def test_rescore_k_deepens_the_beam(self):
        data = _corpus(n=3000, dim=24, seed=1)
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

    def test_quantize_none_is_todays_path(self):
        data = _corpus(n=1200, dim=16, seed=4)
        queries = _corpus(n=20, dim=16, seed=5)
        default = build_hnsw(data, params=HnswParams(seed=3))
        explicit = build_hnsw(
            data, params=HnswParams(seed=3, quantize="none")
        )
        a = default.search_batch(queries, 10)
        b = explicit.search_batch(queries, 10)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert explicit._quantized is None

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
    @pytest.mark.parametrize("kind", ["int8", "pq"])
    def test_segment_save_load_bit_identical(self, tmp_path, kind):
        data = _corpus(n=1200, dim=16, seed=4)
        queries = _corpus(n=15, dim=16, seed=5)
        index = build_hnsw(
            data,
            params=HnswParams(
                seed=3, quantize=kind, rescore_k=40, pq_subspaces=4
            ),
        )
        path = str(tmp_path / "segment.npz")
        index.save(path)
        loaded = HnswIndex.load(path)
        assert loaded.params.quantize == kind
        np.testing.assert_array_equal(
            loaded._quantized.codes, index._quantized.codes
        )
        a = index.search_batch(queries, 10)
        b = loaded.search_batch(queries, 10)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

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
        manifest = save_lanns_index(index, fs, "idx")
        assert manifest.quantize == kind
        assert load_manifest(fs, "idx").quantize == kind
        assert manifest.lanns_config.quantize == kind

    @pytest.mark.parametrize("kind", ["int8", "pq"])
    def test_deployed_service_matches_direct_index(self, tmp_path, kind):
        data = _corpus(n=1500, dim=16, seed=4)
        queries = _corpus(n=20, dim=16, seed=5)
        config = LannsConfig(
            num_shards=2,
            num_segments=2,
            hnsw=HnswParams(quantize=kind, rescore_k=40),
            seed=5,
        )
        fs = LocalHdfs(str(tmp_path))
        index = build_lanns_index(data, config=config)
        save_lanns_index(index, fs, "idx")
        loaded = load_lanns_index(fs, "idx")
        a = index.query_batch(queries, 10)
        b = loaded.query_batch(queries, 10)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

        service = OnlineService()
        service.deploy(fs, "idx")
        ids, dists = service.query_batch(queries, 10)
        np.testing.assert_array_equal(ids, a[0])
        np.testing.assert_array_equal(dists, a[1])
        assert service.stats()["indices"]["default"]["quantize"] == kind
