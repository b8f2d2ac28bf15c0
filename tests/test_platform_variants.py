"""Platform variant tests: metric / spill / scale combinations that the
focused module tests don't cross.

These exist because the paper's platform promises *composability*: any
metric x segmenter x spill-mode combination must survive the full
build -> persist -> query -> serve cycle, not just the defaults.
"""

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.data.datasets import load_dataset, scale_factor
from repro.offline.brute_force import exact_top_k
from repro.offline.indexing import build_index_job
from repro.offline.querying import query_index_job
from repro.offline.recall import recall_at_k
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from repro.storage.manifest import save_lanns_index
from tests.conftest import FAST_HNSW, make_clustered


class TestCosineEndToEnd:
    @pytest.fixture(scope="class")
    def cosine_setup(self):
        data = make_clustered(500, 16, seed=61)
        # In-distribution queries: perturbed base points (a segmenter can
        # only route queries drawn from the distribution it was fit on).
        rng = np.random.default_rng(62)
        rows = rng.integers(0, 500, size=30)
        queries = (
            data[rows] + rng.normal(scale=0.2, size=(30, 16))
        ).astype(np.float32)
        truth, _ = exact_top_k(data, queries, 10, metric="cosine")
        return data, queries, truth

    def test_offline_pipeline_cosine(self, cosine_setup, cluster, fs):
        data, queries, truth = cosine_setup
        config = LannsConfig(
            num_shards=2,
            num_segments=2,
            segmenter="rh",
            metric="cosine",
            hnsw=FAST_HNSW,
            segmenter_sample_size=500,
            seed=3,
        )
        build_index_job(cluster, fs, data, config, "idx-cos")
        result = query_index_job(
            cluster, fs, "idx-cos", queries, top_k=10, ef=64,
            checkpoint=False,
        )
        assert recall_at_k(result.ids, truth, 10) >= 0.75

    def test_online_serving_cosine(self, cosine_setup, fs):
        data, queries, truth = cosine_setup
        config = LannsConfig(
            num_shards=1,
            num_segments=2,
            segmenter="apd",
            metric="cosine",
            hnsw=FAST_HNSW,
            segmenter_sample_size=500,
            seed=4,
        )
        index = build_lanns_index(data, config=config)
        save_lanns_index(index, fs, "prod/cos")
        service = OnlineService()
        service.deploy(fs, "prod/cos")
        responses = [
            service.execute(SearchRequest(query, 10, ef=64)) for query in queries
        ]
        ids = np.concatenate([response.ids for response in responses])
        dists = np.concatenate([response.dists for response in responses])
        # Cosine distances live in [0, 2].
        assert (dists >= -1e-6).all() and (dists <= 2.0 + 1e-6).all()
        assert recall_at_k(ids, truth, 10) >= 0.75


class TestPhysicalSpillThroughPipelines:
    def test_persisted_physical_spill_index(self, cluster, fs, clustered_data, clustered_queries, clustered_truth):
        config = LannsConfig(
            num_shards=2,
            num_segments=2,
            segmenter="rh",
            spill_mode="physical",
            alpha=0.2,
            hnsw=FAST_HNSW,
            segmenter_sample_size=600,
            seed=5,
        )
        manifest, _ = build_index_job(
            cluster, fs, clustered_data, config, "idx-phys"
        )
        # Physical spill stores boundary duplicates.
        assert manifest.total_vectors > len(clustered_data)
        result = query_index_job(
            cluster, fs, "idx-phys", clustered_queries, top_k=10, ef=64,
            checkpoint=False,
        )
        # Duplicates must have been deduped in the merge.
        for row in range(result.ids.shape[0]):
            valid = result.ids[row][result.ids[row] >= 0]
            assert len(set(valid.tolist())) == len(valid)
        assert recall_at_k(result.ids, clustered_truth, 10) >= 0.8


class TestInnerProductEndToEnd:
    def test_lanns_inner_product(self, clustered_data):
        config = LannsConfig(
            num_shards=1,
            num_segments=2,
            segmenter="rs",
            metric="inner_product",
            hnsw=FAST_HNSW,
            seed=6,
        )
        index = build_lanns_index(clustered_data, config=config)
        queries = clustered_data[:15]
        truth, _ = exact_top_k(
            clustered_data, queries, 5, metric="inner_product"
        )
        hits = 0
        for row, query in enumerate(queries):
            ids, _ = index.query(query, 5, ef=64)
            hits += len(set(ids.tolist()) & set(truth[row].tolist()))
        assert hits / (15 * 5) >= 0.85


class TestScaleFactor:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_factor() == 1.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert scale_factor() == 2.5

    def test_invalid_values_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "zero")
        with pytest.raises(ValueError):
            scale_factor()
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            scale_factor()

    def test_scaled_dataset_sizes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        small = load_dataset("people")
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        bigger = load_dataset("people")
        assert bigger.num_base > small.num_base


class TestSingleShardSingleSegment:
    def test_degenerate_partitioning_equals_hnsw(self, clustered_data, clustered_queries):
        """(1,1)-partitioning must behave exactly like plain HNSW."""
        from repro.hnsw.index import build_hnsw
        from repro.hnsw.params import HnswParams

        config = LannsConfig(num_shards=1, num_segments=1, hnsw=FAST_HNSW)
        lanns = build_lanns_index(clustered_data, config=config)
        # The builder derives a per-segment seed, so compare against an
        # HNSW built with that same seed.
        seed = lanns.shards[0].segments[0].params.seed
        params = HnswParams(**{**FAST_HNSW.to_dict(), "seed": seed})
        plain = build_hnsw(clustered_data, params=params)
        for query in clustered_queries[:10]:
            lanns_ids, _ = lanns.query(query, 10, ef=48)
            plain_ids, _ = plain.search(query, 10, ef=48)
            np.testing.assert_array_equal(lanns_ids, plain_ids)
