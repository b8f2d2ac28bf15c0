"""Tests for the offline jobs: learn (Fig 5), index (Fig 6), query (Fig 7)."""

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.errors import MetadataMismatchError
from repro.offline.indexing import build_index_job
from repro.offline.learn import learn_segmenter_job, load_learnt_segmenter
from repro.offline.querying import query_index_job
from repro.offline.recall import recall_at_k
from repro.sparklite.cluster import LocalCluster
from repro.storage.manifest import (
    hnsw_from_bytes,
    load_lanns_index,
    load_manifest,
    load_segmenter,
    save_lanns_index,
)
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def config():
    return LannsConfig(
        num_shards=2,
        num_segments=2,
        segmenter="apd",
        hnsw=FAST_HNSW,
        segmenter_sample_size=600,
        seed=4,
    )


class TestLearnJob:
    def test_learns_and_persists(self, cluster, fs, clustered_data, config):
        segmenter = learn_segmenter_job(
            cluster, fs, clustered_data, config, output_path="segmenters/s1"
        )
        assert segmenter.is_fitted
        restored = load_learnt_segmenter(fs, "segmenters/s1")
        assert restored.route_data_batch(clustered_data[:20]) == (
            segmenter.route_data_batch(clustered_data[:20])
        )
        assert cluster.last_stage().stage == "learn-segmenter"

    def test_no_persistence_without_path(self, cluster, fs, clustered_data, config):
        learn_segmenter_job(cluster, fs, clustered_data, config)
        assert fs.ls_recursive("") == []


class TestBuildJob:
    def test_build_writes_full_layout(self, cluster, fs, clustered_data, config):
        manifest, metrics = build_index_job(
            cluster, fs, clustered_data, config, "idx"
        )
        assert manifest.total_vectors == len(clustered_data)
        assert metrics.stage == "hnsw-build"
        assert len(metrics.tasks) == config.total_partitions
        files = fs.ls_recursive("idx")
        assert "idx/metadata.json" in files
        assert len([f for f in files if f.endswith(".npz")]) == 4

    def test_built_index_loads_and_answers(self, cluster, fs, clustered_data, clustered_queries, clustered_truth, config):
        build_index_job(cluster, fs, clustered_data, config, "idx")
        index = load_lanns_index(fs, "idx")
        hits = 0
        for query, truth in zip(clustered_queries[:20], clustered_truth[:20]):
            ids, _ = index.query(query, 10, ef=64)
            hits += len(set(ids.tolist()) & set(truth[:10].tolist()))
        assert hits / 200 >= 0.85

    def test_shared_segmenter_reused(self, cluster, fs, clustered_data, config):
        segmenter = learn_segmenter_job(cluster, fs, clustered_data, config)
        manifest, _ = build_index_job(
            cluster, fs, clustered_data, config, "idx", segmenter=segmenter
        )
        index = load_lanns_index(fs, "idx")
        assert index.segmenter.route_data_batch(clustered_data[:10]) == (
            segmenter.route_data_batch(clustered_data[:10])
        )

    def test_manifest_equals_the_in_memory_export(
        self, cluster, fs, clustered_data, config
    ):
        """Both writers share one metadata function: for the same config,
        data and seed the two manifests agree field for field (the
        cluster build must not drop ``quantize`` again)."""
        quantized = LannsConfig.from_dict(
            {**config.to_dict(), "hnsw": {**FAST_HNSW.to_dict(), "quantize": "int8"}}
        )
        job_manifest, _ = build_index_job(
            cluster, fs, clustered_data, quantized, "job"
        )
        export_manifest = save_lanns_index(
            build_lanns_index(clustered_data, config=quantized), fs, "export"
        )
        assert job_manifest.quantize == "int8"
        assert load_manifest(fs, "job").quantize == "int8"
        assert job_manifest.to_dict() == export_manifest.to_dict()

    def test_mismatched_ids_rejected(self, cluster, fs, clustered_data, config):
        with pytest.raises(ValueError, match="ids has shape"):
            build_index_job(
                cluster, fs, clustered_data, config, "idx", ids=np.arange(5)
            )

    @pytest.mark.parametrize("mode", ["threads", "processes"])
    def test_execution_mode_parity(
        self, fs, clustered_data, config, mode, tmp_path
    ):
        """Every execution mode writes byte-identical segment files."""
        from repro.storage.hdfs import LocalHdfs

        inline_fs = LocalHdfs(tmp_path / "inline")
        inline_cluster = LocalCluster(num_executors=4, fs=inline_fs)
        inline_manifest, _ = build_index_job(
            inline_cluster, inline_fs, clustered_data, config, "idx"
        )
        other_cluster = LocalCluster(num_executors=4, mode=mode, fs=fs)
        other_manifest, _ = build_index_job(
            other_cluster, fs, clustered_data, config, "idx"
        )
        assert other_manifest.checksums == inline_manifest.checksums

    def test_processes_parity_with_failures_and_checkpoint(
        self, clustered_data, config, tmp_path
    ):
        """Identical output under injected executor deaths + checkpointing."""
        from repro.storage.hdfs import LocalHdfs

        manifests = {}
        for mode in ("inline", "processes"):
            mode_fs = LocalHdfs(tmp_path / mode)
            cluster = LocalCluster(
                num_executors=4,
                mode=mode,
                failure_rate=0.3,
                max_rounds=30,
                seed=7,
                fs=mode_fs,
            )
            manifest, metrics = build_index_job(
                cluster,
                mode_fs,
                clustered_data,
                config,
                "idx",
                checkpoint=True,
            )
            manifests[mode] = (manifest, metrics.failures)
        inline_manifest, inline_failures = manifests["inline"]
        procs_manifest, procs_failures = manifests["processes"]
        assert procs_manifest.checksums == inline_manifest.checksums
        assert procs_failures == inline_failures
        assert inline_failures > 0  # the stream actually injected deaths


class TestQueryJob:
    @pytest.fixture()
    def persisted(self, cluster, fs, clustered_data, config):
        build_index_job(cluster, fs, clustered_data, config, "idx")
        return "idx"

    def test_matches_in_memory_index(
        self, cluster, fs, persisted, clustered_data, clustered_queries, config
    ):
        result = query_index_job(
            cluster, fs, persisted, clustered_queries, top_k=10, ef=64,
            checkpoint=False,
        )
        memory_index = build_lanns_index(clustered_data, config=config)
        memory_ids, _ = memory_index.query_batch(clustered_queries, 10, ef=64)
        agreement = (result.ids == memory_ids).mean()
        assert agreement > 0.99

    @pytest.mark.parametrize("sharding", ["hash", "segment"])
    def test_equals_the_loaded_index_bit_for_bit(
        self, cluster, fs, clustered_data, clustered_queries, config, sharding
    ):
        """The job and ``LannsIndex.query_batch`` share one budget rule and
        one merge.  Segment-aligned shards concentrate a query's neighbors,
        so Eq. 5-6 must not shrink the per-shard budget there."""
        layout = config.with_updates(
            num_shards=4, num_segments=4, sharding=sharding
        )
        build_index_job(cluster, fs, clustered_data, layout, "idx")
        result = query_index_job(
            cluster, fs, "idx", clustered_queries, top_k=30, ef=64,
            num_query_partitions=3,
        )
        want_ids, want_dists = load_lanns_index(fs, "idx").query_batch(
            clustered_queries, 30, ef=64
        )
        np.testing.assert_array_equal(result.ids, want_ids)
        np.testing.assert_array_equal(result.dists, want_dists)

    def test_three_stages_recorded(self, cluster, fs, persisted, clustered_queries):
        result = query_index_job(
            cluster, fs, persisted, clustered_queries, top_k=5,
            checkpoint=False,
        )
        assert [m.stage for m in result.stages] == [
            "partial-search",
            "segment-merge",
            "shard-merge",
        ]
        assert result.total_makespan(4) <= result.total_makespan(1) + 1e-9
        assert result.stage("partial-search").tasks

    def test_recall_against_truth(
        self, cluster, fs, persisted, clustered_queries, clustered_truth
    ):
        result = query_index_job(
            cluster, fs, persisted, clustered_queries, top_k=10, ef=64,
            checkpoint=False,
        )
        assert recall_at_k(result.ids, clustered_truth, 10) >= 0.85

    def test_output_persisted(self, cluster, fs, persisted, clustered_queries):
        query_index_job(
            cluster, fs, persisted, clustered_queries[:10], top_k=5,
            checkpoint=False, output_path="results/out.npz",
        )
        assert fs.exists("results/out.npz")

    def test_checkpointing_survives_failures(
        self, fs, persisted, clustered_queries, clustered_truth
    ):
        flaky = LocalCluster(
            num_executors=4,
            failure_rate=0.25,
            max_rounds=40,
            seed=13,
            fs=fs,
        )
        result = query_index_job(
            flaky, fs, persisted, clustered_queries, top_k=10, ef=64,
            checkpoint=True,
        )
        assert recall_at_k(result.ids, clustered_truth, 10) >= 0.85
        # Temp checkpoint paths were cleaned.
        assert fs.ls_recursive("_tmp") == []

    def test_a_tampered_segment_is_refused_like_online(
        self, cluster, fs, persisted, clustered_queries
    ):
        """The job reads segments through the same read + verify + parse
        as ``load_shard``: one flipped byte (here in zip metadata nothing
        parses, so the file still loads) fails the manifest checksum."""
        segment = load_segmenter(fs, persisted).route_query_batch(
            clustered_queries[:1]
        )[0][0]
        relative = f"shard=1/segment={segment}.npz"
        raw = bytearray(fs.read_bytes(f"{persisted}/{relative}"))
        raw[10] ^= 0x01  # the local header's modification time
        fs.write_bytes(f"{persisted}/{relative}", bytes(raw))
        assert len(hnsw_from_bytes(bytes(raw)))  # parses: only the checksum tells
        with pytest.raises(MetadataMismatchError, match=f"checksum.*{relative}"):
            query_index_job(
                cluster, fs, persisted, clustered_queries, top_k=5,
                checkpoint=False,
            )

    def test_invalid_topk(self, cluster, fs, persisted, clustered_queries):
        with pytest.raises(ValueError):
            query_index_job(
                cluster, fs, persisted, clustered_queries, top_k=0
            )

    def test_num_query_partitions_respected(
        self, cluster, fs, persisted, clustered_queries
    ):
        result = query_index_job(
            cluster, fs, persisted, clustered_queries, top_k=5,
            num_query_partitions=5, checkpoint=False,
        )
        merge_tasks = result.stage("shard-merge").tasks
        assert len(merge_tasks) == 5
