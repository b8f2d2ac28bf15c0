"""Tests for the offline jobs: learn (Fig 5), index (Fig 6), query (Fig 7)."""

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.errors import MetadataMismatchError
from repro.offline.indexing import build_index_job
from repro.offline.learn import learn_segmenter_job
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
from tests.conftest import FAST_HNSW, member_table, restamped


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
    def test_learns_as_a_cluster_stage(self, cluster, clustered_data, config):
        segmenter = learn_segmenter_job(cluster, clustered_data, config)
        assert segmenter.is_fitted
        assert cluster.stages[-1].stage == "learn-segmenter"


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
        assert len([f for f in files if f.endswith(".hnsw")]) == 4

    def test_built_index_loads_and_answers(self, cluster, fs, clustered_data, clustered_queries, clustered_truth, config):
        build_index_job(cluster, fs, clustered_data, config, "idx")
        index = load_lanns_index(fs, "idx")
        hits = 0
        for query, truth in zip(clustered_queries[:20], clustered_truth[:20]):
            ids, _ = index.query(query, 10, ef=64)
            hits += len(set(ids.tolist()) & set(truth[:10].tolist()))
        assert hits / 200 >= 0.85

    def test_shared_segmenter_reused(self, cluster, fs, clustered_data, config):
        segmenter = learn_segmenter_job(cluster, clustered_data, config)
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
        assert load_manifest(fs, "job").lanns_config.hnsw.quantize == "int8"
        assert job_manifest.to_dict() == export_manifest.to_dict()

    def test_mismatched_ids_rejected(self, cluster, fs, clustered_data, config):
        with pytest.raises(ValueError, match="ids has shape"):
            build_index_job(
                cluster, fs, clustered_data, config, "idx", ids=np.arange(5)
            )

    def test_execution_mode_parity(self, fs, clustered_data, config, tmp_path):
        """Both execution modes write byte-identical segment files."""
        from repro.storage.hdfs import LocalHdfs

        inline_fs = LocalHdfs(tmp_path / "inline")
        inline_cluster = LocalCluster(num_executors=4, fs=inline_fs)
        inline_manifest, _ = build_index_job(
            inline_cluster, inline_fs, clustered_data, config, "idx"
        )
        other_cluster = LocalCluster(num_executors=4, mode="processes", fs=fs)
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
        as ``load_shard``: one flipped body byte under a re-stamped CRC
        (so the file still loads) fails the manifest checksum."""
        segment = load_segmenter(fs, persisted).route_query_batch(
            clustered_queries[:1]
        )[0][0]
        relative = f"shard=1/segment={segment}.hnsw"
        raw = bytearray(fs.read_bytes(f"{persisted}/{relative}"))
        position = 16 + int.from_bytes(raw[12:16], "little")
        for entry in member_table(bytes(raw)):
            if entry["name"] == "vectors":
                break
            position += sum(length for length, _ in entry["planes"])
        raw[position] ^= 0x01  # the low byte of a coordinate: a raw plane
        raw = restamped(bytes(raw))
        fs.write_bytes(f"{persisted}/{relative}", raw)
        assert len(hnsw_from_bytes(raw))  # parses: only the checksum tells
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
