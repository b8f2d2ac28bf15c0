"""Full-platform integration tests: the paper's workflow end to end.

Flow under test (Figures 5-9): learn a segmenter on a subsample, build a
two-level partitioned index on the cluster, persist it to the filesystem,
query it through the distributed pipeline, validate recall against the
distributed brute-force job, then deploy the same artifact to the online
tier.  (That the query job and online serving answer alike is the
``offline`` venue of ``tests/test_path_matrix.py``.)
"""

import numpy as np
import pytest

from repro.core.config import LannsConfig
from repro.core.merge import merge_shard_results_batch
from repro.hnsw.params import HnswParams
from repro.offline.brute_force import brute_force_job
from repro.offline.indexing import build_index_job
from repro.offline.learn import learn_segmenter_job
from repro.offline.querying import query_index_job
from repro.offline.recall import recall_at_k
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from repro.sparklite.cluster import LocalCluster
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import load_lanns_index
from tests.conftest import make_clustered


@pytest.fixture(scope="module", params=["rs", "rh", "apd"])
def platform(request, tmp_path_factory):
    """One full offline platform run per segmenter kind."""
    segmenter_kind = request.param
    data = make_clustered(700, 24, num_clusters=10, seed=21)
    rng = np.random.default_rng(22)
    rows = rng.integers(0, 700, size=60)
    queries = (
        data[rows] + rng.normal(scale=0.15, size=(60, 24))
    ).astype(np.float32)

    fs = LocalHdfs(tmp_path_factory.mktemp(f"hdfs-{segmenter_kind}"))
    cluster = LocalCluster(num_executors=4, fs=fs)
    config = LannsConfig(
        num_shards=2,
        num_segments=4,
        segmenter=segmenter_kind,
        alpha=0.15,
        hnsw=HnswParams(M=8, ef_construction=48, ef_search=48),
        segmenter_sample_size=700,
        seed=9,
    )
    segmenter = learn_segmenter_job(cluster, data, config)
    manifest, build_metrics = build_index_job(
        cluster, fs, data, config, "indices/main", segmenter=segmenter
    )
    offline = query_index_job(
        cluster, fs, "indices/main", queries, top_k=10, ef=64,
        checkpoint=True,
    )
    truth_ids, _ = brute_force_job(cluster, data, queries, 10)
    return {
        "kind": segmenter_kind,
        "data": data,
        "queries": queries,
        "fs": fs,
        "cluster": cluster,
        "config": config,
        "manifest": manifest,
        "build_metrics": build_metrics,
        "offline": offline,
        "truth": truth_ids,
    }


class TestOfflinePlatform:
    def test_recall_meets_paper_expectations(self, platform):
        """RS and APD keep recall near HNSW levels; RH drops but stays
        useful (Table 1 shape)."""
        recall = recall_at_k(platform["offline"].ids, platform["truth"], 10)
        floor = 0.60 if platform["kind"] == "rh" else 0.88
        assert recall >= floor, (
            f"{platform['kind']}: recall@10={recall:.3f} below {floor}"
        )

    def test_index_accounts_for_every_vector(self, platform):
        assert platform["manifest"].total_vectors == len(platform["data"])

    def test_build_parallelism_was_used(self, platform):
        metrics = platform["build_metrics"]
        assert len(metrics.tasks) == platform["config"].total_partitions
        # Simulated scaling: 8 executors at least as fast as 1.
        assert metrics.makespan(8) <= metrics.makespan(1) + 1e-9

    def test_temp_paths_cleaned(self, platform):
        assert platform["fs"].ls_recursive("_tmp") == []


class TestOnlineServing:
    def test_online_recall(self, platform):
        service = OnlineService()
        service.deploy(platform["fs"], "indices/main")
        ids = np.concatenate([
            service.execute(SearchRequest(query, 10, ef=64)).ids
            for query in platform["queries"][:20]
        ])
        recall = recall_at_k(ids, platform["truth"][:20], 10)
        floor = 0.60 if platform["kind"] == "rh" else 0.88
        assert recall >= floor


class TestPerShardTopKEffect:
    def test_budget_saves_work_without_hurting_recall_much(self, platform):
        """perShardTopK fetches ~cI*topK per shard instead of topK; the
        merged recall must stay within a point of the full fetch, which
        asks each shard of the same export for topK as the ablation bench
        does (Section 5.3.2)."""
        assert platform["config"].per_shard_budget(10) < 10
        index = load_lanns_index(platform["fs"], "indices/main")
        queries = platform["queries"]
        full, _ = merge_shard_results_batch(
            [shard.search_batch(queries, 10, ef=64) for shard in index.shards], 10
        )
        recall_budgeted = recall_at_k(platform["offline"].ids, platform["truth"], 10)
        assert recall_budgeted >= recall_at_k(full, platform["truth"], 10) - 0.02
