"""People Search: the full offline platform on a sharded deployment.

Reproduces the paper's offline flow (Figures 5-8) for a People-Search-like
workload: 50-d member embeddings, sharded across "server nodes", with
the segmenter learnt once and shared, partial results checkpointed to
HDFS, and recall validated against the distributed brute-force job.

Run:
    python examples/offline_pipeline_people_search.py
"""

import tempfile

from repro import LannsConfig, HnswParams
from repro.data import make_queries, people_like
from repro.offline import (
    brute_force_job,
    build_index_job,
    learn_segmenter_job,
    query_index_job,
    recall_at_k,
)
from repro.sparklite import LocalCluster
from repro.storage import LocalHdfs


def main() -> None:
    print("People Search offline pipeline (Figures 5-8)")
    print("=" * 60)
    base = people_like(12_000, seed=3)
    queries = make_queries(base, 150, seed=4)

    with tempfile.TemporaryDirectory() as root:
        fs = LocalHdfs(root)
        # A flaky 8-executor cluster: 5% of task attempts kill their
        # executor, exactly the environment Section 5.3.1 describes.
        cluster = LocalCluster(
            num_executors=8, fs=fs, failure_rate=0.05, max_rounds=30, seed=1
        )
        config = LannsConfig(
            num_shards=4,
            num_segments=2,
            segmenter="apd",
            alpha=0.2,
            hnsw=HnswParams(M=12, ef_construction=64),
            segmenter_sample_size=10_000,
            seed=11,
        )

        # Figure 5: learn the segmenter once, share it across shards.
        segmenter = learn_segmenter_job(cluster, base, config)
        print(f"learnt segmenter: {segmenter!r}")

        # Figure 6: distributed two-level index build.
        manifest, build_metrics = build_index_job(
            cluster,
            fs,
            base,
            config,
            "indices/people",
            segmenter=segmenter,
            checkpoint=True,
        )
        print(
            f"built {manifest.total_vectors} vectors into "
            f"{config.num_shards}x{config.num_segments} partitions; "
            f"executor failures absorbed: {build_metrics.failures}"
        )
        for executors in (2, 4, 8):
            print(
                f"  simulated build makespan @ {executors} executors: "
                f"{build_metrics.makespan(executors):6.2f}s"
            )

        # Figure 7: distributed querying with two-level merging and
        # checkpointed partial results.
        result = query_index_job(
            cluster, fs, "indices/people", queries, top_k=50, ef=96,
            checkpoint=True,
        )
        print("\nquery stages:")
        for stage in result.stages:
            print(f"  {stage!r}")

        # Figure 8: distributed exact search for ground truth.
        truth_ids, _ = brute_force_job(cluster, base, queries, 50)
        recall = recall_at_k(result.ids, truth_ids, 50)
        print(f"\nrecall@50 vs distributed brute force: {recall:.4f}")
        assert recall >= 0.9

        leftovers = fs.ls_recursive("_tmp")
        print(f"temp checkpoint files left behind: {len(leftovers)}")
        assert leftovers == []


if __name__ == "__main__":
    main()
