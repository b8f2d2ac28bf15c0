"""Table 8: build and query wall times on the real-world-like datasets.

Paper (wall times on LinkedIn's cluster):

    Dataset   S   dim   Size  Build    QuerySize  Query
    PYMK      20  50    100M  8h       370M       10h
    People    32  50    180M  8h40m    20k        10m
    NearDupe  1   2048  148k  1h20m    500k       5m
    Groups    1   256   2.7M  2h13m    20k        7m

We run the same four pipelines end to end on the scaled synthetic
equivalents (shard counts scaled with dataset size) and report measured
work plus the simulated 8-executor makespan.  Absolute numbers are not
comparable (pure Python, 2 cores, ~1000x smaller data); what must hold
is that the pipelines complete, times scale with dataset volume, and
PYMK/People (sharded, 50-d) build faster per vector than NearDupe
(2048-d).
"""

import pytest

from repro.core.config import LannsConfig
from repro.data.datasets import load_dataset
from repro.sparklite.cluster import LocalCluster
from repro.storage.hdfs import LocalHdfs

from benchmarks.conftest import BENCH_EF, BENCH_HNSW
from benchmarks.harness import build_partitioned, report

#: dataset -> (num_shards, num_segments, segmenter, alpha, top_k)
#: Shard counts are the paper's scaled down ~5x; NearDupe is "HNSW with
#: distributed querying" (1 shard, 1 segment) per the paper.  The 50-d
#: member-embedding deployments use a wider spill (alpha=0.25): at our
#: reduced per-partition sizes the boundary region holds a larger share
#: of each query's top-100, and the paper's production recall target
#: (>=95%) needs the extra fan-out.
DEPLOYMENTS = {
    "pymk": (4, 2, "apd", 0.25, 100),
    "people": (6, 2, "apd", 0.25, 50),
    "neardupe": (1, 1, "rs", 0.15, 100),
    "groups": (1, 4, "apd", 0.15, 100),
}

PAPER_ROWS = {
    "pymk": "paper: S=20 d=50 100M build 8h, 370M queries 10h",
    "people": "paper: S=32 d=50 180M build 8h40m, 20k queries 10m",
    "neardupe": "paper: S=1 d=2048 148k build 1h20m, 500k queries 5m",
    "groups": "paper: S=1 d=256 2.7M build 2h13m, 20k queries 7m",
}


@pytest.fixture(scope="session")
def realworld_runs(bench_tmp):
    """Build + query each real-world-like dataset once (shared with T9)."""
    runs = {}
    for name, deployment in DEPLOYMENTS.items():
        shards, segments, segmenter, alpha, top_k = deployment
        dataset = load_dataset(name)
        fs = LocalHdfs(bench_tmp / f"hdfs-rw-{name}")
        cluster = LocalCluster(num_executors=4, fs=fs)
        config = LannsConfig(
            num_shards=shards,
            num_segments=segments,
            segmenter=segmenter,
            alpha=alpha,
            hnsw=BENCH_HNSW,
            segmenter_sample_size=dataset.num_base,
            seed=17,
        )
        experiment = build_partitioned(dataset, config, fs, cluster)
        # Keep topK a small fraction of the corpus, as in production
        # (paper: k=100 of 100M+).  At reduced REPRO_SCALE this clamps k
        # so recall is not dominated by k/n artifacts.
        top_k = min(top_k, max(10, dataset.num_base // 80))
        result = experiment.query(top_k, ef=max(BENCH_EF, 128))
        runs[name] = {
            "dataset": dataset,
            "config": config,
            "experiment": experiment,
            "result": result,
            "top_k": top_k,
        }
    return runs


def test_table8_build_and_query_times(benchmark, realworld_runs):
    def collect_rows():
        rows = []
        for name, run in realworld_runs.items():
            dataset = run["dataset"]
            config = run["config"]
            build = run["experiment"].build_metrics
            rows.append(
                {
                    "Dataset": name,
                    "S": config.num_shards,
                    "dim": dataset.dim,
                    "Size": dataset.num_base,
                    "Build s (8 exec)": build.makespan(8),
                    "Build work s": build.total_task_time,
                    "QuerySize": dataset.num_queries,
                    "Query s (8 exec)": run["result"].total_makespan(8),
                }
            )
        return rows

    rows = benchmark.pedantic(collect_rows, rounds=1, iterations=1)
    report(
        "table8_realworld_times",
        rows,
        title="Table 8 -- Build and query times, real-world-like datasets",
        notes="\n".join(PAPER_ROWS[row["Dataset"]] for row in rows),
    )
    benchmark.extra_info["rows"] = rows

    by_name = {row["Dataset"]: row for row in rows}
    # Every pipeline completed and recorded real work.
    for row in rows:
        assert row["Build s (8 exec)"] > 0
        assert row["Query s (8 exec)"] > 0
    # 2048-d NearDupe costs more build time per vector than 50-d People.
    neardupe_per_vec = (
        by_name["neardupe"]["Build work s"] / by_name["neardupe"]["Size"]
    )
    people_per_vec = (
        by_name["people"]["Build work s"] / by_name["people"]["Size"]
    )
    assert neardupe_per_vec > people_per_vec
