"""Shared machinery for the benchmark suite.

Every benchmark regenerates one table or figure of the LANNS paper and
writes it to ``benchmarks/results/<exp>.txt`` (+ ``.json``) through
``benchmarks.harness.report``.  Expensive artifacts (built indices,
query sweeps) are session-scoped fixtures so Tables 1/2/3 (and 4/5/6)
share one SIFT (GIST) sweep.

Scaling: dataset sizes default to the registry's scaled-down sizes
(~10k/4k/8k vectors); set ``REPRO_SCALE`` to grow them.  Absolute times
are *not* comparable to the paper (pure-Python kernels, 2 cores);
DESIGN.md documents why the shapes still are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import pytest

from benchmarks.harness import (
    SegmentedExperiment,
    build_partitioned,
    evaluate_recall,
)
from repro.core.config import LannsConfig
from repro.data.datasets import Dataset, load_dataset
from repro.hnsw.index import build_hnsw
from repro.hnsw.params import HnswParams
from repro.offline.querying import QueryJobResult
from repro.sparklite.cluster import LocalCluster
from repro.storage.hdfs import LocalHdfs

#: HNSW settings shared by all benchmarks (kept modest for 2-core hosts).
BENCH_HNSW = HnswParams(M=12, ef_construction=56, ef_search=64, seed=0)
#: Query beam width used in all recall measurements.
BENCH_EF = 96
#: Recall cutoffs reported by Tables 1 and 4.
RECALL_KS = [1, 5, 10, 15, 50, 100]
#: Executor counts swept by Tables 2/3/5/6.
EXECUTOR_SWEEP = [2, 4, 8]


@dataclass
class Sweep:
    """All artifacts of one dataset's Tables 1-3 style sweep."""

    dataset: Dataset
    hnsw_build_seconds: float
    hnsw_query_seconds_per_query: float
    hnsw_recalls: dict[int, float]
    experiments: dict[str, SegmentedExperiment] = field(default_factory=dict)
    query_results: dict[str, QueryJobResult] = field(default_factory=dict)
    recalls: dict[str, dict[int, float]] = field(default_factory=dict)

    def build_makespan(self, name: str, executors: int) -> float:
        return self.experiments[name].build_metrics.makespan(executors)

    def query_makespan_per_query(self, name: str, executors: int) -> float:
        total = self.query_results[name].total_makespan(executors)
        return total / self.dataset.num_queries


def run_sweep(
    dataset: Dataset,
    partitionings: list[tuple[int, int]],
    tmp_root: Path,
    *,
    top_k: int = 100,
) -> Sweep:
    """Build + query HNSW and every (segmenter, partitioning) combination."""
    import time

    fs = LocalHdfs(tmp_root / f"hdfs-{dataset.name}")
    cluster = LocalCluster(num_executors=4, fs=fs, mode="inline")
    top_k = min(top_k, dataset.num_base)

    # Baseline: single unpartitioned HNSW (the paper's HNSW rows).
    begin = time.perf_counter()
    hnsw = build_hnsw(dataset.base, params=BENCH_HNSW)
    hnsw_build = time.perf_counter() - begin
    begin = time.perf_counter()
    hnsw_ids, _ = hnsw.search_batch(dataset.queries, top_k, ef=BENCH_EF)
    hnsw_query = (time.perf_counter() - begin) / dataset.num_queries
    ks = [k for k in RECALL_KS if k <= top_k]
    hnsw_recalls = evaluate_recall(dataset, hnsw_ids, ks)

    sweep = Sweep(
        dataset=dataset,
        hnsw_build_seconds=hnsw_build,
        hnsw_query_seconds_per_query=hnsw_query,
        hnsw_recalls=hnsw_recalls,
    )
    for segmenter in ("rs", "rh", "apd"):
        for shards, segments in partitionings:
            name = f"{segmenter.upper()}({shards},{segments})"
            config = LannsConfig(
                num_shards=shards,
                num_segments=segments,
                segmenter=segmenter,
                alpha=0.15,
                spill_mode="virtual",
                hnsw=BENCH_HNSW,
                topk_confidence=0.95,
                segmenter_sample_size=min(250_000, dataset.num_base),
                seed=7,
            )
            experiment = build_partitioned(dataset, config, fs, cluster)
            result = experiment.query(top_k, ef=BENCH_EF)
            sweep.experiments[name] = experiment
            sweep.query_results[name] = result
            sweep.recalls[name] = evaluate_recall(dataset, result.ids, ks)
    return sweep


@pytest.fixture(scope="session")
def bench_tmp(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="session")
def sift_dataset() -> Dataset:
    return load_dataset("sift1m")


@pytest.fixture(scope="session")
def gist_dataset() -> Dataset:
    return load_dataset("gist1m")


@pytest.fixture(scope="session")
def sift_sweep(sift_dataset, bench_tmp) -> Sweep:
    """The shared Tables 1-3 sweep: (1,8) and (2,4) partitionings."""
    return run_sweep(sift_dataset, [(1, 8), (2, 4)], bench_tmp)


@pytest.fixture(scope="session")
def gist_sweep(gist_dataset, bench_tmp) -> Sweep:
    """The shared Tables 4-6 sweep: (1,8) partitioning only (paper)."""
    return run_sweep(gist_dataset, [(1, 8)], bench_tmp)
