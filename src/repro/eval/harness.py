"""Shared experiment machinery used by the benchmark suite.

The Table 1-6 experiments all follow the same flow: build a partitioned
index through the offline pipeline (collecting build-stage metrics), run
the query pipeline (collecting query-stage metrics), and score recall
against exact ground truth.  This module wraps that flow once so each
benchmark file only declares its sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import LannsConfig
from repro.core.index import LannsIndex, ShardIndex
from repro.data.datasets import Dataset
from repro.eval.timing import (
    measure_batch_qps,
    measure_concurrent_qps,
    measure_qps,
)
from repro.offline.indexing import build_index_job
from repro.offline.querying import QueryJobResult, query_index_job
from repro.offline.recall import recall_curve
from repro.segmenters.base import Segmenter
from repro.sparklite.cluster import LocalCluster
from repro.sparklite.metrics import StageMetrics
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import IndexManifest, load_lanns_index


@dataclass
class SegmentedExperiment:
    """A built-and-persisted index plus everything needed to query it."""

    dataset: Dataset
    config: LannsConfig
    fs: LocalHdfs
    cluster: LocalCluster
    index_path: str
    manifest: IndexManifest
    build_metrics: StageMetrics

    def load_index(self) -> LannsIndex:
        """Materialise the persisted index in memory."""
        return load_lanns_index(self.fs, self.index_path)

    def query(
        self,
        top_k: int,
        *,
        ef: int | None = None,
        num_query_partitions: int | None = None,
    ) -> QueryJobResult:
        """Run the offline query pipeline over the dataset's query set."""
        return query_index_job(
            self.cluster,
            self.fs,
            self.index_path,
            self.dataset.queries,
            top_k,
            ef=ef,
            num_query_partitions=num_query_partitions,
            checkpoint=False,
        )


def build_partitioned(
    dataset: Dataset,
    config: LannsConfig,
    fs: LocalHdfs,
    cluster: LocalCluster,
    *,
    index_path: str | None = None,
    segmenter: Segmenter | None = None,
) -> SegmentedExperiment:
    """Build one configuration through the offline pipeline."""
    if index_path is None:
        index_path = (
            f"indices/{dataset.name}/{config.segmenter}"
            f"-s{config.num_shards}x{config.num_segments}"
            f"-{config.spill_mode}-a{config.alpha}"
        )
    manifest, build_metrics = build_index_job(
        cluster,
        fs,
        dataset.base,
        config,
        index_path,
        segmenter=segmenter,
    )
    return SegmentedExperiment(
        dataset=dataset,
        config=config,
        fs=fs,
        cluster=cluster,
        index_path=index_path,
        manifest=manifest,
        build_metrics=build_metrics,
    )


def evaluate_recall(
    dataset: Dataset, result_ids: np.ndarray, ks: list[int]
) -> dict[int, float]:
    """Recall of ``result_ids`` against the dataset's exact ground truth."""
    truth = dataset.ground_truth(max(ks))
    return recall_curve(result_ids, truth, ks)


def query_experiment(
    experiment: SegmentedExperiment,
    top_k: int,
    ks: list[int],
    *,
    ef: int | None = None,
) -> tuple[QueryJobResult, dict[int, float]]:
    """Query + score one experiment; returns (job result, recall@k map)."""
    result = experiment.query(top_k, ef=ef)
    recalls = evaluate_recall(experiment.dataset, result.ids, ks)
    return result, recalls


def serving_throughput(
    index: LannsIndex,
    queries: np.ndarray,
    top_k: int,
    *,
    ef: int | None = None,
    batch_size: int = 32,
    collect_ids: bool = False,
) -> dict:
    """Compare sequential single-query QPS to batched QPS on one index.

    Serves the query set twice -- once query-at-a-time through
    :meth:`~repro.core.index.LannsIndex.query` and once in batches of
    ``batch_size`` through
    :meth:`~repro.core.index.LannsIndex.query_batch` -- and reports both
    throughput dicts plus the batched/sequential speedup.  With
    ``collect_ids`` the batched pass's ``(n, top_k)`` result ids are
    returned under ``"ids"`` (e.g. for recall scoring) so callers do not
    need a third serving pass.
    """
    queries = np.asarray(queries, dtype=np.float32)
    if queries.shape[0] == 0:
        raise ValueError("serving_throughput needs at least one query")
    sequential = measure_qps(
        lambda query: index.query(query, top_k, ef=ef), queries
    )
    chunks: list[np.ndarray] = []

    def serve_batch(batch: np.ndarray) -> None:
        ids, _ = index.query_batch(batch, top_k, ef=ef)
        if collect_ids:
            chunks.append(ids)

    batched = measure_batch_qps(serve_batch, queries, batch_size)
    report = {
        "sequential": sequential,
        "batched": batched,
        "speedup": batched["qps"] / sequential["qps"]
        if sequential["qps"] > 0
        else float("inf"),
    }
    if collect_ids:
        report["ids"] = np.concatenate(chunks, axis=0)
    return report


def concurrent_serving_throughput(
    index: LannsIndex,
    queries: np.ndarray,
    top_k: int,
    *,
    ef: int | None = None,
    clients: int = 8,
    max_batch: int = 32,
    max_wait_ms: float = 2.0,
    cache_size: int | None = None,
    check_parity: bool = True,
) -> dict:
    """Load-test the concurrent serving core against a plain broker.

    Fronts ``index`` with two brokers over one shared searcher fleet:

    - *baseline* -- a plain broker (no admission layer, no cache),
      serving the query set one call at a time (``sequential``);
    - *core* -- the micro-batching broker with a result cache, driven by
      ``clients`` closed-loop threads issuing single-query calls
      (``concurrent``), then re-serving the now-cached query set
      (``cached``).

    With ``check_parity`` every concurrent and cached answer is asserted
    bit-identical (ids and distances) to the baseline's sequential
    answer, so the speedups cannot come from wrong results.  Returns the
    three throughput dicts, the ``concurrent_speedup`` and
    ``cache_speedup`` ratios, and the core broker's ``stats()`` snapshot.
    """
    from repro.online.broker import Broker
    from repro.online.searcher import SearcherNode

    queries = np.asarray(queries, dtype=np.float32)
    if queries.shape[0] == 0:
        raise ValueError("concurrent_serving_throughput needs queries")
    num_shards = index.config.num_shards
    searchers = [SearcherNode(shard_id) for shard_id in range(num_shards)]
    for shard_id, searcher in enumerate(searchers):
        searcher.host("bench", index.shards[shard_id])
    if cache_size is None:
        cache_size = 2 * queries.shape[0]
    baseline = Broker(searchers, index.config)
    core = Broker(
        searchers,
        index.config,
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        cache_size=cache_size,
    )
    try:
        expected = [
            baseline.search("bench", query, top_k, ef=ef)
            for query in queries
        ]
        sequential = measure_qps(
            lambda query: baseline.search("bench", query, top_k, ef=ef),
            queries,
        )
        concurrent = measure_concurrent_qps(
            lambda query: core.search("bench", query, top_k, ef=ef),
            queries,
            clients,
        )
        # The concurrent pass filled the cache; this pass is all hits.
        cached = measure_qps(
            lambda query: core.search("bench", query, top_k, ef=ef),
            queries,
        )
        # Snapshot before the parity re-serves below, so the reported
        # hit/miss counters reflect the measured traffic only.
        core_stats = core.stats()
        if check_parity:
            # Explicit raises, not bare asserts: parity is the guarantee
            # behind the reported speedups and must survive ``python -O``.
            def require(ok: bool, what: str, row: int) -> None:
                if not ok:
                    raise AssertionError(
                        f"{what} mismatch vs sequential at query {row}"
                    )

            for row, (want_ids, want_dists) in enumerate(expected):
                got_ids, got_dists = concurrent["results"][row]
                require((got_ids == want_ids).all(), "concurrent id", row)
                require(
                    (got_dists == want_dists).all(),
                    "concurrent distance",
                    row,
                )
                hit_ids, hit_dists = core.search(
                    "bench", queries[row], top_k, ef=ef
                )
                require((hit_ids == want_ids).all(), "cached id", row)
                require(
                    (hit_dists == want_dists).all(), "cached distance", row
                )
    finally:
        baseline.close()
        core.close()
    concurrent = {
        key: value for key, value in concurrent.items() if key != "results"
    }
    return {
        "clients": concurrent["clients"],
        "sequential": sequential,
        "concurrent": concurrent,
        "cached": cached,
        "concurrent_speedup": concurrent["qps"] / sequential["qps"]
        if sequential["qps"] > 0
        else float("inf"),
        "cache_speedup": cached["qps"] / sequential["qps"]
        if sequential["qps"] > 0
        else float("inf"),
        "core_stats": core_stats,
    }


def remote_serving_throughput(
    fs: LocalHdfs,
    index_path: str,
    queries: np.ndarray,
    top_k: int,
    *,
    addresses: list[str],
    ef: int | None = None,
    batch_size: int = 32,
    max_batch: int = 1,
    max_wait_ms: float = 2.0,
    cache_size: int = 0,
    request_timeout_s: float | None = None,
    hedge_after_s: float | str | None = None,
    check_parity: bool = True,
) -> dict:
    """Measure serving through a *remote* searcher fleet vs in-process.

    Deploys the exported index at ``index_path`` twice -- onto an
    in-process fleet and onto the running searcher processes at
    ``addresses`` (real multi-process serving over loopback RPC) -- and
    serves the query set through both, sequentially and in batches of
    ``batch_size``.  With ``check_parity`` every remote answer (ids
    *and* distances) is asserted bit-identical to the in-process one, so
    the reported numbers cannot come from wrong results; the returned
    dict carries both throughput reports plus the remote broker's
    ``stats()`` snapshot (per-stage latency, shard failures, hedges).

    ``hedge_after_s`` turns on hedged shard requests for the remote
    service -- see :class:`~repro.online.broker.Broker`.
    """
    from repro.online.service import OnlineService

    queries = np.asarray(queries, dtype=np.float32)
    if queries.shape[0] == 0:
        raise ValueError("remote_serving_throughput needs queries")
    local = OnlineService()
    remote = OnlineService(
        searchers=addresses,
        hedge_after_s=hedge_after_s,
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        cache_size=cache_size,
        request_timeout_s=request_timeout_s,
    )
    try:
        local.deploy(fs, index_path, index_name="bench")
        remote.deploy(fs, index_path, index_name="bench")
        want_ids, want_dists = local.query_batch(
            queries, top_k, index_name="bench", ef=ef
        )
        local_stats = local.measure_qps(
            queries, top_k, index_name="bench", ef=ef, batch_size=batch_size
        )
        singles: list[tuple[np.ndarray, np.ndarray]] = []

        def serve_single(query: np.ndarray):
            result = remote.query(query, top_k, index_name="bench", ef=ef)
            singles.append(result)
            return result

        remote_sequential = measure_qps(serve_single, queries)
        chunks: list[tuple[np.ndarray, np.ndarray]] = []

        def serve_batch(batch: np.ndarray) -> None:
            chunks.append(
                remote.query_batch(batch, top_k, index_name="bench", ef=ef)
            )

        remote_batched = measure_batch_qps(serve_batch, queries, batch_size)
        got_ids = np.concatenate([ids for ids, _ in chunks], axis=0)
        got_dists = np.concatenate([dists for _, dists in chunks], axis=0)
        if check_parity:
            if not (got_ids == want_ids).all():
                raise AssertionError(
                    "remote ids differ from in-process results"
                )
            if not (got_dists == want_dists).all():
                raise AssertionError(
                    "remote distances differ from in-process results"
                )
            # The sequential pass must also have served right answers
            # (single-query results are the padded rows with the -1
            # sentinels trimmed).
            for row, (one_ids, one_dists) in enumerate(singles):
                valid = want_ids[row] >= 0
                if not (
                    (one_ids == want_ids[row][valid]).all()
                    and (one_dists == want_dists[row][valid]).all()
                ):
                    raise AssertionError(
                        f"remote single-query result differs from the "
                        f"in-process result at query {row}"
                    )
        remote_stats = remote.stats()["indices"]["bench"]
        remote.undeploy("bench")
    finally:
        local.close()
        remote.close()
    return {
        "queries": int(queries.shape[0]),
        "local": local_stats,
        "remote_sequential": remote_sequential,
        "remote_batched": remote_batched,
        "remote_stats": remote_stats,
        "parity_checked": bool(check_parity),
    }


def swap_segmenter(index: LannsIndex, segmenter: Segmenter) -> LannsIndex:
    """Rebind a built index to a segmenter with different spill boundaries.

    Under *virtual* spill, data placement depends only on the split medians
    -- not on the spill boundaries -- so indices built once can be queried
    under several ``alpha`` values by swapping the segmenter.  This is how
    the Table 7 spill sweep reuses builds.

    The new segmenter must have the same segment count; both the new and
    existing configuration must use virtual spill.
    """
    if index.config.spill_mode != "virtual":
        raise ValueError("swap_segmenter requires a virtual-spill index")
    if segmenter.num_segments != index.config.num_segments:
        raise ValueError(
            f"segmenter has {segmenter.num_segments} segments, index has "
            f"{index.config.num_segments}"
        )
    shards = [
        ShardIndex(shard.shard_id, shard.segments, segmenter)
        for shard in index.shards
    ]
    return LannsIndex(index.config, shards, segmenter)
