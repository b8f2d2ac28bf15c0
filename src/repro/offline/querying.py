"""Distributed querying with two-level merging (Section 5.3, Figure 7).

Pipeline stages (each a cluster stage with its own metrics):

1. ``partial-search`` -- one task per (query-partition, shard, segment)
   triple that the segmenter routes at least one query to.  Each task
   loads "its" segment index (executor-cached) and searches its queries
   with the shard-level ``perShardTopK`` budget.  Partial results are
   checkpointed to a temporary filesystem path, which is the paper's
   defence against cascading executor time-outs (Section 5.3.1).
2. ``segment-merge`` -- one task per (query-partition, shard): merge the
   segment candidates into shard results (the merge that happens inside a
   server node in the online system).
3. ``shard-merge`` -- one task per query-partition: merge shard results
   into the final topK (the broker-side merge).

The temporary checkpoint path is cleaned as soon as the final merge
finishes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.merge import (
    empty_part,
    merge_segment_results_batch,
    merge_shard_results_batch,
)
from repro.sparklite.cluster import LocalCluster
from repro.sparklite.metrics import StageMetrics
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import load_manifest, load_segmenter, read_segment
from repro.utils.validation import as_matrix


@dataclass
class QueryJobResult:
    """Output of :func:`query_index_job`.

    Attributes
    ----------
    ids, dists:
        ``(num_queries, top_k)`` arrays (padded with -1 / inf).
    stages:
        Metrics of the three pipeline stages, in execution order; the
        total simulated makespan of these is what Tables 3 and 6 report.
    """

    ids: np.ndarray
    dists: np.ndarray
    stages: list[StageMetrics]

    def stage(self, name: str) -> StageMetrics:
        """Metrics of the named stage."""
        for metrics in self.stages:
            if metrics.stage == name:
                return metrics
        raise KeyError(f"no stage named {name!r}")

    def total_makespan(self, num_executors: int) -> float:
        """Simulated end-to-end time on ``num_executors`` executors."""
        return sum(
            metrics.makespan(num_executors) for metrics in self.stages
        )


def query_index_job(
    cluster: LocalCluster,
    fs: LocalHdfs,
    index_path: str,
    queries: np.ndarray,
    top_k: int,
    *,
    ef: int | None = None,
    num_query_partitions: int | None = None,
    checkpoint: bool = True,
    output_path: str | None = None,
) -> QueryJobResult:
    """Run a (large) query set against a persisted index (Figure 7).

    Parameters
    ----------
    queries:
        Query matrix; row index is the query id.
    top_k:
        Global neighbor count; each shard is only asked for the
        ``perShardTopK`` budget (Eq. 5-6).
    checkpoint:
        Persist partial results to a temp path (Section 5.3.1).  Keep on
        when ``cluster.failure_rate > 0`` or stages may time out.
    output_path:
        Optional final-results destination (one npz with ids/dists).
    """
    if top_k <= 0:
        raise ValueError(f"top_k must be positive, got {top_k}")
    manifest = load_manifest(fs, index_path)
    config = manifest.lanns_config
    segmenter = load_segmenter(fs, index_path, manifest)
    queries = as_matrix(queries, dim=manifest.dim, name="queries")
    num_queries = queries.shape[0]
    if num_query_partitions is None:
        num_query_partitions = cluster.num_executors
    query_parts = [
        part
        for part in np.array_split(np.arange(num_queries), num_query_partitions)
        if part.size
    ]

    budget = config.per_shard_budget(top_k)

    # Driver-side routing: which segments does each query probe?
    routes = segmenter.route_query_batch(queries)

    # "The respective HNSW Indices and query partitions are loaded inside
    # the executor": each (shard, segment) is read -- checksum-verified,
    # like a searcher node's -- once and kept across the task queue.
    @functools.cache
    def load_segment(shard: int, segment: int):
        return read_segment(fs, index_path, manifest, shard, segment)

    stages: list[StageMetrics] = []

    # -- stage 1: partial search ------------------------------------------------
    contexts: list[tuple[int, int, int, np.ndarray]] = []
    for part_index, part_rows in enumerate(query_parts):
        for shard in range(config.num_shards):
            segment_rows: dict[int, list[int]] = {}
            for row in part_rows.tolist():
                for segment in routes[row]:
                    segment_rows.setdefault(segment, []).append(row)
            for segment, rows in sorted(segment_rows.items()):
                contexts.append(
                    (part_index, shard, segment, np.asarray(rows, dtype=np.int64))
                )

    def make_search_task(context):
        part_index, shard, segment, rows = context

        def task():
            index = load_segment(shard, segment)
            if len(index) == 0:
                return (part_index, shard, rows, None, None)
            k = min(budget, len(index))
            ids, dists = index.search_batch(queries[rows], k, ef=ef)
            return (part_index, shard, rows, ids, dists)

        return task

    outcome = cluster.run_tasks(
        [make_search_task(context) for context in contexts],
        stage="partial-search",
        checkpoint=checkpoint,
    )
    stages.append(outcome.metrics)

    # -- stage 2: segment-level merge per (query partition, shard) ----------------
    # A partition's rows are one contiguous run of query ids, so a global
    # row's place in its partition's blocks is its offset from the first.
    by_part_shard: dict[tuple[int, int], list] = {}
    for part_index, shard, rows, ids, dists in outcome.results:
        if ids is None:
            continue
        by_part_shard.setdefault((part_index, shard), []).append(
            (rows - query_parts[part_index][0], ids, dists)
        )

    def make_segment_merge_task(key):
        partials = by_part_shard[key]
        num_rows = query_parts[key[0]].size

        def task():
            # One column block per searched segment; rows the segment was
            # not probed for keep the canvas padding.
            cand_ids, cand_dists = empty_part(num_rows, len(partials) * budget)
            for slot, (local_rows, ids, dists) in enumerate(partials):
                columns = slice(slot * budget, slot * budget + ids.shape[1])
                cand_ids[local_rows, columns] = ids
                cand_dists[local_rows, columns] = dists
            return key, merge_segment_results_batch(cand_ids, cand_dists, budget)

        return task

    outcome = cluster.run_tasks(
        [make_segment_merge_task(key) for key in sorted(by_part_shard)],
        stage="segment-merge",
        checkpoint=checkpoint,
    )
    stages.append(outcome.metrics)

    # -- stage 3: shard-level merge per query partition ----------------------------
    by_part: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for (part_index, _shard), block in outcome.results:
        by_part.setdefault(part_index, []).append(block)

    def make_shard_merge_task(part_index):
        # No block at all: every segment the partition probed was empty.
        blocks = by_part.get(part_index) or [
            empty_part(query_parts[part_index].size, top_k)
        ]

        def task():
            return merge_shard_results_batch(blocks, top_k)

        return task

    outcome = cluster.run_tasks(
        [make_shard_merge_task(part_index) for part_index in range(len(query_parts))],
        stage="shard-merge",
        checkpoint=checkpoint,
    )
    stages.append(outcome.metrics)

    # -- assemble ---------------------------------------------------------------------
    ids, dists = empty_part(num_queries, top_k)
    for part_rows, (part_ids, part_dists) in zip(query_parts, outcome.results):
        ids[part_rows] = part_ids
        dists[part_rows] = part_dists
    if output_path is not None:
        import io

        buffer = io.BytesIO()
        np.savez_compressed(buffer, ids=ids, dists=dists)
        fs.write_bytes(output_path, buffer.getvalue())
    return QueryJobResult(ids=ids, dists=dists, stages=stages)
