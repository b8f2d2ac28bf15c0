"""Distributed brute-force search (Section 5.4, Figure 8).

Used for ground truth on datasets too large for a single in-memory exact
scan: the *dataset* is partitioned over executors, every executor scores
the whole query set against its slice, and partial top-k lists are merged
per query on the driver side -- "we once again load these partial results
and repartition based on the query Id and merge results within
executors".
"""

from __future__ import annotations

import numpy as np

from repro.core.merge import merge_shard_results_batch
from repro.distance.metrics import Metric, get_metric
from repro.hnsw.search import smallest_k
from repro.sparklite.cluster import LocalCluster
from repro.utils.validation import as_matrix


def exact_top_k(
    data: np.ndarray,
    queries: np.ndarray,
    k: int,
    *,
    metric: str = "euclidean",
    block_size: int = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-NN by blocked full scan (single process).

    Tiles the query axis and blocks the data axis.  Per ``tile x block``
    of distances, the metric's GEMM and the block's selection hold a few
    arrays of that shape in the distances' dtype (float32 for float32
    inputs) plus one of booleans; what is merged is ``(tile, 2 k)``.  So
    memory stays a small multiple of ``block_size ** 2 * 4`` bytes
    whatever the number of queries (``tests/test_offline_brute_force.py``
    pins the peak under five times that).  The query
    tiles are balanced (``ceil(queries / block_size)`` near-equal parts):
    a BLAS may round a GEMM of one to three rows differently from the
    same rows inside a larger one, and no tile is such a tail.

    Returns
    -------
    (ids, dists): ``(num_queries, k)`` arrays, ascending by distance.
    """
    data = as_matrix(data, name="data")
    queries = as_matrix(queries, dim=data.shape[1], name="queries")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    k = min(k, data.shape[0])
    metric_obj = get_metric(metric)
    tiles = np.array_split(queries, max(-(-queries.shape[0] // block_size), 1))
    ids, dists = zip(*(_scan(data, tile, k, metric_obj, block_size) for tile in tiles))
    return np.concatenate(ids), np.concatenate(dists)


def _scan(
    data: np.ndarray, queries: np.ndarray, k: int, metric_obj: Metric, block_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`exact_top_k` of one query tile, one data block at a time.

    Each block's ``k`` smallest are selected in the block's own dtype and
    only they are cast to float64 (exact, so order-preserving); merging
    them after the running best breaks every distance tie toward the
    lower id, as one stable sort of all columns so far would.
    """
    num_queries = queries.shape[0]
    best_dists = np.full((num_queries, k), np.inf, dtype=np.float64)
    best_ids = np.full((num_queries, k), -1, dtype=np.int64)
    for start in range(0, data.shape[0], block_size):
        dists = metric_obj.pairwise(queries, data[start : start + block_size])
        columns = smallest_k(dists, k)
        # best_dists is float64, so the concatenation casts the survivors.
        merged_dists = np.concatenate(
            [best_dists, np.take_along_axis(dists, columns, axis=1)], axis=1
        )
        del dists  # before the next block's GEMM, not beside it
        merged_ids = np.concatenate([best_ids, columns + start], axis=1)
        order = smallest_k(merged_dists, k)
        best_dists = np.take_along_axis(merged_dists, order, axis=1)
        best_ids = np.take_along_axis(merged_ids, order, axis=1)
    return best_ids, best_dists


def brute_force_job(
    cluster: LocalCluster,
    data: np.ndarray,
    queries: np.ndarray,
    k: int,
    *,
    metric: str = "euclidean",
    ids: np.ndarray | None = None,
    num_partitions: int | None = None,
    checkpoint: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-NN with the data partitioned across executors (Figure 8).

    Parameters
    ----------
    ids:
        Optional external ids of ``data`` rows (default 0..n-1).

    Returns
    -------
    (ids, dists): ``(num_queries, k)`` arrays, ascending by distance.
    """
    data = as_matrix(data, name="data")
    queries = as_matrix(queries, dim=data.shape[1], name="queries")
    if ids is None:
        ids = np.arange(data.shape[0], dtype=np.int64)
    else:
        ids = np.asarray(ids, dtype=np.int64)
    if num_partitions is None:
        num_partitions = cluster.num_executors
    k = min(k, data.shape[0])
    row_parts = [
        part
        for part in np.array_split(np.arange(data.shape[0]), num_partitions)
        if part.size
    ]

    def make_task(rows: np.ndarray):
        def task():
            part_ids, part_dists = exact_top_k(
                data[rows], queries, k, metric=metric
            )
            # Map partition-local row numbers back to external ids.
            local_ids = ids[rows]
            mapped = np.where(part_ids >= 0, local_ids[part_ids], -1)
            return mapped, part_dists

        return task

    outcome = cluster.run_tasks(
        [make_task(rows) for rows in row_parts],
        stage="brute-force",
        checkpoint=checkpoint,
    )

    def make_merge_task(query_rows: np.ndarray):
        def task():
            return query_rows, merge_shard_results_batch(
                [
                    (part_ids[query_rows], part_dists[query_rows])
                    for part_ids, part_dists in outcome.results
                ],
                k,
            )

        return task

    query_parts = [
        part
        for part in np.array_split(
            np.arange(queries.shape[0]), cluster.num_executors
        )
        if part.size
    ]
    merge_outcome = cluster.run_tasks(
        [make_merge_task(rows) for rows in query_parts],
        stage="brute-force-merge",
        checkpoint=checkpoint,
    )
    final_ids = np.full((queries.shape[0], k), -1, dtype=np.int64)
    final_dists = np.full((queries.shape[0], k), np.inf)
    for query_rows, (merged_ids, merged_dists) in merge_outcome.results:
        final_ids[query_rows] = merged_ids
        final_dists[query_rows] = merged_dists
    return final_ids, final_dists
