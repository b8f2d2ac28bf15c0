"""HNSW search primitives: greedy descent and beam search.

These free functions implement ``SEARCH-LAYER`` (Algorithm 2 of Malkov &
Yashunin) and the greedy single-entry descent used on the upper layers.
Both the build path and the query path share them.

Distances are in the scorer's *reduced* space throughout (see
:mod:`repro.distance.scorer`).
"""

from __future__ import annotations

import heapq
from typing import Protocol

import numpy as np

from repro.distance.scorer import Scorer
from repro.hnsw.graph import HnswGraph, VisitedTable

_IDS_DTYPE = np.int64


def greedy_descent(
    graph: HnswGraph,
    scorer: Scorer,
    query: np.ndarray,
    entry_point: int,
    entry_dist: float,
    level: int,
    query_sq: float | None = None,
) -> tuple[int, float]:
    """Greedily walk to the local minimum of ``query`` at ``level``.

    Equivalent to ``SEARCH-LAYER`` with ``ef=1`` but cheaper: it keeps a
    single current node and moves to any strictly closer neighbor.
    ``query_sq`` optionally carries the precomputed squared query norm so
    the caller hoists it out of the descent loop.

    Returns
    -------
    (node, reduced_distance) of the local minimum reached.
    """
    current, current_dist = entry_point, entry_dist
    while True:
        neighbors = graph.neighbors(current, level)
        if not neighbors:
            return current, current_dist
        ids = np.asarray(neighbors, dtype=_IDS_DTYPE)
        dists = scorer.score_ids(query, ids, query_sq)
        best = int(np.argmin(dists))
        best_dist = float(dists[best])
        if best_dist >= current_dist:
            return current, current_dist
        current, current_dist = neighbors[best], best_dist


def search_layer(
    graph: HnswGraph,
    scorer: Scorer,
    query: np.ndarray,
    entry_points: list[tuple[float, int]],
    ef: int,
    level: int,
    visited: VisitedTable,
    query_sq: float | None = None,
) -> list[tuple[float, int]]:
    """Beam search at one layer (``SEARCH-LAYER``, Algorithm 2).

    Parameters
    ----------
    entry_points:
        ``(reduced_distance, node)`` seeds; all are marked visited.
    ef:
        Beam width: the size of the dynamic result list.
    query_sq:
        Optional precomputed squared query norm, hoisted out of the
        per-round :meth:`Scorer.score_ids` calls.

    Returns
    -------
    Up to ``ef`` ``(reduced_distance, node)`` pairs sorted ascending.
    """
    # candidates: min-heap of frontier nodes; results: max-heap (negated)
    # of the best `ef` found so far.
    candidates: list[tuple[float, int]] = []
    results: list[tuple[float, int]] = []
    tags, epoch = visited.tags, visited.epoch  # direct access: hot loop
    for dist, node in entry_points:
        tags[node] = epoch
        candidates.append((dist, node))
        results.append((-dist, node))
    heapq.heapify(candidates)
    heapq.heapify(results)

    while candidates:
        dist, node = heapq.heappop(candidates)
        if dist > -results[0][0] and len(results) >= ef:
            break  # frontier is strictly worse than the full beam
        fresh = [
            neighbor
            for neighbor in graph.neighbors(node, level)
            if tags[neighbor] != epoch
        ]
        if not fresh:
            continue
        for neighbor in fresh:
            tags[neighbor] = epoch
        dists = scorer.score_ids(
            query, np.asarray(fresh, dtype=_IDS_DTYPE), query_sq
        )
        worst = -results[0][0]
        full = len(results) >= ef
        for neighbor_dist, neighbor in zip(dists.tolist(), fresh):
            if not full:
                heapq.heappush(results, (-neighbor_dist, neighbor))
                heapq.heappush(candidates, (neighbor_dist, neighbor))
                full = len(results) >= ef
                worst = -results[0][0]
            elif neighbor_dist < worst:
                heapq.heapreplace(results, (-neighbor_dist, neighbor))
                heapq.heappush(candidates, (neighbor_dist, neighbor))
                worst = -results[0][0]
    return sorted((-neg_dist, node) for neg_dist, node in results)


def descend_to_level(
    graph: HnswGraph,
    scorer: Scorer,
    query: np.ndarray,
    target_level: int,
    query_sq: float | None = None,
) -> tuple[int, float]:
    """Greedy-descend from the global entry point down to ``target_level + 1``.

    Returns the entry ``(node, reduced_distance)`` to use at
    ``target_level``.  The graph must be non-empty.
    """
    entry = graph.entry_point
    entry_dist = float(
        scorer.score_ids(
            query, np.asarray([entry], dtype=_IDS_DTYPE), query_sq
        )[0]
    )
    for level in range(graph.max_level, target_level, -1):
        entry, entry_dist = greedy_descent(
            graph, scorer, query, entry, entry_dist, level, query_sq
        )
    return entry, entry_dist


# -- lockstep batch kernels ----------------------------------------------------------
#
# The batched query path runs B independent searches "in lockstep": each
# round, every still-active query contributes the candidate ids it needs
# scored, the flat union is scored in ONE vectorised Scorer.score_pairs
# call, and the per-query heap logic then consumes its slice.  Each
# query's control flow (pop order, visited set, termination) is exactly
# the single-query algorithm -- only the distance evaluations are pooled
# -- and score_pairs is batch-composition-invariant, so a batch of one is
# bit-identical to any larger batch.


class PairScorer(Protocol):
    """The scorer seam of the lockstep kernels: one flat scoring call.

    Satisfied by the float :class:`~repro.distance.scorer.Scorer` and by
    the per-batch compressed-code views
    :meth:`QuantizedStore.view <repro.distance.scorer.QuantizedStore.view>`
    returns; the kernels below ask nothing else of whoever scores, so a
    new scoring tier plugs in by implementing this one method with
    :meth:`Scorer.score_pairs`'s batch-composition invariance.
    """

    def score_pairs(
        self,
        queries: np.ndarray,
        query_rows: np.ndarray,
        ids: np.ndarray,
        query_sq: np.ndarray | None = None,
    ) -> np.ndarray: ...


def descend_to_levels_batch(
    graph: HnswGraph,
    scorer: PairScorer,
    queries: np.ndarray,
    target_levels: list[int],
    query_sq: np.ndarray | None = None,
    cost=None,
) -> tuple[list[int], list[float]]:
    """Batched greedy descent with a *per-query* target level.

    Query ``i`` of the *prepared* ``(B, d)`` batch walks from the global
    entry point down through layers ``max_level .. target_levels[i] + 1``
    and settles where :func:`descend_to_level` would; the result is the
    per-query entry nodes and reduced entry distances.  The construction
    wave needs the per-query targets: each new row stops descending at
    its own drawn level, yet all rows of a wave share every round's
    scoring call (the query path passes all zeros).  The graph must be
    non-empty.

    ``cost`` is an optional :class:`~repro.obs.cost.SearchCost`: when
    given, each round adds the queries that moved to ``hops`` -- one
    bounded increment per round, so ``cost=None`` leaves the hot path
    untouched.
    """
    num_queries = queries.shape[0]
    entry = graph.entry_point
    entry_dists = scorer.score_pairs(
        queries,
        np.arange(num_queries),
        np.full(num_queries, entry, dtype=_IDS_DTYPE),
        query_sq,
    )
    current = [entry] * num_queries
    current_dist = [float(dist) for dist in entry_dists]
    for level in range(graph.max_level, min(target_levels, default=0), -1):
        active = [i for i in range(num_queries) if target_levels[i] < level]
        while active:
            flat_ids: list[int] = []
            span_rows: list[int] = []
            span_counts: list[int] = []
            for i in active:
                neighbors = graph.neighbors(current[i], level)
                if not neighbors:
                    continue  # local minimum: settled at this level
                span_rows.append(i)
                span_counts.append(len(neighbors))
                flat_ids.extend(neighbors)
            if not flat_ids:
                break
            dists = scorer.score_pairs(
                queries,
                np.repeat(span_rows, span_counts),
                np.asarray(flat_ids, dtype=_IDS_DTYPE),
                query_sq,
            )
            moved: list[int] = []
            offset = 0
            for i, count in zip(span_rows, span_counts):
                segment = dists[offset : offset + count]
                best = int(np.argmin(segment))
                best_dist = float(segment[best])
                if best_dist < current_dist[i]:
                    current[i] = flat_ids[offset + best]
                    current_dist[i] = best_dist
                    moved.append(i)
                offset += count
            if cost is not None:
                cost.hops += len(moved)
            active = moved
    return current, current_dist


def search_layer_batch(
    graph: HnswGraph,
    scorer: PairScorer,
    queries: np.ndarray,
    entry_points: list[list[tuple[float, int]]],
    ef: int,
    level: int,
    visited_tables: list[VisitedTable],
    query_sq: np.ndarray | None = None,
    cost=None,
) -> list[list[tuple[float, int]]]:
    """Batched :func:`search_layer`: one beam search per query, in lockstep.

    Parameters
    ----------
    queries:
        Prepared ``(B, d)`` query batch.
    entry_points:
        Per-query ``(reduced_distance, node)`` seeds.
    visited_tables:
        One reset :class:`VisitedTable` per query.
    cost:
        Optional :class:`~repro.obs.cost.SearchCost`: each round adds
        the queries that advanced to ``hops`` and the fresh neighbors
        scored to ``candidates_visited`` (two bounded increments per
        round; ``None`` leaves the hot path untouched).

    Returns
    -------
    Per-query sorted ``(reduced_distance, node)`` lists, each at most
    ``ef`` long -- identical to running :func:`search_layer` per query.
    """
    num_queries = queries.shape[0]
    adjacency = graph._neighbors  # direct slot access: hot loop
    candidates: list[list[tuple[float, int]]] = []
    results: list[list[tuple[float, int]]] = []
    for i in range(num_queries):
        table = visited_tables[i]
        tags, epoch = table.tags, table.epoch
        cand: list[tuple[float, int]] = []
        res: list[tuple[float, int]] = []
        for dist, node in entry_points[i]:
            tags[node] = epoch
            cand.append((dist, node))
            res.append((-dist, node))
        heapq.heapify(cand)
        heapq.heapify(res)
        candidates.append(cand)
        results.append(res)

    active = [i for i in range(num_queries) if candidates[i]]
    while active:
        # Phase 1: advance each query to its next scoring point (or done).
        flat_ids: list[int] = []
        span_rows: list[int] = []
        span_counts: list[int] = []
        for i in active:
            cand = candidates[i]
            res = results[i]
            table = visited_tables[i]
            tags, epoch = table.tags, table.epoch
            fresh: list[int] = []
            while cand:
                dist, node = heapq.heappop(cand)
                if dist > -res[0][0] and len(res) >= ef:
                    cand.clear()  # frontier strictly worse: terminate
                    break
                fresh = [
                    neighbor
                    for neighbor in adjacency[node][level]
                    if tags[neighbor] != epoch
                ]
                if fresh:
                    for neighbor in fresh:
                        tags[neighbor] = epoch
                    break
            if fresh:
                span_rows.append(i)
                span_counts.append(len(fresh))
                flat_ids.extend(fresh)
        if not flat_ids:
            break
        if cost is not None:
            cost.hops += len(span_rows)
            cost.candidates_visited += len(flat_ids)

        # Phase 2: one vectorised scoring call for the whole round.
        dists = scorer.score_pairs(
            queries,
            np.repeat(span_rows, span_counts),
            np.asarray(flat_ids, dtype=_IDS_DTYPE),
            query_sq,
        )
        flat_dists = dists.tolist()

        # Phase 3: per-query heap updates (same inner loop as search_layer).
        still_active: list[int] = []
        offset = 0
        for i, count in zip(span_rows, span_counts):
            cand = candidates[i]
            res = results[i]
            worst = -res[0][0]
            full = len(res) >= ef
            for position in range(offset, offset + count):
                neighbor_dist = flat_dists[position]
                neighbor = flat_ids[position]
                if not full:
                    heapq.heappush(res, (-neighbor_dist, neighbor))
                    heapq.heappush(cand, (neighbor_dist, neighbor))
                    full = len(res) >= ef
                    worst = -res[0][0]
                elif neighbor_dist < worst:
                    heapq.heapreplace(res, (-neighbor_dist, neighbor))
                    heapq.heappush(cand, (neighbor_dist, neighbor))
                    worst = -res[0][0]
            offset += count
            if cand:
                still_active.append(i)
        active = still_active
    return [
        sorted((-neg_dist, node) for neg_dist, node in res) for res in results
    ]
