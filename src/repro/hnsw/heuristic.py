"""Neighbor selection for HNSW link construction.

Implements ``SELECT-NEIGHBORS-HEURISTIC`` (Algorithm 4 of Malkov &
Yashunin): a candidate ``e`` is linked only if it is closer to the new
point than to every already-selected neighbor.  This favours edges that
span *different* directions, which is what keeps the graph navigable in
clustered data; plain "closest M" selection degrades recall noticeably
(see ``benchmarks/bench_ablation_heuristic.py``).
"""

from __future__ import annotations

import numpy as np

from repro.distance.scorer import Scorer

_IDS_DTYPE = np.int64


def select_neighbors_simple(
    candidates: list[tuple[float, int]], m: int
) -> list[tuple[float, int]]:
    """Plain closest-``m`` selection (``SELECT-NEIGHBORS-SIMPLE``)."""
    return sorted(candidates)[:m]


def select_neighbors_heuristic_batch(
    scorer: Scorer,
    problems: list[list[tuple[float, int]]],
    m: int,
    *,
    keep_pruned: bool = True,
) -> list[list[tuple[float, int]]]:
    """Diversity-aware neighbor selection, many problems in one round.

    The candidate ids of every problem that actually needs pruning are
    padded into one ``(P, C)`` stack and all candidate-to-candidate
    distances come from a single
    :meth:`~repro.distance.scorer.Scorer.pairwise_ids_batch` call (each
    stack slice is an independent GEMM, so grouping problems never
    changes any problem's distances: a batch of one selects what any
    larger batch would).  The selection loop then runs on plain Python
    floats.  This is what the construction wave uses to select every
    (row, layer) neighbor list of a wave at once.

    Parameters
    ----------
    scorer:
        Used to measure candidate-to-candidate distances (reduced space).
    problems:
        One candidate list per selection: ``(reduced_distance_to_query,
        node)`` pairs, any order.
    m:
        Maximum number of neighbors to select per problem.
    keep_pruned:
        When ``True``, pad each result with the best discarded candidates
        (``keepPrunedConnections`` in the paper).

    Returns
    -------
    Per problem, the selected ``(reduced_distance, node)`` pairs, at most
    ``m``.
    """
    if m <= 0:
        return [[] for _ in problems]
    output: list[list[tuple[float, int]] | None] = [None] * len(problems)
    pending: list[tuple[int, list[tuple[float, int]]]] = []
    for position, candidates in enumerate(problems):
        ordered = sorted(candidates)
        if len(ordered) <= m:
            output[position] = ordered
        else:
            pending.append((position, ordered))
    if not pending:
        return output  # type: ignore[return-value]

    # One batched GEMM gives every pending problem's cross distances.
    # Padding repeats the problem's own first id; the selection loop
    # below never looks past each problem's true candidate count.
    width = max(len(ordered) for _, ordered in pending)
    ids = np.empty((len(pending), width), dtype=_IDS_DTYPE)
    for row, (_, ordered) in enumerate(pending):
        ids[row, : len(ordered)] = [node for _, node in ordered]
        ids[row, len(ordered) :] = ordered[0][1]
    cross_stack = scorer.pairwise_ids_batch(ids)

    for row, (position, ordered) in enumerate(pending):
        count = len(ordered)
        cross = cross_stack[row]
        query_dists = np.asarray([dist for dist, _ in ordered])
        # Column-wise formulation of the selection loop: a candidate is
        # discarded iff it is closer to some already-selected neighbor
        # than to the query, so *selecting* index ``s`` dominates every
        # later candidate ``t`` with ``cross[t, s] < dist_to_query[t]``.
        # One boolean vector op per selected neighbor (<= m of them)
        # replaces the per-pair Python scan over the full cross matrix.
        dominated = np.zeros(count, dtype=bool)
        selected_idx: list[int] = []
        for index in range(count):
            if dominated[index]:
                continue
            selected_idx.append(index)
            if len(selected_idx) >= m:
                break
            closer = cross[:count, index] < query_dists
            closer[: index + 1] = False
            dominated |= closer
        selected = [ordered[index] for index in selected_idx]
        if keep_pruned and len(selected) < m:
            keep = np.ones(count, dtype=bool)
            keep[selected_idx] = False
            # Discard order is candidate order, exactly as the scan.
            for index in np.flatnonzero(keep)[: m - len(selected)]:
                selected.append(ordered[index])
            selected = sorted(selected)
        output[position] = selected
    return output  # type: ignore[return-value]
