"""Neighbor selection for HNSW link construction.

Implements ``SELECT-NEIGHBORS-HEURISTIC`` (Algorithm 4 of Malkov &
Yashunin): a candidate ``e`` is linked only if it is closer to the new
point than to every already-selected neighbor.  This favours edges that
span *different* directions, which is what keeps the graph navigable in
clustered data; plain "closest M" selection degrades recall noticeably
(see ``benchmarks/bench_ablation_heuristic.py``).

Candidates come and go in the form the beam kernels return
(:func:`repro.hnsw.search.search_arrays`): a ``(P, C)`` stack of int64
ids and float32 reduced distances, one selection problem per row, any
order within a row, ``-1`` / ``inf`` in the unused slots of a short
row.  The answer is the same form, at most ``m`` wide, sorted by
``(distance, node)``.  A node-to-node distance is scored only when a
round reads it, by the same ``einsum`` reduction as every traversal
pair.  Algorithm 4 written literally over ``(distance,
node)`` tuples lives in ``tests/test_hnsw_heuristic.py`` as the
reference both functions are checked against.
"""

from __future__ import annotations

import numpy as np

from repro.distance.scorer import Scorer
from repro.hnsw.search import sort_candidates


def select_neighbors_simple(
    ids: np.ndarray, dists: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Plain closest-``m`` selection (``SELECT-NEIGHBORS-SIMPLE``)."""
    ids, dists = sort_candidates(ids, dists)
    return ids[:, : max(m, 0)], dists[:, : max(m, 0)]


def select_neighbors_heuristic_batch(
    scorer: Scorer,
    ids: np.ndarray,
    dists: np.ndarray,
    m: int,
    *,
    keep_pruned: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Diversity-aware neighbor selection, many problems in one round.

    The rows that actually need pruning (more than ``m`` candidates) are
    cut to their widest member and their stored vectors gathered once.
    Selection then takes at most ``m`` vectorised rounds over all of
    them: every row still deciding picks its nearest undecided candidate
    ``s``, one :meth:`~repro.distance.scorer.Scorer.score_gathered` call
    scores each row's ``s`` against its whole row, and that discards
    every undecided ``t`` with ``d(s, t) < dist[t]`` -- ``t`` is closer
    to a selected neighbor than to the query.  Only picked columns are
    scored, each pair bit-equal to ``score_pairs`` of it, so grouping
    problems never changes any problem's distances: a stack of one
    selects what any larger stack would.  This is what the construction
    wave uses to select every (row, layer) neighbor list of a wave at
    once.

    Parameters
    ----------
    scorer:
        Used to measure candidate-to-candidate distances (reduced space).
    ids, dists:
        The ``(P, C)`` candidate stack: distinct nodes per row and their
        reduced distances to that row's query.
    m:
        Maximum number of neighbors to select per problem.
    keep_pruned:
        When ``True``, pad each result with the best discarded candidates
        (``keepPrunedConnections`` in the paper).

    Returns
    -------
    ``(ids, dists)`` of the selected candidates, ``(P, min(m, C))``.
    """
    ids, dists = sort_candidates(ids, dists)
    keep = ids >= 0  # a row of at most m candidates keeps them all
    counts = np.count_nonzero(keep, axis=1)
    pending = np.flatnonzero(counts > m)
    if m > 0 and pending.size:
        span = int(counts[pending].max())
        cut_ids, cut_dists = ids[pending, :span], dists[pending, :span]
        real = cut_ids >= 0
        # Padding repeats the row's own first id; its cross distances are
        # never read for a real candidate's decision.
        cut_ids = np.where(real, cut_ids, cut_ids[:, :1])
        block = scorer.data.take(cut_ids, axis=0)
        rows = np.arange(pending.size)
        selected = np.zeros_like(real)
        undecided = real.copy()
        for picked in range(1, m + 1):
            # Everything before a row's first undecided candidate has been
            # selected or discarded, so this is the scan of Algorithm 4.
            # (A row with none left re-picks column 0, its first pick.)
            pick = undecided.argmax(axis=1)
            selected[rows, pick] = True
            undecided[rows, pick] = False
            if picked == m or not undecided.any():
                break  # what is left undecided now is never read
            cross = scorer.score_gathered(block, cut_ids, cut_ids[rows, pick])
            undecided &= ~(cross < cut_dists)
        if keep_pruned:
            # Discard order is candidate order; a row still short of m has
            # decided every candidate, so its unselected are its discarded.
            spare = real & ~selected
            room = m - np.count_nonzero(selected, axis=1)
            selected |= spare & (np.cumsum(spare, axis=1) <= room[:, np.newaxis])
        keep[pending, :span] = selected
    return select_neighbors_simple(np.where(keep, ids, -1), dists, m)
