"""The ``perShardTopK`` optimisation (Section 5.3.2, Eq. 5-6).

When a dataset is hash-sharded uniformly across ``S`` shards, the number
of a query's true top-``K`` neighbors landing in one shard is
``Binomial(K, 1/S)``.  Asking each shard for the full ``K`` results wastes
network and merge cost; LANNS instead fetches the upper end of the normal
approximation interval of that binomial:

    s' = 1 / S
    cI = s' + f(p) * sqrt(s' (1 - s') / topK)          (Eq. 5)
    perShardTopK = min(topK, ceil(cI * topK))          (Eq. 6)

where ``f(p)`` is a standard-normal quantile for confidence ``p``.

The paper's text defines ``f(p)`` as the ``1 - p/2`` quantile with
``p = 0.95``, which evaluates to z = 0.063 -- clearly a typo for the usual
Wald interval (at confidence 0.95 one wants z = 1.96).  We default to the
standard ``(1 + p) / 2`` quantile and expose the literal reading behind
``paper_literal=True`` so the difference can be measured (see
``benchmarks/bench_ablation_per_shard_topk.py``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import norm

from repro.utils.validation import check_positive


def probit(quantile: float) -> float:
    """Inverse CDF of the standard normal distribution."""
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    return float(norm.ppf(quantile))


def per_shard_top_k(
    top_k: int,
    num_shards: int,
    confidence: float = 0.95,
    *,
    paper_literal: bool = False,
) -> int:
    """How many neighbors to request from each of ``num_shards`` shards.

    Parameters
    ----------
    top_k:
        The global number of neighbors requested.
    num_shards:
        Number of uniform hash shards.
    confidence:
        ``topK.confidence``: the probability that a shard's share of the
        true top-K fits within the returned budget.
    paper_literal:
        Use the paper's literal ``1 - p/2`` quantile (see module docs).

    Returns
    -------
    An integer in ``[1, top_k]``.  With one shard this is exactly
    ``top_k``; the budget shrinks as shards are added but never below 1.

    Notes
    -----
    Segments deliberately do NOT get their own budget: "Employing a per
    segment topK could lead to fewer than topK results as the final
    output. Thus ... we propagate the shard level perShardTopK to the
    associated segments" (Section 5.3.2).
    """
    check_positive(top_k, "top_k")
    check_positive(num_shards, "num_shards")
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    if num_shards == 1:
        return int(top_k)
    share = 1.0 / num_shards
    quantile = (1.0 - confidence / 2.0) if paper_literal else (1.0 + confidence) / 2.0
    z = probit(quantile)
    interval = share + z * math.sqrt(share * (1.0 - share) / top_k)
    budget = min(top_k, math.ceil(interval * top_k))
    return max(int(budget), 1)


def batch_top_k(
    dists: np.ndarray,
    ids: np.ndarray,
    k: int,
    *,
    dedupe: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised per-row top-k over ``(B, C)`` candidate arrays.

    Every row is reduced to its ``k`` smallest ``(distance, id)`` pairs
    in ascending ``(distance, id)`` order -- equal distances are ordered
    by id, so the result is a function of the row's set of pairs, not of
    their column order -- with one ``lexsort`` over the whole batch.

    Parameters
    ----------
    dists, ids:
        ``(B, C)`` candidate distances (float) and ids (int).  Padding
        entries are id ``-1`` / distance ``inf``.
    k:
        Results per row.
    dedupe:
        Keep each id once per row, at its best distance (physical spill
        can surface a point from several segments).

    Returns
    -------
    ``(B, k)`` id and distance arrays, padded with ``-1`` / ``inf``.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    dists = np.asarray(dists, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    if dists.shape != ids.shape or ids.ndim != 2:
        raise ValueError(
            f"dists/ids must be matching 2-D arrays, got {dists.shape} "
            f"and {ids.shape}"
        )
    num_rows, num_cols = ids.shape
    out_ids = np.full((num_rows, k), -1, dtype=np.int64)
    out_dists = np.full((num_rows, k), np.inf, dtype=np.float64)
    if num_rows == 0 or num_cols == 0:
        return out_ids, out_dists

    # One (B, 1) row index serves every gather and the scatter below:
    # ``x[row, order]`` is ``take_along_axis(x, order, axis=1)`` without
    # numpy's Python-level helper rebuilding the same index tuple on each
    # call (two merges per request sit on the serving path).
    row = np.arange(num_rows)[:, np.newaxis]
    order = np.lexsort((ids, dists), axis=-1)
    ids_sorted = ids[row, order]
    dists_sorted = dists[row, order]
    if dedupe:
        # Keep an entry iff its id has no earlier (better-distance)
        # occurrence in the same row.  A stable per-row argsort on id
        # groups duplicates adjacently while preserving distance order
        # inside each group, so the first element of every run is the
        # best; scattering that mask back through the argsort gives the
        # keep mask.  No arithmetic on ids, so any int64 ids are safe.
        by_id = np.argsort(ids_sorted, axis=1, kind="stable")
        grouped = ids_sorted[row, by_id]
        first_of_run = np.ones((num_rows, num_cols), dtype=bool)
        first_of_run[:, 1:] = grouped[:, 1:] != grouped[:, :-1]
        keep = np.empty((num_rows, num_cols), dtype=bool)
        keep[row, by_id] = first_of_run
    else:
        keep = np.ones((num_rows, num_cols), dtype=bool)
    rank = np.cumsum(keep, axis=1)
    take = keep & (rank <= k)
    rows, cols = np.nonzero(take)
    slots = rank[rows, cols] - 1
    out_ids[rows, slots] = ids_sorted[rows, cols]
    out_dists[rows, slots] = dists_sorted[rows, cols]
    return out_ids, out_dists
