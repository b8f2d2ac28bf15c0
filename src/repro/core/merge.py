"""Two-level result merging (Section 5.3 / Figure 7).

LANNS merges in two stages that mirror the serving topology:

1. *Segment-level* merge happens inside the server node hosting the shard
   ("does not require additional network I/O").
2. *Shard-level* merge happens at the broker / driver.

Both stages are top-k merges over ``(distance, id)`` pairs; physical spill
can surface the same id from two segments, so the segment-level merge
dedupes by id (keeping the best distance).  Hash sharding stores every id
in exactly one shard, so the shard-level merge needs no dedupe; it keeps
it anyway for safety.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.topk import batch_top_k

# Online and offline alike carry ``(B, k_i)`` id/distance arrays; both
# merge levels reduce to one vectorised
# :func:`~repro.core.topk.batch_top_k` call over the horizontally stacked
# candidates: ascending ``(distance, id)``, best distance kept per id.


def merge_candidates_batch(
    parts: Sequence[tuple[np.ndarray, np.ndarray]],
    k: int,
    *,
    dedupe: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge several aligned ``(B, k_i)`` (ids, dists) blocks per query.

    Padding entries (id ``-1`` / distance ``inf``) pass through and pad
    the output rows.
    """
    if not parts:
        raise ValueError("merge_candidates_batch needs at least one block")
    ids = np.concatenate([block_ids for block_ids, _ in parts], axis=1)
    dists = np.concatenate([block_dists for _, block_dists in parts], axis=1)
    out_ids, out_dists = batch_top_k(dists, ids, k, dedupe=dedupe)
    return out_ids, out_dists


def merge_segment_results_batch(
    ids: np.ndarray,
    dists: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """First-level merge: segment candidates -> shard result.

    Physical spill stores boundary points in several segments of the same
    shard, so duplicates are possible and are deduped here.  Takes one
    pre-packed ``(B, C)`` candidate matrix pair -- the shard packs each
    query's probed-segment results into per-row slots.
    """
    return batch_top_k(dists, ids, k, dedupe=True)


def empty_part(rows: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """A ``(rows, width)`` (ids, dists) block holding only padding.

    The ``-1`` id / ``inf`` distance sentinels are what both merges
    treat as absent: the stand-in for a shard that did not answer and
    the canvas a routed sub-batch is scattered onto.
    """
    return (
        np.full((rows, width), -1, dtype=np.int64),
        np.full((rows, width), np.inf, dtype=np.float64),
    )


def merge_shard_results_batch(
    parts: Sequence[tuple[np.ndarray, np.ndarray]],
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Second-level merge: per-shard blocks -> final topK."""
    return merge_candidates_batch(parts, k, dedupe=True)
