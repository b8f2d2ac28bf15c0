"""Fan-out pruning: ask only the shard groups that host a row's segments.

Every shard routes a query by the segmenter's own rule,
``route_query_batch`` -- under virtual spill a query inside a node's
alpha band goes to both children (the paper's Sec. 4.3.2, Theorem 1).
The :class:`Router` runs that same call at the broker and maps each
row's segments to the shard groups hosting them through the manifest's
per-shard occupancy table.  A group hosting none of a row's segments
would answer it with padding only, so not asking it changes no answer:
routing decides which RPCs are sent, never what they return.

The broker builds a router only when the occupancy table shows some
segment missing from some shard (``sharding="segment"``, where shard
``s`` hosts exactly segment ``s``, or a shard with an empty segment):
with full occupancy every group hosts every segment and there is
nothing to prune.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.segmenters.base import Segmenter


@dataclass
class RoutingPlan:
    """Per-shard-group rows of one query batch.

    ``shard_rows[g]`` lists the batch rows that must visit group ``g``
    (ascending); ``routed_counts[row]`` is the number of groups serving
    that row -- the denominator for degraded-row detection.
    """

    shard_rows: dict[int, np.ndarray]
    routed_counts: np.ndarray

    @property
    def groups_queried(self) -> int:
        """How many shard groups receive at least one row."""
        return len(self.shard_rows)


class Router:
    """Maps query batches to the shard groups hosting their routed segments.

    Parameters
    ----------
    segmenter:
        The trained segmenter shared by every shard of the index.
    segment_sizes:
        Per-shard per-segment vector counts (the manifest's occupancy
        table, one row per shard group).
    """

    def __init__(self, segmenter: Segmenter, segment_sizes: list[list[int]]) -> None:
        self.segmenter = segmenter
        hosted = np.asarray(segment_sizes) > 0
        self.num_shards = hosted.shape[0]
        self._hosts = [np.flatnonzero(column).tolist() for column in hosted.T]

    @staticmethod
    def prunes(segment_sizes: list[list[int]] | None) -> bool:
        """Whether the occupancy table leaves anything to prune: some
        segment is missing from some shard."""
        return segment_sizes is not None and not (np.asarray(segment_sizes) > 0).all()

    def plan(self, queries: np.ndarray) -> RoutingPlan:
        """Each row's routed segments, mapped to the groups hosting them.

        A row whose segments no shard hosts is routed nowhere and comes
        back as ``-1`` padding.
        """
        routes = self.segmenter.route_query_batch(queries)
        routed_counts = np.zeros(len(routes), dtype=np.int64)
        rows_by_shard: dict[int, list[int]] = {}
        for row, segments in enumerate(routes):
            shards = {shard for segment in segments for shard in self._hosts[segment]}
            routed_counts[row] = len(shards)
            for shard in shards:
                rows_by_shard.setdefault(shard, []).append(row)
        return RoutingPlan(
            shard_rows={
                shard: np.asarray(rows, dtype=np.int64)
                for shard, rows in sorted(rows_by_shard.items())
            },
            routed_counts=routed_counts,
        )
