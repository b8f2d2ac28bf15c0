"""Segment-aware query routing: fan out to *some* shard groups, not all.

LANNS routes each query through the learned segmenter with a *spill*
parameter instead of probing every segment (PAPER.md, online serving).
The :class:`Router` embeds the trained segmenter that the offline build
persisted in the manifest and, per query batch, selects the top-``spill``
segments by hyperplane margin
(:meth:`~repro.segmenters.hyperplane.HyperplaneTreeSegmenter.leaf_margins`),
then maps segments to the shard groups that actually host them using the
manifest's per-shard segment occupancy.

Under the default hash sharding every shard hosts every segment, so
routing restricts the *probes* inside each shard but cannot prune the
fan-out.  With ``sharding="segment"`` index builds (segment-aligned
layout: shard ``s`` hosts exactly segment ``s``), the router turns
per-query fan-out cost from O(shards) into O(spill) -- the lever for
growing shard count 10-100x.

The selected segments are pushed down to the searchers as explicit
``probes`` so a spilled query probes the segment it was routed *for*,
not the segment its vector would naturally map to (which may be empty on
that shard under the segment-aligned layout).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.segmenters.base import Segmenter


@dataclass
class RoutingPlan:
    """Per-shard-group work derived from one query batch.

    ``shard_rows[g]`` lists the batch rows that must visit group ``g``
    (ascending), and ``shard_probes[g]`` the segment ids each of those
    rows probes there.  ``routed_counts[row]`` is the number of groups
    serving that row -- the denominator for degraded-row detection.
    """

    num_shards: int
    shard_rows: dict[int, np.ndarray] = field(default_factory=dict)
    shard_probes: dict[int, list[tuple[int, ...]]] = field(
        default_factory=dict
    )
    routed_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    @property
    def groups_queried(self) -> int:
        """How many shard groups receive at least one row."""
        return len(self.shard_rows)


class Router:
    """Maps query batches to their top-``spill`` segments' shard groups.

    Parameters
    ----------
    segmenter:
        The trained segmenter shared by every shard of the index.
    num_shards:
        Number of shard groups in the deployment.
    segment_sizes:
        Optional per-shard per-segment vector counts (the manifest's
        occupancy table).  Segments empty on a shard are never routed
        there; when omitted, full occupancy is assumed and routing can
        restrict probes but not prune the fan-out.
    """

    def __init__(
        self,
        segmenter: Segmenter,
        num_shards: int,
        *,
        segment_sizes: list[list[int]] | None = None,
    ) -> None:
        self.segmenter = segmenter
        self.num_shards = int(num_shards)
        num_segments = segmenter.num_segments
        if segment_sizes is None:
            self._segment_shards: dict[int, tuple[int, ...]] = {
                segment: tuple(range(self.num_shards))
                for segment in range(num_segments)
            }
        else:
            if len(segment_sizes) != self.num_shards:
                raise ValueError(
                    f"segment_sizes has {len(segment_sizes)} shards, "
                    f"deployment has {self.num_shards}"
                )
            self._segment_shards = {
                segment: tuple(
                    shard
                    for shard in range(self.num_shards)
                    if segment_sizes[shard][segment] > 0
                )
                for segment in range(num_segments)
            }

    @property
    def scored(self) -> bool:
        """Whether the segmenter supports margin-ranked spill routing."""
        return hasattr(self.segmenter, "leaf_margins")

    def top_segments(
        self, queries: np.ndarray, spill: int
    ) -> list[tuple[int, ...]]:
        """Top-``spill`` segment ids per query row.

        Margin-capable segmenters (the hyperplane trees) rank all leaves
        by signed margin, so successive spill values yield *nested* probe
        sets and recall is monotone non-decreasing in ``spill``.  Other
        segmenters fall back to their natural query routes, capped at
        ``spill`` probes.
        """
        if spill < 1:
            raise ValueError(f"spill must be >= 1, got {spill}")
        spill = min(spill, self.segmenter.num_segments)
        margins = getattr(self.segmenter, "leaf_margins", None)
        if margins is None:
            return [
                tuple(route[:spill])
                for route in self.segmenter.route_query_batch(queries)
            ]
        scores = margins(queries)
        order = np.argsort(-scores, axis=1, kind="stable")[:, :spill]
        return [tuple(sorted(int(s) for s in row)) for row in order]

    def plan(self, queries: np.ndarray, spill: int) -> RoutingPlan:
        """Build the per-group work assignment for one batch.

        A row whose top-``spill`` segments no shard hosts (empty in the
        occupancy table) is routed nowhere and comes back as ``-1``
        padding.
        """
        probes_per_row = self.top_segments(queries, spill)
        plan = RoutingPlan(
            num_shards=self.num_shards,
            routed_counts=np.zeros(len(probes_per_row), dtype=np.int64),
        )
        rows_by_shard: dict[int, list[int]] = {}
        probes_by_shard: dict[int, list[tuple[int, ...]]] = {}
        for row, segments in enumerate(probes_per_row):
            shard_segments: dict[int, set[int]] = {}
            for segment in segments:
                for shard in self._segment_shards[segment]:
                    shard_segments.setdefault(shard, set()).add(segment)
            plan.routed_counts[row] = len(shard_segments)
            for shard, probe_set in shard_segments.items():
                rows_by_shard.setdefault(shard, []).append(row)
                probes_by_shard.setdefault(shard, []).append(
                    tuple(sorted(probe_set))
                )
        plan.shard_rows = {
            shard: np.asarray(rows, dtype=np.int64)
            for shard, rows in sorted(rows_by_shard.items())
        }
        plan.shard_probes = {
            shard: probes_by_shard[shard] for shard in plan.shard_rows
        }
        return plan
