"""The LANNS index: shards -> segments -> HNSW, with two-level merging.

This is the in-memory form of the platform.  The offline pipelines
(:mod:`repro.offline`) build the same structure through the sparklite
cluster and persist it through :mod:`repro.storage`; the online tier
(:mod:`repro.online`) hosts one :class:`ShardIndex` per searcher node.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import LannsConfig
from repro.core.merge import (
    empty_part,
    merge_segment_results_batch,
    merge_shard_results_batch,
)
from repro.errors import IndexNotBuiltError
from repro.hnsw.index import HnswIndex, search_segments
from repro.segmenters.base import Segmenter
from repro.sharding.sharder import HashSharder
from repro.utils.validation import as_matrix, as_vector


class ShardIndex:
    """One shard: a set of segment HNSW indices plus the shared segmenter.

    Parameters
    ----------
    shard_id:
        Position of this shard in the LANNS index.
    segments:
        One :class:`~repro.hnsw.index.HnswIndex` per segment (some may be
        empty and are skipped at query time).
    segmenter:
        The shared, pre-learnt segmenter used for query routing.
    """

    def __init__(
        self,
        shard_id: int,
        segments: list[HnswIndex],
        segmenter: Segmenter,
    ) -> None:
        if len(segments) != segmenter.num_segments:
            raise ValueError(
                f"shard {shard_id}: {len(segments)} segment indices but "
                f"segmenter expects {segmenter.num_segments}"
            )
        self.shard_id = int(shard_id)
        self.segments = segments
        self.segmenter = segmenter

    def __len__(self) -> int:
        """Number of stored vectors (counting physical-spill duplicates)."""
        return sum(len(segment) for segment in self.segments)

    @property
    def segment_sizes(self) -> list[int]:
        """Vector count per segment."""
        return [len(segment) for segment in self.segments]

    def probed_segments(self, query: np.ndarray) -> tuple[int, ...]:
        """Segment ids the segmenter would probe for ``query``."""
        return self.segmenter.route_query(query)

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        *,
        ef: int | None = None,
        cost=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched shard search: route, lockstep-search, merge (level 1).

        Routing is the segmenter's: one vectorised ``route_query_batch``
        call names the segments each row probes.  The request's (query,
        probed segment) pairs are one lockstep group
        (:func:`~repro.hnsw.index.search_segments`): each segment descends
        its own rows, one beam and one rescore serve every pair.  Where
        each row probes one segment, answered in strictly ascending
        finite distances, those answers are the shard's; otherwise the
        segment candidates merge per query through the vectorised batch
        merge.  A query row holding NaN or ``inf`` is refused with a
        ``ValueError``, as a broker's
        :class:`~repro.online.types.SearchRequest` refuses it: a shard is
        also searched without a broker (library callers, any peer of a
        searcher server).

        ``cost`` optionally accumulates this batch's search work (see
        :class:`~repro.obs.cost.SearchCost`); every executed
        ``(query row, segment)`` probe adds one to ``segments_probed``
        and the segment kernels fill in the rest.  Results are identical
        with or without it.

        Returns
        -------
        ``(B, k)`` id and distance arrays, padded with ``-1`` / ``inf``.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = as_matrix(queries, name="queries", finite=True)
        num_queries = queries.shape[0]
        if num_queries == 0:
            return empty_part(num_queries, k)
        routes = self.segmenter.route_query_batch(queries)
        segment_rows: dict[int, list[int]] = {}
        for row, probed in enumerate(routes):
            for segment_id in probed:
                segment_rows.setdefault(segment_id, []).append(row)
        # Pack each query's segment candidates into per-row probe slots,
        # so the merge width scales with probes-per-query (1-2 under
        # virtual spill), not with the shard's total segment count.
        max_probes = max((len(probed) for probed in routes), default=0)
        probed_rows = [
            (self.segments[segment_id], np.asarray(rows, dtype=np.int64))
            for segment_id, rows in sorted(segment_rows.items())
            if len(self.segments[segment_id])
        ]
        if not probed_rows:
            return empty_part(num_queries, k)
        if cost is not None:
            cost.segments_probed += sum(rows.size for _, rows in probed_rows)
        found = search_segments(
            [
                (segment, queries[rows], min(k, len(segment)))
                for segment, rows in probed_rows
            ],
            ef,
            cost,
        )
        # Level 1 merges only where candidate lists meet.  When each row
        # probes one segment and its answer ascends strictly, below
        # ``inf``, those answers are the shard's, padded where a segment
        # holds fewer than ``k`` rows.  Otherwise -- a row probing two
        # segments, a tie (ordered by id), an ``inf`` or NaN (ordered
        # around the padding) -- the request is merged whole, in one
        # vectorised call.
        if max_probes == 1 and all(
            (found_dists[:, 1:] > found_dists[:, :-1]).all()
            and (found_dists[:, -1] < np.inf).all()
            for _, found_dists in found
        ):
            if found[0][0].shape == (num_queries, k):
                return found[0]  # one segment answered every row in full
            ids, dists = empty_part(num_queries, k)
            for (_, rows), (found_ids, found_dists) in zip(probed_rows, found):
                ids[rows, : found_ids.shape[1]] = found_ids
                dists[rows, : found_ids.shape[1]] = found_dists
            return ids, dists
        cand_ids, cand_dists = empty_part(num_queries, max_probes * k)
        next_slot = np.zeros(num_queries, dtype=np.int64)
        for (_, rows), (found_ids, found_dists) in zip(probed_rows, found):
            columns = next_slot[rows, np.newaxis] * k + np.arange(found_ids.shape[1])
            cand_ids[rows[:, np.newaxis], columns] = found_ids
            cand_dists[rows[:, np.newaxis], columns] = found_dists
            next_slot[rows] += 1
        return merge_segment_results_batch(cand_ids, cand_dists, k)


class LannsIndex:
    """The full two-level LANNS index.

    Build with :func:`repro.core.builder.build_lanns_index`; query with
    :meth:`query` / :meth:`query_batch`.
    """

    def __init__(
        self,
        config: LannsConfig,
        shards: list[ShardIndex],
        segmenter: Segmenter,
    ) -> None:
        if len(shards) != config.num_shards:
            raise ValueError(
                f"{len(shards)} shards but config expects {config.num_shards}"
            )
        self.config = config
        self.shards = shards
        self.segmenter = segmenter
        self.sharder = HashSharder(config.num_shards)

    # -- introspection ----------------------------------------------------------
    def __len__(self) -> int:
        """Stored vector count, including physical-spill duplicates."""
        return sum(len(shard) for shard in self.shards)

    @property
    def dim(self) -> int:
        """Vector dimensionality (from the first non-empty segment)."""
        for shard in self.shards:
            for segment in shard.segments:
                if len(segment):
                    return segment.dim
        raise IndexNotBuiltError("index has no vectors")

    def stats(self) -> dict:
        """Shape summary used by examples, logs and tests."""
        return {
            "partitioning": self.config.partitioning,
            "segmenter": self.config.segmenter,
            "spill_mode": self.config.spill_mode,
            "total_vectors": len(self),
            "shard_sizes": [len(shard) for shard in self.shards],
            "segment_sizes": [shard.segment_sizes for shard in self.shards],
        }

    # -- querying ----------------------------------------------------------------
    def per_shard_budget(self, top_k: int) -> int:
        """The perShardTopK each shard is asked for
        (:meth:`LannsConfig.per_shard_budget`)."""
        return self.config.per_shard_budget(top_k)

    def query(
        self,
        query: np.ndarray,
        top_k: int,
        *,
        ef: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-k over the whole index.

        A thin wrapper over :meth:`query_batch` with a batch of one.
        Every query visits every shard (sharding is locality-free); inside
        a shard the segmenter decides which segments to probe.  Shard
        results are capped at ``perShardTopK`` and merged at this "broker"
        level (level-2 merge).

        Returns
        -------
        (ids, distances): int64 and float64 arrays, ascending by distance.
        """
        query = as_vector(query, name="query")
        ids, dists = self.query_batch(query[np.newaxis, :], top_k, ef=ef)
        valid = ids[0] >= 0
        return ids[0][valid], dists[0][valid]

    def query_batch(
        self,
        queries: np.ndarray,
        top_k: int,
        *,
        ef: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched top-k: one shard sweep and one vectorised merge per batch.

        Per-query results are identical to calling :meth:`query` in a
        loop.  Rows are padded with id ``-1`` / distance ``inf``.
        """
        if top_k <= 0:
            raise ValueError(f"top_k must be positive, got {top_k}")
        if len(self) == 0:
            raise IndexNotBuiltError("query on an empty LANNS index")
        queries = as_matrix(queries, name="queries")
        if queries.shape[0] == 0:
            return (
                np.full((0, top_k), -1, dtype=np.int64),
                np.full((0, top_k), np.inf, dtype=np.float64),
            )
        budget = self.per_shard_budget(top_k)
        parts = [
            shard.search_batch(queries, budget, ef=ef)
            for shard in self.shards
        ]
        return merge_shard_results_batch(parts, top_k)
