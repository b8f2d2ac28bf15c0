"""Context-scoped LANNS indices (the Section 8 extension, end to end).

Builds a sharded LANNS index whose segments are *contexts* (language,
country, surface, ...).  At query time the caller names the contexts to
search and only those segments are probed -- inside every shard, with
the usual in-shard merge and perShardTopK budgeting on top.

Example::

    index = build_contextual_index(
        vectors, labels, contexts=["en", "de", "fr"], num_shards=2
    )
    ids, dists = index.query(vector, top_k=10, contexts=["en", "de"])
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from repro.core.config import LannsConfig
from repro.core.index import ShardIndex
from repro.core.merge import merge_shard_results_batch
from repro.errors import ConfigError
from repro.hnsw.index import HnswIndex
from repro.hnsw.params import HnswParams
from repro.segmenters.context import ContextSegmenter
from repro.sharding.sharder import HashSharder
from repro.utils.rng import spawn_seeds
from repro.utils.validation import as_matrix, as_vector


class ContextualLannsIndex:
    """A LANNS index partitioned by (shard, context).

    Construct with :func:`build_contextual_index`.
    """

    def __init__(
        self,
        config: LannsConfig,
        shards: list[ShardIndex],
        segmenter: ContextSegmenter,
    ) -> None:
        self.config = config
        self.shards = shards
        self.segmenter = segmenter

    def __len__(self) -> int:
        """Total stored vectors."""
        return sum(len(shard) for shard in self.shards)

    @property
    def contexts(self) -> list[str]:
        """The context labels this index can scope queries to."""
        return list(self.segmenter.contexts)

    def context_sizes(self) -> dict[str, int]:
        """Stored vector count per context (across shards)."""
        sizes = {context: 0 for context in self.contexts}
        for shard in self.shards:
            for context, segment in zip(self.contexts, shard.segments):
                sizes[context] += len(segment)
        return sizes

    def query(
        self,
        query: np.ndarray,
        top_k: int,
        *,
        contexts: Sequence[str] | None = None,
        ef: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Search, scoped to ``contexts`` (all contexts when omitted).

        Every shard is visited (sharding is locality-free); within each
        shard only the named contexts' segments are probed and merged.
        """
        if top_k <= 0:
            raise ValueError(f"top_k must be positive, got {top_k}")
        query = as_vector(query, name="query")
        # Unscoped, the context segmenter's own routing probes everything.
        probes = (
            None
            if contexts is None
            else [self.segmenter.route_contexts(contexts)]
        )
        budget = self.config.per_shard_budget(top_k)
        parts = [
            shard.search_batch(
                query[np.newaxis, :], budget, ef=ef, probes=probes
            )
            for shard in self.shards
        ]
        ids, dists = merge_shard_results_batch(parts, top_k)
        found = ids[0] >= 0
        return ids[0][found], dists[0][found]


def build_contextual_index(
    vectors: np.ndarray,
    labels: Sequence[str],
    *,
    contexts: Sequence[str] | None = None,
    ids: np.ndarray | None = None,
    num_shards: int = 1,
    metric: str = "euclidean",
    hnsw: HnswParams | None = None,
    topk_confidence: float = 0.95,
    seed: int = 0,
) -> ContextualLannsIndex:
    """Build a context-segmented LANNS index.

    Parameters
    ----------
    vectors, labels:
        The corpus and one context label per row.
    contexts:
        Known labels in segment order; inferred (sorted unique) when
        omitted.
    num_shards:
        Level-1 hash shards, as in the base platform.
    """
    vectors = as_matrix(vectors, name="vectors")
    n = vectors.shape[0]
    labels = [str(label) for label in labels]
    if len(labels) != n:
        raise ValueError(
            f"{len(labels)} labels for {n} vectors"
        )
    if contexts is None:
        contexts = sorted(set(labels))
    segmenter = ContextSegmenter(contexts)
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    else:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (n,):
            raise ValueError(f"ids has shape {ids.shape}, expected ({n},)")

    hnsw = hnsw or HnswParams()
    try:
        config = LannsConfig(
            num_shards=num_shards,
            num_segments=segmenter.num_segments,
            segmenter="rs",  # placeholder; routing is handled here
            metric=metric,
            hnsw=hnsw,
            topk_confidence=topk_confidence,
            seed=seed,
        )
    except ConfigError as error:
        raise ConfigError(
            f"invalid contextual index parameters: {error}"
        ) from error

    sharder = HashSharder(num_shards)
    shard_rows = sharder.partition(ids.tolist())
    seeds = spawn_seeds(seed, num_shards * segmenter.num_segments)
    shards = []
    for shard_id, rows in enumerate(shard_rows):
        shard_labels = [labels[row] for row in rows.tolist()]
        routes = segmenter.route_labels(shard_labels)
        segments = []
        for segment_id in range(segmenter.num_segments):
            member_rows = rows[
                [position for position, route in enumerate(routes)
                 if route[0] == segment_id]
            ]
            segment_seed = seeds[shard_id * segmenter.num_segments + segment_id]
            segment = HnswIndex(
                dim=vectors.shape[1],
                metric=metric,
                params=replace(hnsw, seed=segment_seed % (2**31)),
            )
            if member_rows.size:
                segment.add(vectors[member_rows], ids=ids[member_rows])
            segments.append(segment)
        shards.append(ShardIndex(shard_id, segments, segmenter))
    return ContextualLannsIndex(config, shards, segmenter)
