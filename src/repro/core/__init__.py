"""The LANNS core: two-level partitioned ANN index (Sections 4 and 5).

- :class:`~repro.core.config.LannsConfig` -- every tunable in one place.
- :class:`~repro.core.index.LannsIndex` -- shards -> segments -> HNSW with
  two-level merging and ``perShardTopK``.
- :func:`~repro.core.builder.build_lanns_index` -- one-call construction.
"""

from repro.core.config import LannsConfig
from repro.core.topk import per_shard_top_k
from repro.core.merge import (
    merge_segment_results_batch,
    merge_shard_results_batch,
)
from repro.core.index import LannsIndex, ShardIndex
from repro.core.builder import LannsBuilder, build_lanns_index
from repro.core.contextual import ContextualLannsIndex, build_contextual_index

__all__ = [
    "LannsConfig",
    "per_shard_top_k",
    "merge_segment_results_batch",
    "merge_shard_results_batch",
    "LannsIndex",
    "ShardIndex",
    "LannsBuilder",
    "build_lanns_index",
    "ContextualLannsIndex",
    "build_contextual_index",
]
