"""LANNS: a web-scale approximate nearest neighbor lookup system.

This package is a from-scratch reproduction of the VLDB 2021 industrial
paper *"LANNS: A Web-Scale Approximate Nearest Neighbor Lookup System"*
(Doshi et al., LinkedIn).  It provides:

- :mod:`repro.hnsw` -- a complete Hierarchical Navigable Small World index.
- :mod:`repro.segmenters` -- the RS / RH / APD data segmenters with virtual
  and physical spill, plus the recall-bound theory from the paper.
- :mod:`repro.core` -- the LANNS index itself: two-level (shard, segment)
  partitioning, two-level merging and the ``perShardTopK`` optimisation.
- :mod:`repro.sparklite` -- a miniature Spark-like execution engine used by
  the offline pipelines.
- :mod:`repro.storage` -- a local stand-in for HDFS plus the index export
  format.
- :mod:`repro.offline` / :mod:`repro.online` -- the offline (Spark-style)
  pipelines and the online searcher/broker serving tier.
- :mod:`repro.data` / :mod:`repro.eval` -- synthetic dataset recipes with
  the paper's dimensionalities and ground truth; the qps definitions and
  serving load tests behind ``OnlineService.measure_qps`` and
  ``repro.cli bench`` (the benchmark harness is ``benchmarks/harness.py``).

Quickstart::

    import numpy as np
    from repro import LannsConfig, build_lanns_index

    rng = np.random.default_rng(0)
    data = rng.normal(size=(2000, 64)).astype(np.float32)
    config = LannsConfig(num_shards=2, num_segments=4, segmenter="apd")
    index = build_lanns_index(data, config=config)
    ids, dists = index.query(data[0], top_k=10)
"""

from repro.core.config import LannsConfig
from repro.core.builder import build_lanns_index, LannsBuilder
from repro.core.index import LannsIndex, ShardIndex
from repro.core.topk import per_shard_top_k
from repro.hnsw import HnswIndex, HnswParams
from repro.version import __version__

__all__ = [
    "LannsConfig",
    "LannsBuilder",
    "LannsIndex",
    "ShardIndex",
    "HnswIndex",
    "HnswParams",
    "build_lanns_index",
    "per_shard_top_k",
    "__version__",
]
