"""Storage: a local HDFS stand-in and the index export format.

The paper's pipelines write segmenters, per-partition HNSW indices,
checkpointed partial results and final search output to HDFS, and ship
serialized indices (Avro datasets) to online searcher nodes.
:class:`LocalHdfs` reproduces the filesystem contract (atomic writes,
namespaced paths, recursive listing/cleanup) on a local directory;
:mod:`repro.storage.manifest` defines the index export layout with the
metadata coupling that prevents offline/online config drift.
"""

from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import IndexManifest, load_lanns_index, save_lanns_index

__all__ = [
    "LocalHdfs",
    "IndexManifest",
    "save_lanns_index",
    "load_lanns_index",
]
