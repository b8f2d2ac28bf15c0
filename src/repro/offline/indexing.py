"""Distributed index build (Section 5.2, Figure 6).

The flow mirrors the paper: every document is tagged with a shard id
(stable hash) and one or more segment ids (pre-learnt segmenter; several
under physical spill), the tagged dataset is repartitioned by
(shard, segment), one HNSW index is built *inside each executor task* and
serialized to the filesystem from the executor, and the driver finally
writes the coupled metadata (manifest + segmenter).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.builder import LannsBuilder, build_segment_index
from repro.core.config import LannsConfig
from repro.segmenters.base import Segmenter
from repro.sparklite.cluster import LocalCluster
from repro.sparklite.metrics import StageMetrics
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import (
    IndexManifest,
    write_metadata,
    write_segment,
)


def _build_and_persist_partition(
    fs: LocalHdfs,
    output_path: str,
    config: LannsConfig,
    key: tuple[int, int],
    part_vectors: np.ndarray,
    part_ids: np.ndarray,
    seed: int,
) -> tuple[tuple[int, int], tuple[str, str], int]:
    """Build one partition and write it from "the executor".

    Module-level and picklable, so the build stage can run under any
    cluster execution mode (inline / processes).
    """
    index = build_segment_index(part_vectors, part_ids, config, seed)
    return key, write_segment(fs, output_path, *key, index), len(index)


def build_index_job(
    cluster: LocalCluster,
    fs: LocalHdfs,
    vectors: np.ndarray,
    config: LannsConfig,
    output_path: str,
    *,
    ids: np.ndarray | None = None,
    segmenter: Segmenter | None = None,
    checkpoint: bool = False,
) -> tuple[IndexManifest, StageMetrics]:
    """Build and persist a LANNS index on the cluster.

    Parameters
    ----------
    segmenter:
        Optional pre-learnt segmenter (Figure 5 output); learnt on the
        fly when omitted -- exactly the optional input of Figure 6.

    Returns
    -------
    (manifest, build_stage_metrics):
        The manifest written to ``<output_path>/metadata.json``, and the
        metrics of the per-partition HNSW build stage (whose simulated
        makespan is what Tables 2 and 5 report).
    """
    vectors, segmenter, planned = LannsBuilder(config).plan(
        vectors, ids, segmenter
    )
    # functools.partial of a module-level function, not a closure: the
    # cluster's "processes" mode pickles each task into a worker process
    # (which is what lets multi-partition builds escape the GIL).
    tasks = [
        partial(_build_and_persist_partition, fs, output_path, config, *task)
        for task in planned
    ]
    outcome = cluster.run_tasks(
        tasks, stage="hnsw-build", checkpoint=checkpoint
    )

    # Driver side: couple metadata + segmenter with the written indices.
    checksums: dict[str, str] = {}
    segment_sizes = [
        [0] * config.num_segments for _ in range(config.num_shards)
    ]
    for (shard, segment), (relative, checksum), count in outcome.results:
        checksums[relative] = checksum
        segment_sizes[shard][segment] = count
    manifest = write_metadata(
        fs,
        output_path,
        config,
        segmenter,
        vectors.shape[1],
        segment_sizes,
        checksums,
    )
    return manifest, outcome.metrics
