"""In-memory construction of a LANNS index (Figures 5 and 6, sans HDFS).

The builder performs the same steps as the offline Spark pipeline:

1. learn (or accept) a shared segmenter from a uniform subsample;
2. tag every document with a shard id (stable hash of its key) and one or
   more segment ids (segmenter routing; >1 only under physical spill);
3. build one HNSW index per (shard, segment) partition -- in parallel on a
   :class:`~repro.sparklite.cluster.LocalCluster` when one is supplied.

The HDFS-integrated version of the same flow lives in
:mod:`repro.offline.indexing`.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from repro.core.config import LannsConfig
from repro.core.index import LannsIndex, ShardIndex
from repro.hnsw.index import HnswIndex
from repro.segmenters.base import Segmenter
from repro.segmenters.learner import learn_segmenter
from repro.sharding.sharder import HashSharder
from repro.utils.rng import spawn_seeds
from repro.utils.validation import as_matrix


class LannsBuilder:
    """Builds :class:`~repro.core.index.LannsIndex` instances.

    Parameters
    ----------
    config:
        The platform configuration.
    """

    def __init__(self, config: LannsConfig | None = None) -> None:
        self.config = config or LannsConfig()

    # -- segmenter ---------------------------------------------------------------
    def learn_segmenter(self, vectors: np.ndarray) -> Segmenter:
        """Pre-learn the shared segmenter on a uniform subsample."""
        config = self.config
        return learn_segmenter(
            vectors,
            config.segmenter,
            config.num_segments,
            alpha=config.alpha,
            spill_mode=config.spill_mode,
            sample_size=config.segmenter_sample_size,
            seed=config.seed,
        )

    # -- partitioning -------------------------------------------------------------
    def partition(
        self,
        vectors: np.ndarray,
        ids: np.ndarray,
        segmenter: Segmenter,
    ) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
        """Tag and split the dataset by (shard, segment).

        Returns
        -------
        Mapping ``(shard_id, segment_id) -> (ids, vectors)``.  Every pair
        is present, possibly with empty arrays.  Under physical spill a
        document can appear in several segments of its shard.

        With ``sharding="segment"`` the shard id *is* the segment id:
        each (document, segment) assignment lands on the shard aligned
        with that segment, so shard ``s`` hosts segment ``s`` and every
        other segment of shard ``s`` stays empty.  That placement is what
        lets the online router prune fan-out per query.
        """
        config = self.config
        partitions: dict[tuple[int, int], tuple[list, list]] = {
            (shard, segment): ([], [])
            for shard in range(config.num_shards)
            for segment in range(config.num_segments)
        }
        if config.sharding == "segment":
            routes = segmenter.route_data_batch(vectors)
            for position, segments in enumerate(routes):
                for segment in segments:
                    id_list, vec_list = partitions[(segment, segment)]
                    id_list.append(int(ids[position]))
                    vec_list.append(position)
        else:
            sharder = HashSharder(config.num_shards)
            shard_rows = sharder.partition(ids.tolist())
            for shard, rows in enumerate(shard_rows):
                if rows.size == 0:
                    continue
                shard_vectors = vectors[rows]
                shard_ids = ids[rows]
                routes = segmenter.route_data_batch(shard_vectors)
                for position, segments in enumerate(routes):
                    for segment in segments:
                        id_list, vec_list = partitions[(shard, segment)]
                        id_list.append(int(shard_ids[position]))
                        vec_list.append(rows[position])
        dim = vectors.shape[1]
        result: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        for key, (id_list, row_list) in partitions.items():
            part_ids = np.asarray(id_list, dtype=np.int64)
            part_vectors = (
                vectors[np.asarray(row_list, dtype=np.int64)]
                if row_list
                else np.empty((0, dim), dtype=np.float32)
            )
            result[key] = (part_ids, part_vectors)
        return result

    # -- build ---------------------------------------------------------------------
    def plan(
        self,
        vectors: np.ndarray,
        ids: np.ndarray | None = None,
        segmenter: Segmenter | None = None,
    ) -> tuple[np.ndarray, Segmenter, list[tuple]]:
        """The prologue every build shares, in memory or on the cluster.

        Validates ``vectors`` / ``ids`` (default keys ``0..n-1``),
        learns the segmenter unless a pre-learnt one is given (the
        optional input of Figure 6), partitions, and draws one seed per
        partition.  Returns ``(vectors, segmenter, tasks)`` with
        ``tasks`` the ``(key, part_vectors, part_ids, seed)`` of every
        (shard, segment) partition in key order.
        """
        vectors = as_matrix(vectors, name="vectors")
        n = vectors.shape[0]
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (n,):
                raise ValueError(f"ids has shape {ids.shape}, expected ({n},)")
        config = self.config
        if segmenter is None:
            segmenter = self.learn_segmenter(vectors)
        if segmenter.num_segments != config.num_segments:
            raise ValueError(
                f"segmenter has {segmenter.num_segments} segments, config "
                f"expects {config.num_segments}"
            )
        partitions = self.partition(vectors, ids, segmenter)
        seeds = spawn_seeds(config.seed, config.total_partitions)
        tasks = [
            (key, partitions[key][1], partitions[key][0], seeds[position])
            for position, key in enumerate(sorted(partitions))
        ]
        return vectors, segmenter, tasks

    def build(
        self,
        vectors: np.ndarray,
        ids: np.ndarray | None = None,
        *,
        segmenter: Segmenter | None = None,
        cluster=None,
    ) -> LannsIndex:
        """Build the full index.

        Parameters
        ----------
        vectors:
            Dataset of shape ``(n, dim)``.
        ids:
            Optional external keys (default ``0..n-1``); sharding hashes
            these.
        segmenter:
            A pre-learnt segmenter to reuse (the paper shares one across
            shards); learnt from ``vectors`` when omitted.
        cluster:
            Optional :class:`~repro.sparklite.cluster.LocalCluster`; when
            given, per-partition HNSW builds run as cluster tasks (and are
            timed for the build-time experiments).
        """
        config = self.config
        _, segmenter, planned = self.plan(vectors, ids, segmenter)
        # functools.partial of a module-level function, not a closure:
        # cluster mode "processes" has to pickle each task.
        tasks = [
            partial(_build_partition_task, config, *task) for task in planned
        ]
        if cluster is not None:
            outcome = cluster.run_tasks(tasks, stage="hnsw-build")
            built = dict(outcome.results)
        else:
            built = dict(task() for task in tasks)

        shards = []
        for shard in range(config.num_shards):
            segments = [
                built[(shard, segment)] for segment in range(config.num_segments)
            ]
            shards.append(ShardIndex(shard, segments, segmenter))
        return LannsIndex(config, shards, segmenter)


def _build_partition_task(
    config: LannsConfig,
    key: tuple[int, int],
    part_vectors: np.ndarray,
    part_ids: np.ndarray,
    seed: int,
) -> tuple[tuple[int, int], HnswIndex]:
    """Build one (shard, segment) partition; picklable for any cluster mode."""
    return key, build_segment_index(part_vectors, part_ids, config, seed)


def build_segment_index(
    vectors: np.ndarray,
    ids: np.ndarray,
    config: LannsConfig,
    seed: int,
) -> HnswIndex:
    """Build one segment's HNSW index (runs inside an executor)."""
    params = replace(config.hnsw, seed=seed % (2**31))
    index = HnswIndex(dim=vectors.shape[1], metric=config.metric, params=params)
    if vectors.shape[0]:
        index.add(vectors, ids=ids)
    return index


def build_lanns_index(
    vectors: np.ndarray,
    ids: np.ndarray | None = None,
    *,
    config: LannsConfig | None = None,
    segmenter: Segmenter | None = None,
    cluster=None,
) -> LannsIndex:
    """One-call LANNS index construction (see :class:`LannsBuilder`)."""
    return LannsBuilder(config).build(
        vectors, ids, segmenter=segmenter, cluster=cluster
    )
