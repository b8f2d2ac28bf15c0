"""Segmenter learning job (Section 5.1, Figure 5).

Subsamples the dataset uniformly at random, fits the configured segmenter
on the sample, and persists the learnt tree of hyperplanes (with split
points and spill boundaries) so the indexing job -- and every shard -- can
share one copy.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np

from repro.core.builder import LannsBuilder
from repro.core.config import LannsConfig
from repro.segmenters.base import Segmenter, segmenter_from_dict
from repro.sparklite.cluster import LocalCluster
from repro.storage.hdfs import LocalHdfs


def learn_segmenter_job(
    cluster: LocalCluster,
    fs: LocalHdfs | None,
    vectors: np.ndarray,
    config: LannsConfig,
    *,
    output_path: str | None = None,
) -> Segmenter:
    """Learn the shared segmenter as a (timed) cluster stage.

    Parameters
    ----------
    cluster:
        Execution engine; the fit runs as a single-task stage named
        ``"learn-segmenter"`` so its duration lands in the metrics.
    fs, output_path:
        When both given, the learnt segmenter is persisted to
        ``<output_path>`` as JSON.

    Returns
    -------
    The fitted segmenter.
    """

    fit_task = partial(LannsBuilder(config).learn_segmenter, vectors)
    outcome = cluster.run_tasks([fit_task], stage="learn-segmenter")
    segmenter = outcome.results[0]
    if fs is not None and output_path is not None:
        fs.write_text(output_path, json.dumps(segmenter.to_dict()))
    return segmenter


def load_learnt_segmenter(fs: LocalHdfs, path: str) -> Segmenter:
    """Load a segmenter persisted by :func:`learn_segmenter_job`."""
    return segmenter_from_dict(json.loads(fs.read_text(path)))
