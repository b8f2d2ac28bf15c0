"""Segmenter learning job (Section 5.1, Figure 5).

Subsamples the dataset uniformly at random and fits the configured
segmenter on the sample.  The indexing job exports the learnt tree of
hyperplanes (with split points and spill boundaries) as the index's
checksummed ``segmenter.json``, the one copy the build, every shard and
the broker share.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.builder import LannsBuilder
from repro.core.config import LannsConfig
from repro.segmenters.base import Segmenter
from repro.sparklite.cluster import LocalCluster


def learn_segmenter_job(
    cluster: LocalCluster, vectors: np.ndarray, config: LannsConfig
) -> Segmenter:
    """Learn the shared segmenter as a (timed) cluster stage.

    Parameters
    ----------
    cluster:
        Execution engine; the fit runs as a single-task stage named
        ``"learn-segmenter"`` so its duration lands in the metrics.

    Returns
    -------
    The fitted segmenter.
    """

    fit_task = partial(LannsBuilder(config).learn_segmenter, vectors)
    outcome = cluster.run_tasks([fit_task], stage="learn-segmenter")
    return outcome.results[0]
