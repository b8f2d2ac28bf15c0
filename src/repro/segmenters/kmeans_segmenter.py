"""A k-means (clustering) segmenter: an extensibility demonstration.

The paper stresses that "LANNS has been built to be extensible" beyond
the shipped segmenters.  This module adds a fourth strategy in the same
interface: segments are k-means cells (like an IVF coarse quantizer),
and spill is defined by the *margin ratio* between the nearest and
second-nearest centroid -- a point (or query) whose two best centroids
are nearly tied is routed to both, the clustering analogue of the
hyperplane segmenters' boundary band.

Compared to RH/APD trees, k-means cells adapt to arbitrarily shaped
clusters and need no power-of-two segment count; the trade-off is that
routing costs ``num_segments`` centroid distances per point.
"""

from __future__ import annotations

import numpy as np

from repro.distance.kmeans import kmeans
from repro.segmenters.base import SPILL_MODES, Segmenter, register_segmenter
from repro.utils.validation import as_matrix


@register_segmenter
class KMeansSegmenter(Segmenter):
    """Segments = k-means cells; spill = near-tied centroid margins.

    Parameters
    ----------
    num_segments:
        Number of cells (any integer >= 1).
    spill_threshold:
        Route to the runner-up cell as well when
        ``d_nearest / d_second >= spill_threshold`` (1.0 disables
        spill).  The spilled fraction depends on how much the clusters
        overlap; on well-separated data almost nothing sits near a
        boundary and almost nothing spills, which is the point.
    spill_mode:
        ``"virtual"`` (spill queries) or ``"physical"`` (spill data).
    seed:
        k-means seeding.
    """

    kind = "kmeans"

    def __init__(
        self,
        num_segments: int,
        *,
        spill_threshold: float = 0.85,
        spill_mode: str = "virtual",
        seed: int = 0,
        kmeans_iters: int = 25,
    ) -> None:
        super().__init__(num_segments)
        if not 0.0 < spill_threshold <= 1.0:
            raise ValueError(
                f"spill_threshold must be in (0, 1], got {spill_threshold}"
            )
        if spill_mode not in SPILL_MODES:
            raise ValueError(
                f"spill_mode must be one of {SPILL_MODES}, got {spill_mode!r}"
            )
        if kmeans_iters < 1:
            raise ValueError(f"kmeans_iters must be >= 1, got {kmeans_iters}")
        self.spill_threshold = float(spill_threshold)
        self.spill_mode = spill_mode
        self.seed = int(seed)
        self.kmeans_iters = int(kmeans_iters)
        self.centers: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self.centers is not None

    def fit(self, data: np.ndarray) -> "KMeansSegmenter":
        """Cluster (a sample of) the data into ``num_segments`` cells."""
        data = as_matrix(data, name="data")
        if data.shape[0] < self.num_segments:
            raise ValueError(
                f"need at least {self.num_segments} training points, "
                f"got {data.shape[0]}"
            )
        centers, _ = kmeans(
            data,
            self.num_segments,
            max_iters=self.kmeans_iters,
            seed=self.seed,
        )
        self.centers = centers.astype(np.float32)
        return self

    # -- routing -----------------------------------------------------------------
    def _nearest_two(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nearest cell, runner-up cell, margin ratio) per row."""
        self._require_fitted()
        points = as_matrix(points, dim=self.centers.shape[1], name="points")
        dists = (
            np.einsum("ij,ij->i", points, points)[:, np.newaxis]
            - 2.0 * points @ self.centers.T
            + np.einsum("ij,ij->i", self.centers, self.centers)[np.newaxis, :]
        )
        np.maximum(dists, 0.0, out=dists)
        if self.num_segments == 1:
            n = points.shape[0]
            return (
                np.zeros(n, dtype=np.int64),
                np.zeros(n, dtype=np.int64),
                np.zeros(n),
            )
        order = np.argpartition(dists, 1, axis=1)[:, :2]
        first_d = np.take_along_axis(dists, order, axis=1)
        swap = first_d[:, 0] > first_d[:, 1]
        nearest = np.where(swap, order[:, 1], order[:, 0])
        runner_up = np.where(swap, order[:, 0], order[:, 1])
        near_d = np.sqrt(np.where(swap, first_d[:, 1], first_d[:, 0]))
        far_d = np.sqrt(np.where(swap, first_d[:, 0], first_d[:, 1]))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(far_d > 0.0, near_d / far_d, 1.0)
        return nearest.astype(np.int64), runner_up.astype(np.int64), ratio

    def _route(self, points: np.ndarray, spill: bool) -> list[tuple[int, ...]]:
        nearest, runner_up, ratio = self._nearest_two(points)
        if not spill or self.spill_threshold >= 1.0:
            return [(int(cell),) for cell in nearest]
        spilled = ratio >= self.spill_threshold
        return [
            tuple(sorted({int(cell), int(other)})) if spill_here else (int(cell),)
            for cell, other, spill_here in zip(nearest, runner_up, spilled)
        ]

    def route_data_batch(self, data: np.ndarray) -> list[tuple[int, ...]]:
        return self._route(data, self.spill_mode == "physical")

    def route_query_batch(self, queries: np.ndarray) -> list[tuple[int, ...]]:
        return self._route(queries, self.spill_mode == "virtual")

    # -- persistence ---------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "num_segments": self.num_segments,
            "spill_threshold": self.spill_threshold,
            "spill_mode": self.spill_mode,
            "seed": self.seed,
            "kmeans_iters": self.kmeans_iters,
            "centers": None if self.centers is None else self.centers.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "KMeansSegmenter":
        segmenter = cls(
            int(payload["num_segments"]),
            spill_threshold=float(payload["spill_threshold"]),
            spill_mode=str(payload["spill_mode"]),
            seed=int(payload["seed"]),
            kmeans_iters=int(payload.get("kmeans_iters", 25)),
        )
        if payload.get("centers") is not None:
            segmenter.centers = np.asarray(
                payload["centers"], dtype=np.float32
            )
        return segmenter
