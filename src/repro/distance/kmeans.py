"""Lloyd's k-means with k-means++ seeding, from scratch.

Trains the per-subspace codebooks of
:class:`~repro.distance.scorer.PqAdcCodec` and the cells of
:class:`~repro.segmenters.kmeans_segmenter.KMeansSegmenter`.  Kept small:
vectorised assignment, empty-cluster re-seeding, early stop on stable
assignments.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import resolve_rng
from repro.utils.validation import as_matrix


def _plus_plus_init(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centers[0] = data[first]
    closest = ((data - centers[0]) ** 2).sum(axis=1)
    for index in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            # All points coincide with chosen centers; fill randomly.
            centers[index:] = data[rng.integers(0, n, size=k - index)]
            break
        probabilities = closest / total
        choice = int(rng.choice(n, p=probabilities))
        centers[index] = data[choice]
        distance = ((data - centers[index]) ** 2).sum(axis=1)
        np.minimum(closest, distance, out=closest)
    return centers


def _assign(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center assignment via one GEMM."""
    cross = data @ centers.T
    center_norms = np.einsum("ij,ij->i", centers, centers)
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; ||x||^2 is constant per row.
    return np.argmin(center_norms[np.newaxis, :] - 2.0 * cross, axis=1)


def kmeans(
    data: np.ndarray,
    k: int,
    *,
    max_iters: int = 25,
    seed: int | np.random.Generator | None = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster ``data`` into ``k`` groups.

    Returns
    -------
    (centers, assignment):
        ``(k, dim)`` float64 centroids and per-row cluster ids.
    """
    data = as_matrix(data, name="data").astype(np.float64)
    n = data.shape[0]
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points {n}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    rng = resolve_rng(seed)
    centers = _plus_plus_init(data, k, rng)
    assignment = _assign(data, centers)
    for _ in range(max_iters):
        for cluster in range(k):
            mask = assignment == cluster
            if mask.any():
                centers[cluster] = data[mask].mean(axis=0)
            else:
                # Re-seed empty clusters with a random point.
                centers[cluster] = data[int(rng.integers(0, n))]
        new_assignment = _assign(data, centers)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    return centers, assignment
