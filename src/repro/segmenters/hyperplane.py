"""Hyperplane-tree segmenters with virtual / physical spill (Section 4.3.2).

Both RH and APD learn a short balanced binary tree.  Each internal node
holds a unit hyperplane ``h``, the median ``split`` of the training
projections ``U = D.h``, and the spill boundaries ``lo`` / ``hi`` -- the
``0.5 - alpha`` and ``0.5 + alpha`` fractile points of ``U``.

Routing (for a point/query ``v`` with projection ``p = v.h``):

========  =============================  ============================
spill     data routing                   query routing
========  =============================  ============================
virtual   one side (``p < split``?)      both sides when ``lo <= p <= hi``
physical  both sides when in boundary    one side (``p < split``?)
========  =============================  ============================

So exactly one of the two directions fans out; the paper's Table 7 shows
the trade: physical spill costs ~``2*alpha`` extra memory per level,
virtual spill costs query fan-out (lower QPS).
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.segmenters.base import SPILL_MODES, Segmenter
from repro.utils.rng import resolve_rng
from repro.utils.validation import as_matrix


@dataclass
class HyperplaneNode:
    """One internal node of the segmenter tree.

    Attributes
    ----------
    hyperplane:
        Unit normal vector ``h`` of shape ``(dim,)``.
    split:
        Median of the training projections; points with ``x.h < split``
        go left.
    lo, hi:
        The ``0.5 - alpha`` / ``0.5 + alpha`` fractiles of the training
        projections -- the spill boundaries.
    """

    hyperplane: np.ndarray
    split: float
    lo: float
    hi: float

    def side(self, projections: np.ndarray) -> np.ndarray:
        """0 for left, 1 for right, per projection value."""
        return (projections >= self.split).astype(np.int8)

    def in_boundary(self, projections: np.ndarray) -> np.ndarray:
        """Boolean mask of projections inside the spill boundary."""
        return (projections >= self.lo) & (projections <= self.hi)


class HyperplaneTreeSegmenter(Segmenter):
    """Base class for RH / APD: a complete binary tree of hyperplanes.

    Parameters
    ----------
    num_segments:
        Must be a power of two; the tree depth is ``log2(num_segments)``.
    alpha:
        Spill fraction in ``[0, 0.5)``; ``alpha = 0.15`` routes ~30% of
        queries to both children at each level (paper default).
    spill_mode:
        ``"virtual"`` (query-side, the production choice) or
        ``"physical"`` (data-side duplication).
    seed:
        Seed for any randomness in hyperplane generation.
    """

    def __init__(
        self,
        num_segments: int,
        *,
        alpha: float = 0.15,
        spill_mode: str = "virtual",
        seed: int = 0,
    ) -> None:
        super().__init__(num_segments)
        if num_segments & (num_segments - 1):
            raise ValueError(
                f"num_segments must be a power of two, got {num_segments}"
            )
        if not 0.0 <= alpha < 0.5:
            raise ValueError(f"alpha must be in [0, 0.5), got {alpha}")
        if spill_mode not in SPILL_MODES:
            raise ValueError(
                f"spill_mode must be one of {SPILL_MODES}, got {spill_mode!r}"
            )
        self.alpha = float(alpha)
        self.spill_mode = spill_mode
        self.seed = int(seed)
        self.depth = int(num_segments).bit_length() - 1
        # Heap-ordered complete binary tree: node i has children 2i+1, 2i+2.
        self._nodes: list[HyperplaneNode | None] = [None] * (num_segments - 1)
        self.dim: int | None = None

    # -- fitting -----------------------------------------------------------------
    @abstractmethod
    def _make_hyperplane(
        self, subset: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Return a unit hyperplane for the data reaching one tree node."""

    @property
    def is_fitted(self) -> bool:
        if self.depth == 0:
            return True
        return all(node is not None for node in self._nodes)

    def fit(self, data: np.ndarray) -> "HyperplaneTreeSegmenter":
        """Learn hyperplanes, splits and spill boundaries level by level."""
        data = as_matrix(data, name="data")
        if data.shape[0] < 2 ** self.depth:
            raise ValueError(
                f"need at least {2 ** self.depth} training points for "
                f"{self.num_segments} segments, got {data.shape[0]}"
            )
        self.dim = data.shape[1]
        rng = resolve_rng(self.seed)
        if self.depth > 0:
            self._fit_node(0, data, rng)
        return self

    def _fit_node(
        self, node_index: int, subset: np.ndarray, rng: np.random.Generator
    ) -> None:
        hyperplane = self._make_hyperplane(subset, rng)
        projections = subset @ hyperplane
        split = float(np.median(projections))
        lo = float(np.quantile(projections, 0.5 - self.alpha))
        hi = float(np.quantile(projections, 0.5 + self.alpha))
        self._nodes[node_index] = HyperplaneNode(hyperplane, split, lo, hi)
        left_child = 2 * node_index + 1
        if left_child >= len(self._nodes):
            return
        left_mask = projections < split
        self._fit_node(left_child, subset[left_mask], rng)
        self._fit_node(left_child + 1, subset[~left_mask], rng)

    # -- routing ----------------------------------------------------------------------
    def _route(self, points: np.ndarray, spill: bool) -> list[tuple[int, ...]]:
        """Route rows down the tree; ``spill`` controls boundary fan-out."""
        self._require_fitted()
        points = as_matrix(points, dim=self.dim, name="points")
        n = points.shape[0]
        if self.depth == 0:
            return [(0,)] * n
        routes: list[list[int]] = [[] for _ in range(n)]
        self._route_node(0, 0, points, np.arange(n), spill, routes)
        return [tuple(sorted(set(route))) for route in routes]

    def _route_node(
        self,
        node_index: int,
        first_segment: int,
        points: np.ndarray,
        row_ids: np.ndarray,
        spill: bool,
        routes: list[list[int]],
    ) -> None:
        node = self._nodes[node_index]
        assert node is not None
        projections = points @ node.hyperplane
        go_left = projections < node.split
        if spill:
            in_boundary = node.in_boundary(projections)
            left_mask = go_left | in_boundary
            right_mask = ~go_left | in_boundary
        else:
            left_mask = go_left
            right_mask = ~go_left
        left_child = 2 * node_index + 1
        subtree_leaves = 2 ** (self.depth - _node_level(node_index) - 1)
        if left_child >= len(self._nodes):
            # Children are leaves: record segment ids.
            for row in row_ids[left_mask]:
                routes[row].append(first_segment)
            for row in row_ids[right_mask]:
                routes[row].append(first_segment + 1)
            return
        if np.any(left_mask):
            self._route_node(
                left_child,
                first_segment,
                points[left_mask],
                row_ids[left_mask],
                spill,
                routes,
            )
        if np.any(right_mask):
            self._route_node(
                left_child + 1,
                first_segment + subtree_leaves,
                points[right_mask],
                row_ids[right_mask],
                spill,
                routes,
            )

    def route_data_batch(self, data: np.ndarray) -> list[tuple[int, ...]]:
        return self._route(data, self.spill_mode == "physical")

    def route_query_batch(self, queries: np.ndarray) -> list[tuple[int, ...]]:
        return self._route(queries, self.spill_mode == "virtual")

    # -- persistence -------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = {
            "kind": self.kind,
            "num_segments": self.num_segments,
            "alpha": self.alpha,
            "spill_mode": self.spill_mode,
            "seed": self.seed,
            "dim": self.dim,
            "nodes": [
                None
                if node is None
                else {
                    "hyperplane": node.hyperplane.tolist(),
                    "split": node.split,
                    "lo": node.lo,
                    "hi": node.hi,
                }
                for node in self._nodes
            ],
        }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "HyperplaneTreeSegmenter":
        segmenter = cls(
            int(payload["num_segments"]),
            alpha=float(payload["alpha"]),
            spill_mode=str(payload["spill_mode"]),
            seed=int(payload["seed"]),
        )
        segmenter.dim = None if payload["dim"] is None else int(payload["dim"])
        segmenter._nodes = [
            None
            if node is None
            else HyperplaneNode(
                np.asarray(node["hyperplane"], dtype=np.float32),
                float(node["split"]),
                float(node["lo"]),
                float(node["hi"]),
            )
            for node in payload["nodes"]
        ]
        return segmenter


def _node_level(node_index: int) -> int:
    """Level of a node in heap order (root = level 0)."""
    return (node_index + 1).bit_length() - 1
