"""Segmenter interface and serialization registry.

A segmenter answers two questions:

- ``route_data_batch(x)`` -- which segment(s) should store each row of
  ``x``?  More than one only under *physical* spill.
- ``route_query(q)`` -- which segment(s) should a query probe?  More than
  one only under *virtual* spill.

A shard searches exactly the segments ``route_query_batch`` names; its
routing has no other source.

The LANNS paper pre-learns one segmenter per index and shares it across
all shards (Section 5.1), which is why segmenters serialize independently
of any index data.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import SegmenterNotFittedError
from repro.utils.validation import as_matrix

#: Spill modes (Section 4.3.2 / Table 7): query-side or data-side.
SPILL_MODES = ("virtual", "physical")


class Segmenter(ABC):
    """Routes data points and queries to segments within one shard."""

    #: Registry key, e.g. ``"rs"``, ``"rh"``, ``"apd"``.
    kind: str = ""

    def __init__(self, num_segments: int) -> None:
        if num_segments < 1:
            raise ValueError(f"num_segments must be >= 1, got {num_segments}")
        self.num_segments = int(num_segments)

    # -- lifecycle ---------------------------------------------------------------
    @property
    @abstractmethod
    def is_fitted(self) -> bool:
        """Whether the segmenter is ready to route."""

    @abstractmethod
    def fit(self, data: np.ndarray) -> "Segmenter":
        """Learn the segmenter from (a sample of) the data; returns self."""

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise SegmenterNotFittedError(
                f"{type(self).__name__} must be fitted before routing"
            )

    # -- routing -----------------------------------------------------------------
    @abstractmethod
    def route_data_batch(self, data: np.ndarray) -> list[tuple[int, ...]]:
        """Segment ids that should *store* each row of ``data``."""

    @abstractmethod
    def route_query_batch(self, queries: np.ndarray) -> list[tuple[int, ...]]:
        """Segment ids each query row should *probe*."""

    def route_query(self, query: np.ndarray) -> tuple[int, ...]:
        """Segment ids a single query should probe."""
        return self.route_query_batch(as_matrix(query))[0]

    # -- persistence ----------------------------------------------------------------
    @abstractmethod
    def to_dict(self) -> dict:
        """JSON/npz-friendly payload; must round-trip via the registry."""

    @classmethod
    @abstractmethod
    def from_dict(cls, payload: dict) -> "Segmenter":
        """Inverse of :meth:`to_dict`."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_segments={self.num_segments}, "
            f"fitted={self.is_fitted})"
        )


_REGISTRY: dict[str, type[Segmenter]] = {}


def register_segmenter(cls: type[Segmenter]) -> type[Segmenter]:
    """Class decorator: register ``cls`` under its ``kind`` key."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must define a non-empty `kind`")
    _REGISTRY[cls.kind] = cls
    return cls


def registered_kinds() -> list[str]:
    """Registered segmenter kind names."""
    return sorted(_REGISTRY)


def get_segmenter_class(kind: str) -> type[Segmenter]:
    """Look up a segmenter class by kind name."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown segmenter kind {kind!r}; available: {registered_kinds()}"
        ) from None


def segmenter_from_dict(payload: dict) -> Segmenter:
    """Deserialize any registered segmenter from its ``to_dict`` payload."""
    kind = payload.get("kind")
    if kind is None:
        raise ValueError("segmenter payload is missing the 'kind' field")
    return get_segmenter_class(kind).from_dict(payload)
