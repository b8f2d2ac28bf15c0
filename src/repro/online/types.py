"""Structured request/response types for the online serving API.

Two frozen dataclasses carry a query batch through the serving tier:

- :class:`SearchRequest` -- what changes a query batch's answer and
  nothing else: the queries themselves, the index, the accuracy knobs
  (``top_k``, ``ef``) and the routing knob (``spill``).  How the answer
  is obtained -- deadlines, hedging, caching, batching -- is the
  broker's one :class:`~repro.online.broker.BrokerPolicy`.
- :class:`SearchResponse` -- results plus structured serving metadata:
  which shard groups were routed and answered per row, which replica won
  each group, and per-stage timings.

``Broker.execute(request) -> response`` is the one entry point;
``search``/``search_batch`` are array-in/array-out wrappers over it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import as_matrix

#: ``spill`` value requesting the legacy fan-out to every shard group.
SPILL_ALL = "all"


@dataclass(frozen=True)
class SearchRequest:
    """One immutable query batch: the five values that change its answer.

    Parameters
    ----------
    queries:
        ``(B, dim)`` float batch (a single vector is promoted to a batch
        of one).
    top_k:
        Number of neighbours per query; must be positive.
    index_name:
        Which deployed index to search.
    ef:
        HNSW beam width; ``None`` uses the index configuration.
    spill:
        Segment-routing knob.  ``None`` or :data:`SPILL_ALL` fans out to
        every shard group (bit-identical to the pre-router broker);
        a positive integer (any ``operator.index``-able value but a
        bool, stored as an ``int``) routes each query to its
        top-``spill`` segments and fans out only to the shard groups
        hosting them.
    """

    queries: np.ndarray
    top_k: int
    index_name: str = "default"
    ef: int | None = None
    spill: int | str | None = None

    def __post_init__(self) -> None:
        queries = as_matrix(self.queries, name="queries")
        object.__setattr__(self, "queries", queries)
        if self.top_k <= 0:
            raise ValueError(f"top_k must be positive, got {self.top_k}")
        spill = self.spill
        if spill is None or isinstance(spill, str):
            if spill not in (None, SPILL_ALL):
                raise ValueError(
                    f"spill must be None, {SPILL_ALL!r} or a positive int, "
                    f"got {spill!r}"
                )
            return
        if isinstance(spill, (bool, np.bool_)):
            raise TypeError(f"spill must be an int, not a bool: {spill!r}")
        spill = operator.index(spill)
        if spill < 1:
            raise ValueError(f"spill must be >= 1, got {spill}")
        object.__setattr__(self, "spill", spill)

    @property
    def routed(self) -> bool:
        """Whether this request asks for segment-aware (pruned) fan-out."""
        return self.spill is not None and self.spill != SPILL_ALL


@dataclass(frozen=True)
class SearchResponse:
    """Results of one executed :class:`SearchRequest`.

    ``ids``/``dists`` are ``(B, top_k)`` with ``-1`` / ``inf`` padding,
    exactly as ``search_batch`` returns them.  The metadata arrays
    describe the fan-out: ``shards_routed[row]`` is how many shard groups
    the router selected for that row (== ``num_shards`` when unrouted) and
    ``shards_answered[row]`` how many of those actually contributed, so
    ``shards_answered < shards_routed`` marks a degraded row.
    """

    ids: np.ndarray
    dists: np.ndarray
    shards_answered: np.ndarray
    shards_routed: np.ndarray
    num_shards: int
    replicas_used: tuple[int, ...] | None = None
    timings: dict[str, float] = field(default_factory=dict)
    #: Aggregated search-cost counters for this batch (hops, distance
    #: comps, ...; see :mod:`repro.obs.cost`), when the broker collected
    #: them.  Cache hits carry no cost (no search ran).
    cost: dict[str, int] | None = None
    #: The request's exported trace (``Trace.to_dict`` form), when it
    #: was sampled or force-kept by the slow-query log.
    trace: dict | None = None

    @property
    def degraded_rows(self) -> int:
        """Rows answered by fewer shard groups than were routed."""
        return int(np.sum(self.shards_answered < self.shards_routed))

    @property
    def fully_answered(self) -> bool:
        """Whether every row got an answer from every routed group."""
        return self.degraded_rows == 0
