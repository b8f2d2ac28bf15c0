"""Structured request/response types for the online serving API.

Two frozen dataclasses carry a query batch through the serving tier:

- :class:`SearchRequest` -- everything one query batch needs: the queries
  themselves, accuracy knobs (``top_k``, ``ef``), the routing knob
  (``spill``), and per-request overrides of broker policy (``deadline_s``,
  ``hedging``, ``routing_hints``).
- :class:`SearchResponse` -- results plus structured serving metadata:
  which shard groups were routed and answered per row, which replica won
  each group, and per-stage timings.

``Broker.execute(request) -> response`` is the one entry point;
``search``/``search_batch`` are array-in/array-out wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import as_matrix

#: ``spill`` value requesting the legacy fan-out to every shard group.
SPILL_ALL = "all"

#: Sentinel for "use the broker-wide default" in per-request overrides.
INHERIT = "inherit"


@dataclass(frozen=True)
class SearchRequest:
    """One immutable query batch plus its serving policy.

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
        a positive int routes each query to its top-``spill`` segments
        and fans out only to the shard groups hosting them.
    deadline_s:
        Per-request deadline override.  :data:`INHERIT` (default) uses the
        broker's ``request_timeout_s``; ``None`` disables the deadline;
        a float sets one for this request.
    hedging:
        Per-request hedging override.  :data:`INHERIT` uses the broker's
        ``hedge_after_s``; ``False`` disables hedging; a float or
        ``"auto"`` overrides the delay for this request.
    routing_hints:
        Optional per-row segment ids (one tuple per query) that bypass
        the router's segment scoring; requires ``spill`` to be a
        positive int (hints on an unrouted request are rejected).
    """

    queries: np.ndarray
    top_k: int
    index_name: str = "default"
    ef: int | None = None
    spill: int | str | None = None
    deadline_s: float | str | None = INHERIT
    hedging: bool | float | str | None = INHERIT
    routing_hints: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        queries = as_matrix(self.queries, name="queries")
        object.__setattr__(self, "queries", queries)
        if self.top_k <= 0:
            raise ValueError(f"top_k must be positive, got {self.top_k}")
        if isinstance(self.spill, str) and self.spill != SPILL_ALL:
            raise ValueError(
                f"spill must be None, {SPILL_ALL!r} or a positive int, "
                f"got {self.spill!r}"
            )
        if isinstance(self.spill, int) and self.spill < 1:
            raise ValueError(f"spill must be >= 1, got {self.spill}")
        if isinstance(self.deadline_s, str) and self.deadline_s != INHERIT:
            raise ValueError(
                f"deadline_s must be {INHERIT!r}, None or a float, "
                f"got {self.deadline_s!r}"
            )
        if isinstance(self.hedging, str) and self.hedging not in (
            INHERIT,
            "auto",
        ):
            raise ValueError(
                f"hedging must be {INHERIT!r}, False, 'auto' or a float "
                f"delay, got {self.hedging!r}"
            )
        if self.routing_hints is not None:
            if not self.routed:
                raise ValueError(
                    "routing_hints requires routed execution: set spill "
                    f"to a positive int, got spill={self.spill!r}"
                )
            hints = tuple(
                tuple(int(segment) for segment in row)
                for row in self.routing_hints
            )
            if len(hints) != queries.shape[0]:
                raise ValueError(
                    f"routing_hints has {len(hints)} rows for "
                    f"{queries.shape[0]} queries"
                )
            object.__setattr__(self, "routing_hints", hints)

    @property
    def routed(self) -> bool:
        """Whether this request asks for segment-aware (pruned) fan-out."""
        return self.spill is not None and self.spill != SPILL_ALL

    @property
    def overrides_policy(self) -> bool:
        """Whether any broker-wide policy is overridden per-request."""
        return self.deadline_s != INHERIT or self.hedging != INHERIT


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
