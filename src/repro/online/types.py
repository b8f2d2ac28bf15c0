"""Structured request/response types for the online serving API.

Two frozen dataclasses carry a query batch through the serving tier:

- :class:`SearchRequest` -- what changes a query batch's answer and
  nothing else: the queries themselves, the index and the accuracy
  knobs (``top_k``, ``ef``).  How the answer is obtained is not the
  request's: routing follows the index's own segmenter, and deadlines,
  hedging, caching and batching are the broker's one
  :class:`~repro.online.broker.BrokerPolicy`.
- :class:`SearchResponse` -- results plus structured serving metadata:
  how many shard groups were routed and answered per row, the search
  cost and the request's trace.

``Broker.execute(request) -> response`` (and ``OnlineService.execute``,
which picks the broker by ``index_name``) is the one entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import as_matrix


@dataclass(frozen=True)
class SearchRequest:
    """One immutable query batch: the four values that change its answer.

    Parameters
    ----------
    queries:
        ``(B, dim)`` float batch (a single vector is promoted to a batch
        of one); a NaN or infinite value is a ``ValueError`` here, before
        any shard is asked.
    top_k:
        Number of neighbours per query; must be positive.
    index_name:
        Which deployed index to search.
    ef:
        HNSW beam width, positive; ``None`` uses the index configuration.
    """

    queries: np.ndarray
    top_k: int
    index_name: str = "default"
    ef: int | None = None

    def __post_init__(self) -> None:
        queries = as_matrix(self.queries, name="queries", finite=True)
        object.__setattr__(self, "queries", queries)
        if self.top_k <= 0:
            raise ValueError(f"top_k must be positive, got {self.top_k}")
        if self.ef is not None and self.ef < 1:
            raise ValueError(f"ef must be positive, got {self.ef}")


@dataclass(frozen=True)
class SearchResponse:
    """Results of one executed :class:`SearchRequest`.

    ``ids``/``dists`` are ``(B, top_k)`` with ``-1`` / ``inf`` padding
    past a short row.  The metadata arrays describe the fan-out:
    ``shards_routed[row]`` is how many shard groups host a segment the
    row routes to (``num_shards`` wherever every group hosts every
    segment) and ``shards_answered[row]`` how many of those actually
    contributed, so ``shards_answered < shards_routed`` marks a degraded
    row.
    """

    ids: np.ndarray
    dists: np.ndarray
    shards_answered: np.ndarray
    shards_routed: np.ndarray
    num_shards: int
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
