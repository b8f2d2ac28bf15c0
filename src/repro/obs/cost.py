"""Per-query-batch search-cost accounting.

The paper's core tradeoff is recall vs *work* (Tables 3/6): how many
graph hops, distance computations and candidate visits a query spends.
:class:`SearchCost` is the accumulator the lockstep HNSW kernels write
into -- passed as an optional ``cost=None`` parameter so the hot path is
bit-for-bit unchanged when accounting is off -- and the serving tier
carries over the wire (``as_dict`` / ``from_dict`` / ``merge``) into
``SearchResponse.cost`` and the metrics registry.

Counter semantics (all totals over the query batch the cost was
collected for):

- ``hops``: greedy/beam advance steps taken (one per query per round a
  query moved or popped a candidate).
- ``distance_comps``: full distance evaluations, including quantized
  code scoring and the exact rescore (the ``Scorer.ops`` delta).
- ``candidates_visited``: neighbor candidates scored by the beam rounds.
- ``segments_probed``: (query row, segment) probe executions.
- ``rescore_rows``: beam survivors rescored exactly (quantized path).
"""

from __future__ import annotations

FIELDS = (
    "hops",
    "distance_comps",
    "candidates_visited",
    "segments_probed",
    "rescore_rows",
)


class SearchCost:
    """Mutable cost counters for one query batch (see module docstring)."""

    __slots__ = FIELDS

    def __init__(
        self,
        hops: int = 0,
        distance_comps: int = 0,
        candidates_visited: int = 0,
        segments_probed: int = 0,
        rescore_rows: int = 0,
    ) -> None:
        self.hops = int(hops)
        self.distance_comps = int(distance_comps)
        self.candidates_visited = int(candidates_visited)
        self.segments_probed = int(segments_probed)
        self.rescore_rows = int(rescore_rows)

    def merge(self, other: "SearchCost | dict | None") -> "SearchCost":
        """Add another cost (or its ``as_dict`` form) into this one."""
        if other is None:
            return self
        if isinstance(other, dict):
            other = SearchCost.from_dict(other)
        for field in FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))
        return self

    def as_dict(self) -> dict:
        return {field: getattr(self, field) for field in FIELDS}

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchCost":
        """Build from ``as_dict`` output; unknown keys are ignored."""
        return cls(**{
            field: int(payload.get(field, 0)) for field in FIELDS
        })

    def __eq__(self, other) -> bool:
        if not isinstance(other, SearchCost):
            return NotImplemented
        return all(
            getattr(self, field) == getattr(other, field) for field in FIELDS
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)}" for f in FIELDS)
        return f"SearchCost({inner})"
