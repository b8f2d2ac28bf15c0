"""HNSW hyper-parameters.

Names follow the original paper / hnswlib conventions:

- ``M`` -- target out-degree on the upper layers; ``max_m0`` (default
  ``2 * M``) bounds the base layer, which needs more links because it holds
  every element.
- ``ef_construction`` -- beam width used while inserting.
- ``ef_search`` -- default beam width used while querying; per-query
  override is available on :meth:`repro.hnsw.HnswIndex.search`.
- ``ml`` -- level-generation factor; the level of a new point is
  ``floor(-ln(U) * ml)``.  The paper recommends ``1 / ln(M)``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from repro.distance.scorer import QUANTIZE_KINDS
from repro.utils.flags import FlagFields, knob


@dataclass(frozen=True)
class HnswParams(FlagFields):
    """Immutable bundle of HNSW hyper-parameters (validated on creation).

    A :func:`~repro.utils.flags.knob` field is also a ``build`` /
    ``bench`` flag of ``repro.cli`` (its help line is the flag's).
    """

    M: int = knob(16, "target out-degree (base layer: twice it)", flag="--hnsw-m")
    ef_construction: int = knob(100, "beam width while inserting")
    ef_search: int = 50
    max_m: int | None = None
    max_m0: int | None = None
    ml: float | None = None
    seed: int = 0
    keep_pruned_connections: bool = True
    #: Use SELECT-NEIGHBORS-HEURISTIC (True, the paper's choice) or plain
    #: closest-M selection (False; ablation only -- hurts recall on
    #: clustered data).
    use_heuristic: bool = True
    #: Indices holding fewer than this many vectors answer queries by an
    #: exact ``(B, d) @ (d, n)`` GEMM scan instead of graph traversal --
    #: on tiny segments (skewed segmenter splits, small tail shards) the
    #: flat scan is both exact and faster than beam search.  ``0``
    #: (default) disables the fallback; the graph is still *built*
    #: either way, so a segment that grows past the threshold switches
    #: to graph search transparently.
    min_graph_size: int = knob(
        0,
        "segments smaller than this answer by exact GEMM scan instead of "
        "graph search (0 disables)",
    )
    #: Construction wave size: :meth:`~repro.hnsw.HnswIndex.add` groups
    #: incoming rows into waves of this many, descends and beam-searches
    #: each wave against a snapshot of the graph through the lockstep
    #: batch kernels, then links in deterministic row order.  ``0`` and
    #: ``1`` both mean waves of one row.  Larger waves amortise more
    #: numpy dispatch but search a slightly staler snapshot; the default
    #: matches the serving path's lockstep group size.  One-row
    #: waves search on the heap kernels and select neighbors ~13 % slower
    #: than 64-row waves do: ~100 us per row through the stacked
    #: ``(P, C, C)`` round, where the tuple loop it replaced took ~40
    #: (stated, not fixed: ROADMAP 2(d); no ledger workload builds so).
    build_batch: int = knob(
        64,
        "construction wave size: rows inserted per lockstep wave "
        "(0 and 1 both mean one row per wave)",
    )
    #: Compressed-domain scoring backend for the beam search: ``"none"``
    #: (float32 rows, today's path), ``"int8"`` (per-dimension scalar
    #: quantization, ~4x less memory traffic per beam round) or ``"pq"``
    #: (product quantization scored via ADC lookup tables).  With either
    #: quantized backend the traversal runs entirely on codes and the
    #: final candidate set is rescored exactly against the retained
    #: float32 rows, so returned distances are bit-identical to the
    #: float path for the candidates both would return.
    quantize: str = knob(
        "none",
        "compressed-domain scoring: beam search runs on int8 or PQ codes "
        "and the final candidates are rescored exactly against the "
        "retained float32 vectors ('none' keeps the all-float path)",
        choices=QUANTIZE_KINDS,
    )
    #: Rescore depth for quantized search: the beam keeps
    #: ``max(ef, k, rescore_k)`` candidates on codes and all of them are
    #: rescored exactly before the top ``k`` are returned.  ``0`` means
    #: "just the beam" (``max(ef, k)``).  Ignored when ``quantize`` is
    #: ``"none"``.
    rescore_k: int = knob(
        0,
        "rescore depth for quantized search: the beam keeps "
        "max(ef, k, rescore_k) candidates on codes before the exact "
        "rescore (0 = just the beam)",
    )
    #: Subspace count for the ``"pq"`` backend (clamped to the largest
    #: divisor of the dimensionality that does not exceed it).
    pq_subspaces: int = knob(
        8,
        "subspace count for --quantize pq (clamped to the largest divisor "
        "of the dimensionality)",
    )

    def __post_init__(self) -> None:
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        if self.ef_construction < 1:
            raise ValueError(
                f"ef_construction must be >= 1, got {self.ef_construction}"
            )
        if self.ef_search < 1:
            raise ValueError(f"ef_search must be >= 1, got {self.ef_search}")
        if self.max_m is not None and self.max_m < 1:
            raise ValueError(f"max_m must be >= 1, got {self.max_m}")
        if self.max_m0 is not None and self.max_m0 < 1:
            raise ValueError(f"max_m0 must be >= 1, got {self.max_m0}")
        if self.ml is not None and self.ml <= 0:
            raise ValueError(f"ml must be positive, got {self.ml}")
        if self.min_graph_size < 0:
            raise ValueError(
                f"min_graph_size must be >= 0, got {self.min_graph_size}"
            )
        if self.build_batch < 0:
            raise ValueError(
                f"build_batch must be >= 0, got {self.build_batch}"
            )
        self.check_choices()
        if self.rescore_k < 0:
            raise ValueError(
                f"rescore_k must be >= 0, got {self.rescore_k}"
            )
        if self.pq_subspaces < 1:
            raise ValueError(
                f"pq_subspaces must be >= 1, got {self.pq_subspaces}"
            )

    @property
    def effective_max_m(self) -> int:
        """Maximum out-degree on layers above the base layer."""
        return self.max_m if self.max_m is not None else self.M

    @property
    def effective_max_m0(self) -> int:
        """Maximum out-degree on the base layer (default ``2 * M``)."""
        return self.max_m0 if self.max_m0 is not None else 2 * self.M

    @property
    def effective_ml(self) -> float:
        """Level-generation factor (default ``1 / ln(M)``)."""
        return self.ml if self.ml is not None else 1.0 / math.log(self.M)

    def to_dict(self) -> dict:
        """Plain-dict form used by the serialization layer (field order)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "HnswParams":
        """Inverse of :meth:`to_dict` (ignores unknown keys)."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})
