"""HNSW hyper-parameters.

Names follow the original paper / hnswlib conventions:

- ``M`` -- out-degree bound on the upper layers; the base layer, which
  holds every element, allows ``2 * M`` (hnswlib's fixed bounds).
- ``ef_construction`` -- beam width used while inserting.
- ``ef_search`` -- default beam width used while querying; per-query
  override is available on :meth:`repro.hnsw.HnswIndex.search`.

The level of a new point is ``floor(-ln(U) * mL)`` with the paper's
recommended level-generation factor ``mL = 1 / ln(M)``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from repro.distance.scorer import QUANTIZE_KINDS
from repro.utils.flags import FlagFields, knob
from repro.utils.validation import check_retired


@dataclass(frozen=True)
class HnswParams(FlagFields):
    """Immutable bundle of HNSW hyper-parameters (validated on creation).

    A :func:`~repro.utils.flags.knob` field is also a ``build`` /
    ``bench`` flag of ``repro.cli`` (its help line is the flag's).
    """

    M: int = knob(16, "target out-degree (base layer: twice it)", flag="--hnsw-m")
    ef_construction: int = knob(100, "beam width while inserting")
    ef_search: int = 50
    seed: int = 0
    #: Use SELECT-NEIGHBORS-HEURISTIC (True, the paper's choice) or plain
    #: closest-M selection (False; ablation only -- hurts recall on
    #: clustered data).
    use_heuristic: bool = True
    #: Indices holding fewer than this many vectors answer queries by an
    #: exact scan instead of graph traversal, one query row at a time
    #: against every stored row (:meth:`~repro.hnsw.HnswIndex._scan`) --
    #: on tiny segments (skewed segmenter splits, small tail shards) the
    #: flat scan is both exact and faster than beam search.  ``0``
    #: (default) disables the fallback; the graph is still *built*
    #: either way, so a segment that grows past the threshold switches
    #: to graph search transparently.
    min_graph_size: int = knob(
        0,
        "segments smaller than this answer by an exact per-row scan instead "
        "of graph search (0 disables)",
    )
    #: Construction wave size: :meth:`~repro.hnsw.HnswIndex.add` groups
    #: incoming rows into waves of this many, descends and beam-searches
    #: each wave against a snapshot of the graph through the lockstep
    #: batch kernels, then links in deterministic row order.  ``0`` and
    #: ``1`` both mean waves of one row.  Larger waves amortise more
    #: numpy dispatch but search a slightly staler snapshot; the default
    #: matches the serving path's lockstep group size.  One-row
    #: waves search on the heap kernels and select with up to ``m - 1``
    #: one-column scoring calls per row, which a 64-row wave shares: a
    #: one-row-wave build measured +3.4 % against the stacked GEMM round
    #: that column selection replaced (ROADMAP 8; no ledger workload
    #: builds so).
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

    #: Keys earlier exports persisted, each with what this build reads
    #: them as, given ``M``: ``null`` or the degree bounds and level factor
    #: ``M`` fixes, and insertion keeping pruned candidates.
    _RETIRED = {
        "max_m": lambda M: (None, M),
        "max_m0": lambda M: (None, 2 * M),
        "ml": lambda M: (None, 1.0 / math.log(M)),
        "keep_pruned_connections": lambda M: (True,),
    }

    def __post_init__(self) -> None:
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        if self.ef_construction < 1:
            raise ValueError(
                f"ef_construction must be >= 1, got {self.ef_construction}"
            )
        if self.ef_search < 1:
            raise ValueError(f"ef_search must be >= 1, got {self.ef_search}")
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

    def to_dict(self) -> dict:
        """Plain-dict form used by the serialization layer (field order)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "HnswParams":
        """Inverse of :meth:`to_dict`: unknown keys are ignored, a
        ``_RETIRED`` key at another value than this build's is a
        ``ValueError`` naming it."""
        if not isinstance(payload, dict):
            raise TypeError(
                f"HNSW parameters are a {type(payload).__name__}, not a dict"
            )
        known = {f for f in cls.__dataclass_fields__}
        params = cls(**{k: v for k, v in payload.items() if k in known})
        check_retired(payload, {k: fix(params.M) for k, fix in cls._RETIRED.items()})
        return params
