"""Configuration for a LANNS index.

``LannsConfig`` bundles every tunable of the platform: the ``(n, m)``
partitioning of the paper (``num_shards``, ``num_segments``), the
segmentation strategy and its spill parameters, the HNSW hyper-parameters
used inside each segment, and the ``perShardTopK`` confidence.

The config serializes to a plain dict; the storage layer couples it with
every exported index so offline build and online serving can never drift
apart (Section 7 of the paper, enforced by
:class:`repro.errors.MetadataMismatchError`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache

from repro.core.topk import per_shard_top_k
from repro.errors import ConfigError
from repro.hnsw.params import HnswParams
from repro.segmenters.base import SPILL_MODES
from repro.utils.flags import FlagFields, knob

#: Segmenter kinds accepted by the platform.
SEGMENTER_KINDS = ("rs", "rh", "apd")
#: Metrics supported end-to-end.
METRICS = ("euclidean", "cosine", "inner_product")
#: First-level placement strategies.
SHARDING_MODES = ("hash", "segment")

#: Eq. 5-6 is a pure function of four scalars, a broker evaluates it on
#: every multi-shard request, and its ``norm.ppf`` costs ~60 us a call:
#: keep the few distinct answers a process ever asks for.
_per_shard_top_k = lru_cache(maxsize=1024)(per_shard_top_k)


@dataclass(frozen=True)
class LannsConfig(FlagFields):
    """All tunables of a LANNS deployment.

    A :func:`~repro.utils.flags.knob` field is also a ``build`` /
    ``bench`` flag of ``repro.cli``, as are the knob fields of ``hnsw``.

    Parameters
    ----------
    num_shards:
        First-level partitions; each shard is hosted on its own (simulated)
        server node and every query visits every shard.
    sharding:
        First-level placement.  ``"hash"`` (default) spreads documents by
        stable key hash, so every shard hosts every segment and queries
        must visit every shard.  ``"segment"`` aligns shards with
        segments (requires ``num_shards == num_segments``): shard ``s``
        hosts exactly segment ``s``, which lets the online router prune
        fan-out to the top-``spill`` segments' shards.
    num_segments:
        Second-level partitions per shard.  Must be a power of two for the
        hyperplane segmenters (the tree is binary).
    segmenter:
        ``"rs"``, ``"rh"`` or ``"apd"``.
    alpha:
        Spill fraction; the paper uses 0.15 ("we route about 30% of
        queries to both partitions at any level").
    spill_mode:
        ``"virtual"`` (query-side spill, production default) or
        ``"physical"`` (data-side duplication).
    metric:
        Distance function shared by segmenter and HNSW.
    hnsw:
        Per-segment HNSW hyper-parameters.
    topk_confidence:
        ``topK.confidence`` for the perShardTopK optimisation (Eq. 5-6);
        paper default 0.95.
    use_per_shard_topk:
        Disable to always fetch full topK from each shard.
    paper_literal_probit:
        Use the paper's literal ``(1 - p/2)`` quantile instead of the
        standard ``(1 + p)/2``; see DESIGN.md substitution #7.
    segmenter_sample_size:
        Subsample budget for segmenter learning (paper: 250k).
    seed:
        Master seed; per-segment HNSW seeds are derived from it.
    """

    num_shards: int = knob(1, "first-level partitions (n)", flag="--shards")
    num_segments: int = knob(
        1, "second-level partitions per shard (m)", flag="--segments"
    )
    sharding: str = knob(
        "hash",
        "'segment' aligns shards with segments (requires shards == "
        "segments): each shard hosts exactly one segment, which lets the "
        "online router prune fan-out to the top-spill shard groups",
        choices=SHARDING_MODES,
    )
    segmenter: str = knob(
        "rs", "segmentation strategy", choices=SEGMENTER_KINDS
    )
    alpha: float = knob(0.15, "spill fraction, in [0, 0.5)")
    spill_mode: str = knob(
        "virtual",
        "query-side spill, or 'physical' data-side duplication",
        choices=SPILL_MODES,
    )
    metric: str = knob(
        "euclidean", "distance shared by segmenter and HNSW", choices=METRICS
    )
    hnsw: HnswParams = field(default_factory=HnswParams)
    topk_confidence: float = 0.95
    use_per_shard_topk: bool = True
    paper_literal_probit: bool = False
    segmenter_sample_size: int = 250_000
    seed: int = knob(0, "master seed; per-segment HNSW seeds derive from it")

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.num_segments < 1:
            raise ConfigError(
                f"num_segments must be >= 1, got {self.num_segments}"
            )
        self.check_choices(ConfigError)
        if self.sharding == "segment" and self.num_shards != self.num_segments:
            raise ConfigError(
                "segment-aligned sharding requires num_shards == "
                f"num_segments, got {self.num_shards} shards for "
                f"{self.num_segments} segments"
            )
        if self.segmenter in ("rh", "apd") and (
            self.num_segments & (self.num_segments - 1)
        ):
            raise ConfigError(
                "hyperplane segmenters need a power-of-two num_segments, "
                f"got {self.num_segments}"
            )
        if not 0.0 <= self.alpha < 0.5:
            raise ConfigError(f"alpha must be in [0, 0.5), got {self.alpha}")
        if not 0.0 < self.topk_confidence < 1.0:
            raise ConfigError(
                f"topk_confidence must be in (0, 1), got {self.topk_confidence}"
            )
        if self.segmenter_sample_size < 1:
            raise ConfigError(
                "segmenter_sample_size must be positive, got "
                f"{self.segmenter_sample_size}"
            )

    @property
    def partitioning(self) -> tuple[int, int]:
        """The paper's ``(n, m)`` notation: (num_shards, num_segments)."""
        return (self.num_shards, self.num_segments)

    @property
    def quantize(self) -> str:
        """Compressed-domain scoring backend (``hnsw.quantize``).

        ``"none"``, ``"int8"`` or ``"pq"``; surfaced here because the
        manifest, serving stats and CLI all report it at deployment
        granularity even though it lives on the per-segment HNSW params.
        """
        return self.hnsw.quantize

    @property
    def total_partitions(self) -> int:
        """Number of (shard, segment) HNSW indices built."""
        return self.num_shards * self.num_segments

    def per_shard_budget(
        self, top_k: int, num_groups: int | None = None
    ) -> int:
        """The perShardTopK each queried shard is asked for (Eq. 5-6).

        ``num_groups`` is the fan-out width the budget must cover
        (default: every shard).  Eq. 5-6 model a query's neighbors as
        uniformly hashed across the shards queried; the segment-aligned
        layout concentrates them in a few nearby segments instead, so
        there -- as with ``use_per_shard_topk`` off -- the only budget
        that cannot truncate answers below ``top_k`` is ``top_k`` itself.
        """
        if not self.use_per_shard_topk or self.sharding == "segment":
            return int(top_k)
        return _per_shard_top_k(
            int(top_k),
            self.num_shards if num_groups is None else num_groups,
            self.topk_confidence,
            paper_literal=self.paper_literal_probit,
        )

    def with_updates(self, **changes) -> "LannsConfig":
        """A copy with the given fields replaced (validates again)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """Plain-dict form (used in persisted index metadata): every
        field in declaration order, ``hnsw`` as its own dict."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "LannsConfig":
        """Inverse of :meth:`to_dict`."""
        payload = dict(payload)
        hnsw_payload = payload.pop("hnsw", None)
        hnsw = HnswParams.from_dict(hnsw_payload) if hnsw_payload else HnswParams()
        known = {spec.name for spec in fields(cls)} - {"hnsw"}
        return cls(
            hnsw=hnsw, **{k: v for k, v in payload.items() if k in known}
        )
