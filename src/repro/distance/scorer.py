"""Per-index distance scorer with cached precomputation.

A :class:`Scorer` binds a metric to a data matrix and precomputes whatever
the metric can reuse across queries (squared norms for Euclidean, row
normalisation for cosine).  The HNSW kernels call
:meth:`Scorer.score_pairs` once per lockstep round -- the one traversal
scoring call, build side included -- and a serving request is a lockstep
group of one row making ~80 such calls for ~5 pairs each, so what that
path costs is numpy dispatch, not FLOPs.  :func:`_gather_dot` is the one
place a round's pairs are gathered and reduced: a batch of one row pays
for one gather and one reduction against that row, a larger batch for
the two ``(pairs, d)`` gathers it needs.
"""

from __future__ import annotations

import numpy as np

from repro.distance.kmeans import kmeans
from repro.distance.metrics import (
    CosineDistance,
    EuclideanDistance,
    InnerProductDistance,
    Metric,
    get_metric,
)
from repro.errors import CodecNotFittedError, SerializationError
from repro.utils.validation import as_matrix, payload_member

#: A float32 zero to clamp with: a Python ``0.0`` operand sends a small
#: ufunc call down numpy's slower weak-scalar path.
_ZERO = np.float32(0.0)


def _gather_dot(
    data: np.ndarray,
    ids: np.ndarray,
    query_side: np.ndarray,
    query_rows: np.ndarray | None,
    query_const: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gather rows, dot against the query side: the scoring core of every
    dot-product :class:`~repro.hnsw.search.PairScorer`.

    Returns ``dots[i] = data[ids[i]] . query_side[query_rows[i]]`` and,
    when the per-query ``(B,)`` ``query_const`` is given, each pair's
    ``query_const[query_rows[i]]`` in a form that broadcasts against
    ``dots``.

    **The one-row contract.**  When ``query_side`` has exactly one row --
    a property of the batch, not an option -- every pair is scored
    against that row: ``query_rows`` can only be zeros, is not read and
    may be ``None``; the ``(pairs, d)`` query-side copy is never built
    and the constant comes back as the ``(1,)`` array it is.  The two
    branches are bit-equal pair for pair (float32 and int8-widening; see
    ``tests/test_path_matrix.py::check_one_row_parity``), because both
    reduce each pair with ``einsum``'s sum-of-products loop over ``d``.
    BLAS does not:
    ``data[ids] @ query`` (gemv) accumulates in a blocked order that
    depends on the number of rows -- it differs from the ``einsum`` of
    the same pair from 8 rows up -- so no ``@`` / ``dot`` / ``matmul``
    may score a pair.  That covers neighbor selection too:
    :meth:`Scorer.score_gathered` reduces the same way.
    """
    if query_side.shape[0] == 1:
        dots = np.einsum("nd,d->n", data.take(ids, axis=0), query_side[0])
        return dots, query_const
    dots = np.einsum(
        "nd,nd->n", data.take(ids, axis=0), query_side.take(query_rows, axis=0)
    )
    if query_const is not None:
        query_const = query_const.take(query_rows)
    return dots, query_const


def _euclidean_from_dots(
    row_sq: np.ndarray,
    ids: np.ndarray,
    dots: np.ndarray,
    pair_const: np.ndarray,
) -> np.ndarray:
    """``max(row_sq[ids] - 2 dots + pair_const, 0)``, in place on the
    gathered norms: the Euclidean expansion both the float and the int8
    scorer finish a :func:`_gather_dot` with."""
    scores = row_sq.take(ids)
    dots += dots  # 2 * dots, exactly, without a scalar operand
    scores -= dots
    scores += pair_const
    return np.maximum(scores, _ZERO, out=scores)


class Scorer:
    """Scores queries against a fixed, growable data matrix.

    Parameters
    ----------
    metric:
        Metric name or instance.
    dim:
        Vector dimensionality.
    capacity:
        Initial row capacity; the backing array doubles as needed.

    Notes
    -----
    Scores are in the metric's *reduced* space (squared Euclidean, cosine
    distance, negative inner product); use :meth:`to_true` at the API
    boundary.  For cosine, vectors are normalised once on insertion so the
    reduced score is ``1 - <q_hat, x_hat>`` via a plain dot product.
    """

    def __init__(self, metric: str | Metric, dim: int, capacity: int = 1024) -> None:
        self.metric = get_metric(metric)
        self.dim = int(dim)
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        capacity = max(int(capacity), 1)
        self._data = np.empty((capacity, self.dim), dtype=np.float32)
        self._sq_norms = np.empty(capacity, dtype=np.float32)
        self._count = 0
        #: Running count of distance evaluations (the work metric
        #: reported by the Figure 1 benchmark).  Compressed-domain
        #: scoring counts too: the quantized views below bump the owning
        #: scorer's counter, so ``ops`` is the total scoring work --
        #: exact, int8 and PQ alike.  Search-cost accounting reads this
        #: via :meth:`ops_since` deltas.
        self.ops = 0
        self._is_euclidean = isinstance(self.metric, EuclideanDistance)
        self._is_cosine = isinstance(self.metric, CosineDistance)
        self._is_ip = isinstance(self.metric, InnerProductDistance)

    def ops_since(self, baseline: int) -> int:
        """Distance evaluations since a captured ``self.ops`` baseline.

        The cost-accounting idiom: grab ``ops`` before a search, call
        this after.  With concurrent batches on one scorer the delta may
        misattribute work between them, but the totals stay exact.
        """
        return self.ops - baseline

    # -- storage ----------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def data(self) -> np.ndarray:
        """View of the stored (possibly normalised) vectors."""
        return self._data[: self._count]

    def _grow(self, needed: int) -> None:
        capacity = self._data.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(needed, capacity * 2)
        new_data = np.empty((new_capacity, self.dim), dtype=np.float32)
        new_data[: self._count] = self._data[: self._count]
        self._data = new_data
        new_norms = np.empty(new_capacity, dtype=np.float32)
        new_norms[: self._count] = self._sq_norms[: self._count]
        self._sq_norms = new_norms

    def add(self, vectors: np.ndarray) -> np.ndarray:
        """Append rows; return their internal indices."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors[np.newaxis, :]
        if vectors.shape[1] != self.dim:
            raise ValueError(
                f"vectors have dimension {vectors.shape[1]}, expected {self.dim}"
            )
        n = vectors.shape[0]
        self._grow(self._count + n)
        rows = np.arange(self._count, self._count + n)
        if self._is_cosine:
            norms = np.linalg.norm(vectors, axis=1, keepdims=True)
            # Zero vectors stay zero: they score distance 1 to everything.
            safe = np.where(norms > 0.0, norms, 1.0)
            self._data[rows] = vectors / safe
        else:
            self._data[rows] = vectors
        self._sq_norms[rows] = np.einsum(
            "ij,ij->i", self._data[rows], self._data[rows]
        )
        self._count += n
        return rows

    def adopt_rows(self, vectors: np.ndarray) -> None:
        """Replace the stored rows by ``vectors`` as they stand: a float32
        ``(n, dim)`` matrix of rows a scorer of this metric stored before
        (so already normalised for cosine).  Not copied; capacity equals
        ``n``, so the next :meth:`add` reallocates."""
        self._data = vectors
        self._sq_norms = np.einsum("ij,ij->i", vectors, vectors)
        self._count = vectors.shape[0]

    # -- query preparation --------------------------------------------------------
    def prepare_queries(self, queries: np.ndarray) -> np.ndarray:
        """Canonicalise a ``(B, d)`` query batch in one pass.

        The per-row operations (norm, divide) are rowwise-independent, so
        a row's preparation does not depend on batch composition.
        """
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(
                f"queries have shape {queries.shape}, expected (B, {self.dim})"
            )
        if self._is_cosine and queries.shape[0]:
            norms = np.linalg.norm(queries, axis=1, keepdims=True)
            safe = np.where(norms > 0.0, norms, 1.0)
            return queries / safe
        return queries

    def query_sq_norms(self, prepared: np.ndarray) -> np.ndarray:
        """Per-row squared norms of a *prepared* query batch.

        Precompute once per batch; :meth:`score_pairs` consumes it for the
        Euclidean expansion.
        """
        return np.einsum("bd,bd->b", prepared, prepared)

    # -- scoring ------------------------------------------------------------------
    def score_pairs(
        self,
        queries: np.ndarray,
        query_rows: np.ndarray | None,
        ids: np.ndarray,
        query_sq: np.ndarray | None = None,
    ) -> np.ndarray:
        """Reduced distances ``d(queries[query_rows[i]], data[ids[i]])``.

        This is the traversal hot path: many (query, candidate) pairs of
        a *prepared* ``(B, d)`` batch scored in one vectorised call.  The
        per-pair dot is an ``einsum`` row reduction
        (:func:`_gather_dot`), so every pair's value is independent of
        which other pairs share the call -- a batch of one produces
        bit-identical scores to any larger batch.

        Parameters
        ----------
        queries:
            Prepared ``(B, d)`` query batch (:meth:`prepare_queries`).
        query_rows:
            ``(n,)`` row index into ``queries`` for each pair.  Not read
            when ``queries`` has one row (the heap kernels pass ``None``
            for a group of one): see :func:`_gather_dot`.
        ids:
            ``(n,)`` stored-row index for each pair.
        query_sq:
            Optional precomputed :meth:`query_sq_norms` of ``queries``.
        """
        self.ops += len(ids)
        if self._is_euclidean:
            if query_sq is None:
                query_sq = self.query_sq_norms(queries)
            dots, pair_sq = _gather_dot(
                self._data, ids, queries, query_rows, query_sq
            )
            return _euclidean_from_dots(self._sq_norms, ids, dots, pair_sq)
        dots, _ = _gather_dot(self._data, ids, queries, query_rows)
        if self._is_cosine:
            return 1.0 - dots
        return -dots

    def score_all_batch(self, queries: np.ndarray) -> np.ndarray:
        """Reduced distances from a *prepared* ``(B, d)`` batch to all rows.

        One ``(B, d) @ (d, n)`` GEMM; the matrix-level scoring path of
        the flat scan.
        """
        self.ops += self._count * queries.shape[0]
        data = self.data
        gram = queries @ data.T
        if self._is_euclidean:
            q_norms = self.query_sq_norms(queries)[:, np.newaxis]
            scores = self._sq_norms[: self._count][np.newaxis, :] - 2.0 * gram
            scores += q_norms
            np.maximum(scores, 0.0, out=scores)
            return scores
        if self._is_cosine:
            return 1.0 - gram
        return -gram

    def pairwise_ids(self, ids: np.ndarray) -> np.ndarray:
        """All-pairs reduced distances among stored rows ``ids``.

        Used by the HNSW neighbor-selection heuristic: one GEMM replaces
        O(candidates * M) small distance calls.
        """
        self.ops += len(ids) * len(ids)
        rows = self._data[ids]
        gram = rows @ rows.T
        if self._is_euclidean:
            norms = self._sq_norms[ids]
            squared = norms[:, np.newaxis] + norms[np.newaxis, :] - 2.0 * gram
            np.maximum(squared, 0.0, out=squared)
            return squared
        if self._is_cosine:
            return 1.0 - gram
        return -gram

    def score_gathered(
        self, block: np.ndarray, ids: np.ndarray, picks: np.ndarray
    ) -> np.ndarray:
        """Reduced distances from stored row ``picks[p]`` to every stored
        row of ``ids[p]``, ``(P, C)``, with ``block = data[ids]`` gathered
        once by the caller: the neighbor heuristic's one scoring call.

        Each value is bit-equal to ``score_pairs`` of the pair with the
        picked row as the query (``data[picks]`` is a prepared batch as
        it stands): the same ``einsum`` sum of products over ``d`` as
        :func:`_gather_dot`, finished the same way.
        """
        self.ops += ids.size
        dots = np.einsum("pcd,pd->pc", block, self._data.take(picks, axis=0))
        if self._is_euclidean:
            pick_sq = self._sq_norms.take(picks)[:, np.newaxis]
            return _euclidean_from_dots(self._sq_norms, ids, dots, pick_sq)
        if self._is_cosine:
            return 1.0 - dots
        return -dots

    def to_true(self, reduced: np.ndarray) -> np.ndarray:
        """Convert reduced scores to true metric distances."""
        return self.metric.to_true(np.asarray(reduced))


# -- compressed-domain scoring --------------------------------------------------------
#
# The quantized tier lets the HNSW beam search run on compressed codes
# instead of float32 rows: the traversal's distance evaluations gather
# int8 codes (4x less memory traffic per beam round) or PQ codes (one
# table lookup per subspace), and only the final candidate set is
# rescored exactly against the retained float32 vectors.  Approximate
# scores only *rank* -- every distance a caller sees comes from the
# exact float32 kernels above, so the wire contract (exact distances,
# bit-parity tests) survives quantization unchanged.

#: Quantization backends accepted end to end (``--quantize``).
QUANTIZE_KINDS = ("none", "int8", "pq")

#: Rows used to train the PQ codebooks.  32 training points per
#: centroid (256 codes) -- past that, k-means cost grows linearly with
#: segment size for no measurable recall gain.
_PQ_TRAIN_SAMPLE = 8192


class Int8Codec:
    """Per-dimension affine scalar quantizer: ``x ~ scale * c + offset``.

    One ``scale``/``offset`` pair per dimension, trained on the stored
    (possibly normalised) rows at build time.  Codes are ``int8`` in
    ``[-128, 127]``, so a row costs ``d`` bytes instead of ``4d``.
    """

    kind = "int8"

    def __init__(self) -> None:
        self.scale: np.ndarray | None = None  # (d,) float32
        self.offset: np.ndarray | None = None  # (d,) float32

    @property
    def is_fitted(self) -> bool:
        """Whether the affine parameters have been trained."""
        return self.scale is not None

    def _require_fitted(self) -> None:
        if self.scale is None:
            raise CodecNotFittedError(
                "Int8Codec has no scale/offset; call fit() before "
                "encode/decode"
            )

    def fit(self, data: np.ndarray) -> "Int8Codec":
        """Train the per-dimension affine range on ``data``."""
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError(
                f"Int8Codec.fit needs a non-empty (n, d) matrix, got "
                f"shape {data.shape}"
            )
        lo = data.min(axis=0)
        hi = data.max(axis=0)
        scale = (hi - lo) / 255.0
        # Constant dimensions quantize to one exact level.
        scale = np.where(scale > 0.0, scale, 1.0).astype(np.float32)
        self.scale = scale
        self.offset = (lo + 128.0 * scale).astype(np.float32)
        return self

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Quantize rows to ``(n, d)`` int8 codes."""
        self._require_fitted()
        data = np.asarray(data, dtype=np.float32)
        codes = np.rint((data - self.offset) / self.scale)
        return np.clip(codes, -128, 127).astype(np.int8)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct (approximate) float32 rows from codes."""
        self._require_fitted()
        codes = np.asarray(codes)
        return codes.astype(np.float32) * self.scale + self.offset

    def to_arrays(self) -> dict:
        """Npz-friendly dict form."""
        self._require_fitted()
        return {"codec_scale": self.scale, "codec_offset": self.offset}

    @classmethod
    def from_arrays(cls, payload: dict, dim: int) -> "Int8Codec":
        """Inverse of :meth:`to_arrays` for ``dim``-wide rows; a member
        that is missing or not ``dim`` wide is a ``SerializationError``."""
        codec = cls()
        codec.scale, codec.offset = (
            payload_member(payload, name, np.float32, (dim,))
            for name in ("codec_scale", "codec_offset")
        )
        return codec

    def codes_from(self, payload: dict, count: int) -> np.ndarray:
        """The payload's ``(count, d)`` codes, refused unless so shaped."""
        width = self.scale.shape[0]
        return payload_member(payload, "codec_codes", np.int8, (count, width))


def pq_subspaces_for(dim: int, requested: int) -> int:
    """Largest divisor of ``dim`` that is ``<= requested``.

    PQ needs the dimensionality split into equal chunks; rather than
    reject awkward dims, the codec degrades to the nearest workable
    subspace count (worst case 1 -- plain vector quantization).
    """
    for m in range(min(int(requested), int(dim)), 0, -1):
        if dim % m == 0:
            return m
    return 1


def pq_codebooks(
    data: np.ndarray, num_subspaces: int, num_codes: int, *, seed: int
) -> np.ndarray:
    """Product-quantization codebooks of ``data``: ``(m, ks, d / m)``
    float64, one k-means per subspace of ``d / m`` dimensions (15
    iterations, seeded ``seed + subspace``), ``ks = min(num_codes, n)``.
    ``num_subspaces`` must divide ``d``."""
    data = as_matrix(data, name="data")
    if data.shape[1] % num_subspaces != 0:
        raise ValueError(
            f"dim {data.shape[1]} is not divisible by "
            f"num_subspaces={num_subspaces}"
        )
    width = data.shape[1] // num_subspaces
    num_codes = min(num_codes, data.shape[0])
    return np.stack(
        [
            kmeans(
                data[:, sub * width : (sub + 1) * width],
                num_codes,
                max_iters=15,
                seed=seed + sub,
            )[0]
            for sub in range(num_subspaces)
        ]
    )


def pq_encode(codebooks: np.ndarray, data: np.ndarray) -> np.ndarray:
    """``(n, m)`` uint16 codes: the nearest codeword of each subspace."""
    subspaces, _, width = codebooks.shape
    data = as_matrix(data, dim=subspaces * width, name="data")
    codes = np.empty((data.shape[0], subspaces), dtype=np.uint16)
    for sub, centers in enumerate(codebooks):
        chunk = data[:, sub * width : (sub + 1) * width]
        cross = chunk.astype(np.float64) @ centers.T
        norms = np.einsum("ij,ij->i", centers, centers)
        codes[:, sub] = np.argmin(norms[np.newaxis, :] - 2.0 * cross, axis=1)
    return codes


class PqAdcCodec:
    """Product-quantization codec scored via ADC lookup tables.

    Codebooks (:func:`pq_codebooks`, up to 256 codewords) are trained
    per segment at build time, each row compresses to one ``uint16``
    code per subspace (:func:`pq_encode`), and a query builds one
    ``(num_subspaces, num_codes)`` table whose lookups replace the
    full-dimension dot product.
    """

    kind = "pq"

    def __init__(self, num_subspaces: int = 8, *, seed: int = 0) -> None:
        if num_subspaces < 1:
            raise ValueError(
                f"num_subspaces must be positive, got {num_subspaces}"
            )
        self.requested_subspaces = int(num_subspaces)
        self.seed = int(seed)
        #: float64 codebooks (m, ks, d/m): what is encoded against and
        #: persisted.
        self.codebooks: np.ndarray | None = None
        #: float32 copy of ``codebooks`` used by the scoring hot path.
        self.codebooks32: np.ndarray | None = None
        self.center_sq: np.ndarray | None = None  # (m, ks) float32

    @property
    def is_fitted(self) -> bool:
        """Whether codebooks have been trained."""
        return self.codebooks is not None

    @property
    def num_subspaces(self) -> int:
        """Effective subspace count (after divisor adjustment)."""
        if self.codebooks is None:
            return self.requested_subspaces
        return int(self.codebooks.shape[0])

    def fit(self, data: np.ndarray) -> "PqAdcCodec":
        """Train one k-means codebook per subspace on ``data``."""
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError(
                f"PqAdcCodec.fit needs a non-empty (n, d) matrix, got "
                f"shape {data.shape}"
            )
        subspaces = pq_subspaces_for(
            data.shape[1], self.requested_subspaces
        )
        train = data
        if data.shape[0] > _PQ_TRAIN_SAMPLE:
            # k-means cost scales with the training set but codebook
            # quality saturates well below segment size; train on a
            # seeded subsample, encode everything.
            rng = np.random.default_rng(self.seed)
            rows = rng.choice(
                data.shape[0], size=_PQ_TRAIN_SAMPLE, replace=False
            )
            train = data[np.sort(rows, kind="stable")]
        self._adopt(pq_codebooks(train, subspaces, 256, seed=self.seed))
        return self

    def _adopt(self, codebooks: np.ndarray) -> None:
        self.codebooks = codebooks
        self.codebooks32 = codebooks.astype(np.float32)
        self.center_sq = np.einsum(
            "mkd,mkd->mk", self.codebooks32, self.codebooks32
        )

    def _require_fitted(self) -> None:
        if self.codebooks is None:
            raise CodecNotFittedError(
                "PqAdcCodec has no codebooks; call fit() before encode"
            )

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Compress rows to ``(n, m)`` uint16 codes."""
        self._require_fitted()
        return pq_encode(self.codebooks, data)

    def to_arrays(self) -> dict:
        """Npz-friendly dict form (full-precision codebooks)."""
        self._require_fitted()
        return {
            "codec_codebooks": self.codebooks,
            "codec_pq_seed": np.asarray(self.seed),
        }

    @classmethod
    def from_arrays(cls, payload: dict, dim: int) -> "PqAdcCodec":
        """Inverse of :meth:`to_arrays` for ``dim``-wide rows; codebooks
        that are missing or do not split ``dim`` into subspaces are a
        ``SerializationError``."""
        codebooks = payload_member(payload, "codec_codebooks", np.float64)
        shape = codebooks.shape
        if len(shape) != 3 or shape[0] * shape[2] != dim or not shape[1]:
            raise SerializationError(
                f"HNSW payload member 'codec_codebooks' has shape {shape}, "
                f"expected (subspaces, codewords, width) with "
                f"subspaces * width == dim {dim}"
            )
        seed = int(payload_member(payload, "codec_pq_seed"))
        codec = cls(shape[0], seed=seed)
        codec._adopt(codebooks)
        return codec

    def codes_from(self, payload: dict, count: int) -> np.ndarray:
        """The payload's ``(count, m)`` codes, refused unless so shaped
        and each names one of its subspace's codewords."""
        subspaces, num_codes, _ = self.codebooks.shape
        codes = payload_member(
            payload, "codec_codes", np.uint16, (count, subspaces)
        )
        if codes.max(initial=0) >= num_codes:
            raise SerializationError(
                f"HNSW payload member 'codec_codes' holds code "
                f"{codes.max()}, past the {num_codes} codewords"
            )
        return codes


class QuantizedStore:
    """Compressed codes for one :class:`Scorer`'s rows plus their codec.

    The store owns everything the beam search needs to run on codes:
    the trained codec, the encoded rows, and (for Euclidean) the decoded
    squared norms.  :meth:`view` binds a prepared query batch and returns
    a scoring adapter with the same ``score_pairs`` signature as
    :meth:`Scorer.score_pairs` -- the one thing the lockstep kernels ask
    of a scorer (:class:`repro.hnsw.search.PairScorer`) -- so the single
    HNSW search body hands it to the unchanged traversal and rescores
    exactly whatever it ranked: quantization is purely a different
    scorer implementation.
    """

    def __init__(
        self,
        scorer: Scorer,
        kind: str,
        *,
        pq_subspaces: int = 8,
        seed: int = 0,
    ) -> None:
        if kind not in ("int8", "pq"):
            raise ValueError(
                f"quantize kind must be 'int8' or 'pq', got {kind!r}"
            )
        self.scorer = scorer
        self.kind = kind
        self.pq_subspaces = int(pq_subspaces)
        self.seed = int(seed)
        self.codec = None
        self.codes: np.ndarray | None = None
        self.code_sq: np.ndarray | None = None
        #: Stored-row count the codes were trained on; a mismatch with
        #: ``len(scorer)`` means the store is stale and must refresh.
        self.count = 0

    @property
    def is_trained(self) -> bool:
        """Whether codes exist for every stored row."""
        return self.codes is not None and self.count == len(self.scorer)

    @property
    def nbytes(self) -> int:
        """Bytes held by the compressed codes (the RAM the beam touches)."""
        total = self.codes.nbytes if self.codes is not None else 0
        if self.code_sq is not None:
            total += self.code_sq.nbytes
        return total

    def refresh(self) -> None:
        """(Re)train the codec and encode every stored row.

        Deterministic for a given data matrix and seed; called after
        every ``add()`` so the codes always cover the stored rows.
        """
        data = self.scorer.data
        if data.shape[0] == 0:
            self.codec = None
            self.codes = None
            self.code_sq = None
            self.count = 0
            return
        if self.kind == "int8":
            self.codec = Int8Codec().fit(data)
        else:
            self.codec = PqAdcCodec(
                self.pq_subspaces, seed=self.seed
            ).fit(data)
        self.codes = self.codec.encode(data)
        self._finish_refresh()

    def _finish_refresh(self) -> None:
        if self.scorer._is_euclidean and self.kind == "int8":
            decoded = self.codec.decode(self.codes)
            self.code_sq = np.einsum("nd,nd->n", decoded, decoded)
        else:
            self.code_sq = None
        self.count = int(self.codes.shape[0])

    def view(self, prepared: np.ndarray):
        """Bind a *prepared* ``(B, d)`` query batch for compressed scoring."""
        if not self.is_trained:
            self.refresh()
        if self.kind == "int8":
            return _Int8View(self, prepared)
        return _PqAdcView(self, prepared)

    # -- persistence ----------------------------------------------------------
    def to_arrays(self) -> dict:
        """Npz-friendly payload (codes + codec; keys are prefixed)."""
        payload: dict = {"codec_kind": np.asarray(self.kind)}
        if self.codes is None:
            return payload
        payload.update(self.codec.to_arrays())
        payload["codec_codes"] = self.codes
        return payload

    @classmethod
    def from_arrays(
        cls,
        scorer: Scorer,
        payload: dict,
        count: int,
        *,
        pq_subspaces: int = 8,
        seed: int = 0,
    ) -> "QuantizedStore":
        """Rebuild a store of ``count`` rows (codes are restored, not
        retrained); a codec member no search could use is a
        ``SerializationError`` naming it."""
        kind = str(payload["codec_kind"])
        store = cls(scorer, kind, pq_subspaces=pq_subspaces, seed=seed)
        if "codec_codes" not in payload:
            return store
        codec_type = Int8Codec if kind == "int8" else PqAdcCodec
        store.codec = codec_type.from_arrays(payload, scorer.dim)
        store.codes = store.codec.codes_from(payload, count)
        store._finish_refresh()
        return store


class _Int8View:
    """Per-batch int8 scoring adapter for the lockstep kernels.

    The affine dequantization folds into the query side: with
    ``x ~ scale * c + offset``, the dot ``x . q`` becomes
    ``c . (scale * q) + offset . q`` -- so scoring gathers raw int8
    codes and runs one widening ``einsum`` against the pre-scaled
    query, never materialising dequantized rows.
    """

    def __init__(self, store: QuantizedStore, prepared: np.ndarray) -> None:
        scorer = store.scorer
        self._scorer = scorer
        self._codes = store.codes
        self._code_sq = store.code_sq
        codec = store.codec
        self._qs = prepared * codec.scale
        # A row reduction, not ``prepared @ offset``: BLAS gemv rounds a
        # row's dot differently depending on how many rows share the
        # call, which made a query's approximate scores depend on its
        # batch.
        bias = np.einsum("bd,d->b", prepared, codec.offset)
        # Everything that depends only on the query folds into one
        # per-query constant, so the hot loop is one code gather, one
        # widening einsum and one constant gather:
        #   euclid: |x|^2 - 2(c.qs + bias) + |q|^2
        #           = code_sq[ids] - 2 c.qs + (|q|^2 - 2 bias)
        #   cosine: 1 - (c.qs + bias);  ip: -(c.qs + bias)
        if scorer._is_euclidean:
            q_sq = np.einsum("bd,bd->b", prepared, prepared)
            self._q_const = q_sq - 2.0 * bias
        elif scorer._is_cosine:
            self._q_const = 1.0 - bias
        else:
            self._q_const = -bias

    def score_pairs(
        self,
        queries: np.ndarray,
        query_rows: np.ndarray | None,
        ids: np.ndarray,
        query_sq: np.ndarray | None = None,
    ) -> np.ndarray:
        """Approximate reduced distances for (query, candidate) pairs.

        Same signature, batch-composition invariance and one-row
        contract as :meth:`Scorer.score_pairs` (``query_rows`` is not
        read when the view was bound to a batch of one row);
        ``queries``/``query_sq`` are accepted for interface compatibility
        but the view's precomputed transforms are what actually score,
        through the same :func:`_gather_dot`.
        """
        scorer = self._scorer
        scorer.ops += len(ids)
        dots, pair_const = _gather_dot(
            self._codes, ids, self._qs, query_rows, self._q_const
        )
        if scorer._is_euclidean:
            return _euclidean_from_dots(self._code_sq, ids, dots, pair_const)
        # cosine and inner product share the shape const - dot.
        return pair_const - dots


class _PqAdcView:
    """Per-batch PQ/ADC scoring adapter for the lockstep kernels.

    Each query of the batch owns one flat ``(m * ks)`` lookup table;
    scoring a pair is ``m`` table gathers summed -- independent of the
    stored dimensionality.
    """

    def __init__(self, store: QuantizedStore, prepared: np.ndarray) -> None:
        scorer = store.scorer
        self._scorer = scorer
        self._codes = store.codes
        codec = store.codec
        books = codec.codebooks32  # (m, ks, d/m)
        subspaces, num_codes, width = books.shape
        chunks = prepared.reshape(prepared.shape[0], subspaces, width)
        dot_tables = np.einsum("mkd,bmd->bmk", books, chunks)
        if scorer._is_euclidean:
            # ADC: per-subspace squared distance, summed by lookup.
            sub_sq = np.einsum("bmd,bmd->bm", chunks, chunks)
            tables = (
                codec.center_sq[np.newaxis]
                - 2.0 * dot_tables
                + sub_sq[:, :, np.newaxis]
            )
        else:
            tables = dot_tables
        self._tables = np.ascontiguousarray(
            tables.reshape(prepared.shape[0], subspaces * num_codes),
            dtype=np.float32,
        )
        self._flat_offsets = (
            np.arange(subspaces, dtype=np.int64) * num_codes
        )

    def score_pairs(
        self,
        queries: np.ndarray,
        query_rows: np.ndarray | None,
        ids: np.ndarray,
        query_sq: np.ndarray | None = None,
    ) -> np.ndarray:
        """Approximate reduced distances for (query, candidate) pairs.

        A pair's score is a sum of table lookups, not a dot, so this is
        the one scorer outside :func:`_gather_dot`; it keeps the same
        one-row contract: a view bound to one row looks every pair up in
        that row's table and does not read ``query_rows``.
        """
        scorer = self._scorer
        scorer.ops += len(ids)
        flat = self._codes.take(ids, axis=0) + self._flat_offsets
        if self._tables.shape[0] > 1:
            # Each pair's lookups, offset to its query's table in the
            # flattened (B, m * ks) stack.
            flat += (query_rows * self._tables.shape[1])[:, np.newaxis]
        sums = self._tables.take(flat).sum(axis=1)
        if scorer._is_euclidean:
            np.maximum(sums, 0.0, out=sums)
            return sums
        if scorer._is_cosine:
            return 1.0 - sums
        return -sums
