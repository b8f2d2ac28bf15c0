"""From-scratch ANN comparators for the Figure 1 recall/QPS frontier.

The paper motivates HNSW by the ann-benchmarks frontier (Figure 1):
HNSW dominates tree-based (Annoy), hashing-based (LSH), and
quantization-based (Faiss-IVF) methods on SIFT1M.  To draw that figure
without external libraries, each family is implemented here, beside
``bench_figure1_recall_qps.py``, its one caller:

- :class:`BruteForceIndex` -- exact scan (recall 1.0, lowest QPS).
- :class:`RPForestIndex` -- Annoy-style forest of random-projection trees.
- :class:`LshIndex` -- multi-table random-hyperplane LSH.
- :class:`IvfFlatIndex` -- k-means coarse quantizer + inverted lists.
- :class:`PqIndex` -- product quantization with ADC scanning.

All share the :class:`AnnIndex` interface so the figure harness can
sweep their speed/accuracy knobs uniformly; the system's HNSW takes part
through :class:`HnswAdapter`.  All use Euclidean distance (the Figure 1
setting).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.distance.kmeans import kmeans
from repro.distance.scorer import pq_codebooks, pq_encode
from repro.hnsw.index import build_hnsw
from repro.hnsw.params import HnswParams
from repro.offline.brute_force import exact_top_k
from repro.utils.rng import resolve_rng
from repro.utils.validation import as_matrix, as_vector


class AnnIndex(ABC):
    """An approximate nearest neighbor index over a fixed dataset."""

    #: Human-readable algorithm name for reports.
    name: str = ""

    def __init__(self) -> None:
        self._data: np.ndarray | None = None
        #: Full-vector-distance work counter (Figure 1 work metric).
        self.ops = 0

    @property
    def data(self) -> np.ndarray:
        """The indexed vectors."""
        if self._data is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted")
        return self._data

    def fit(self, data: np.ndarray) -> "AnnIndex":
        """Index ``data``; returns self."""
        self._data = as_matrix(data, name="data")
        self._fit(self._data)
        return self

    @abstractmethod
    def _fit(self, data: np.ndarray) -> None:
        """Algorithm-specific build."""

    @abstractmethod
    def search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(ids, distances)`` of up to ``k`` neighbors, ascending."""

    def search_batch(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Search many queries; rows padded with -1 / inf."""
        queries = as_matrix(queries, name="queries")
        n = queries.shape[0]
        ids = np.full((n, k), -1, dtype=np.int64)
        dists = np.full((n, k), np.inf, dtype=np.float64)
        for row in range(n):
            found_ids, found_dists = self.search(queries[row], k)
            ids[row, : len(found_ids)] = found_ids
            dists[row, : len(found_dists)] = found_dists
        return ids, dists

    def _rank_candidates(
        self, query: np.ndarray, candidates: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exactly rank a candidate id set against ``query``.

        Shared by every candidate-generation comparator (forest, LSH,
        IVF, PQ rerank).
        """
        query = as_vector(query, dim=self.data.shape[1], name="query")
        self.ops += int(candidates.size)
        if candidates.size == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        vectors = self.data[candidates]
        dists = np.sqrt(((vectors - query) ** 2).sum(axis=1))
        order = np.argsort(dists, kind="stable")[:k]
        return candidates[order].astype(np.int64), dists[order].astype(np.float64)


class HnswAdapter(AnnIndex):
    """Wraps :class:`repro.hnsw.HnswIndex` in the comparator interface."""

    name = "hnsw"

    def __init__(self, params=None, ef_search: int | None = None) -> None:
        super().__init__()
        self.params = params or HnswParams()
        self.ef_search = ef_search
        self._index = None

    def _fit(self, data: np.ndarray) -> None:
        self._index = build_hnsw(data, params=self.params)
        # Separate build-time work from the query-time counter.
        self._index.reset_distance_ops()

    def search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        result = self._index.search(query, k, ef=self.ef_search)
        self.ops = self._index.distance_ops
        return result


class BruteForceIndex(AnnIndex):
    """The exact scan: the recall-1.0 anchor of Figure 1."""

    name = "brute_force"

    def _fit(self, data: np.ndarray) -> None:
        pass

    def search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        query = as_vector(query, dim=self.data.shape[1], name="query")
        self.ops += self.data.shape[0]
        ids, dists = exact_top_k(self.data, query[np.newaxis], k)
        return ids[0], dists[0]


# -- IVF-Flat: the from-scratch Faiss-IVF ------------------------------------------


class IvfFlatIndex(AnnIndex):
    """k-means inverted lists + exact scan of the probed lists.

    ``nlist`` clusters at build; queries scan the ``nprobe`` nearest
    inverted lists (higher probes more lists: slower, more accurate).
    """

    name = "ivf_flat"

    def __init__(
        self,
        nlist: int = 64,
        nprobe: int = 4,
        *,
        seed: int = 0,
        kmeans_iters: int = 20,
    ) -> None:
        super().__init__()
        if nlist < 1:
            raise ValueError(f"nlist must be positive, got {nlist}")
        if nprobe < 1:
            raise ValueError(f"nprobe must be positive, got {nprobe}")
        self.nlist = int(nlist)
        self.nprobe = int(nprobe)
        self.seed = int(seed)
        self.kmeans_iters = int(kmeans_iters)
        self._centers: np.ndarray | None = None
        self._lists: list[np.ndarray] = []

    def _fit(self, data: np.ndarray) -> None:
        nlist = min(self.nlist, data.shape[0])
        self._centers, assignment = kmeans(
            data, nlist, max_iters=self.kmeans_iters, seed=self.seed
        )
        self._lists = [
            np.flatnonzero(assignment == cluster).astype(np.int64)
            for cluster in range(nlist)
        ]

    @property
    def list_sizes(self) -> list[int]:
        """Population of each inverted list."""
        return [lst.size for lst in self._lists]

    def search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        query = as_vector(query, dim=self.data.shape[1], name="query")
        self.ops += len(self._lists)  # coarse quantizer distances
        center_dists = ((self._centers - query) ** 2).sum(axis=1)
        nprobe = min(self.nprobe, len(self._lists))
        probe = np.argpartition(center_dists, nprobe - 1)[:nprobe]
        candidates = (
            np.concatenate([self._lists[list_id] for list_id in probe])
            if nprobe
            else np.empty(0, dtype=np.int64)
        )
        return self._rank_candidates(query, candidates, k)


# -- multi-table random-hyperplane LSH (Indyk-Motwani family) ----------------------


class LshIndex(AnnIndex):
    """Sign-random-projection LSH with multiprobe.

    Each table hashes a vector to the sign pattern of ``num_bits``
    random hyperplane projections; near vectors collide with high
    probability.  Queries collect the union of their buckets across
    tables (plus optional Hamming-distance-1 multiprobes) and rank
    candidates exactly.  More tables / fewer bits / more probes ->
    higher recall, lower QPS.
    """

    name = "lsh"

    def __init__(
        self,
        num_tables: int = 8,
        num_bits: int = 12,
        *,
        multiprobe: int = 0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if num_tables < 1:
            raise ValueError(f"num_tables must be positive, got {num_tables}")
        if not 1 <= num_bits <= 62:
            raise ValueError(f"num_bits must be in [1, 62], got {num_bits}")
        if multiprobe < 0:
            raise ValueError(f"multiprobe must be >= 0, got {multiprobe}")
        self.num_tables = int(num_tables)
        self.num_bits = int(num_bits)
        self.multiprobe = int(multiprobe)
        self.seed = int(seed)
        self._hyperplanes: np.ndarray | None = None  # (tables, bits, dim)
        self._tables: list[dict[int, list[int]]] = []

    def _signatures(self, vectors: np.ndarray) -> np.ndarray:
        """Bucket keys of shape ``(num_tables, num_vectors)``."""
        # projections: (tables, bits, n)
        projections = np.einsum(
            "tbd,nd->tbn", self._hyperplanes, vectors, optimize=True
        )
        bits = (projections > 0).astype(np.int64)
        weights = (1 << np.arange(self.num_bits, dtype=np.int64))[
            np.newaxis, :, np.newaxis
        ]
        return (bits * weights).sum(axis=1)

    def _fit(self, data: np.ndarray) -> None:
        rng = resolve_rng(self.seed)
        self._hyperplanes = rng.standard_normal(
            (self.num_tables, self.num_bits, data.shape[1])
        ).astype(np.float32)
        keys = self._signatures(data)
        self._tables = []
        for table in range(self.num_tables):
            buckets: dict[int, list[int]] = {}
            for row, key in enumerate(keys[table].tolist()):
                buckets.setdefault(key, []).append(row)
            self._tables.append(buckets)

    def search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        query = as_vector(query, dim=self.data.shape[1], name="query")
        self.ops += self.num_tables * self.num_bits  # hash projections
        keys = self._signatures(query[np.newaxis, :])[:, 0]
        candidates: set[int] = set()
        for table, key in enumerate(keys.tolist()):
            buckets = self._tables[table]
            candidates.update(buckets.get(key, ()))
            # Multiprobe: also visit buckets at Hamming distance 1.
            for bit in range(min(self.multiprobe, self.num_bits)):
                candidates.update(buckets.get(key ^ (1 << bit), ()))
        return self._rank_candidates(
            query, np.fromiter(candidates, dtype=np.int64, count=len(candidates)), k
        )


# -- Annoy-style random-projection forest (Spotify's method, Section 2) ------------


@dataclass
class _Node:
    """One tree node; leaves carry row ids, internal nodes a hyperplane."""

    rows: np.ndarray | None = None  # leaves only
    normal: np.ndarray | None = None
    offset: float = 0.0
    left: int = -1
    right: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.rows is not None


class RPForestIndex(AnnIndex):
    """Forest of randomized two-point-split trees.

    "Each tree is constructed by picking two points at random and
    splitting the dataset using the hyperplane separating the two
    points.  This is done recursively until the number of points in
    space is small enough to perform an exhaustive search."  Search walks
    all trees at once with a priority queue keyed by margin (distance to
    the splitting plane), collecting leaf candidates until ``search_k``
    are gathered -- Annoy's query algorithm, and the reason boundary
    queries can still reach the right leaf.

    Knobs: ``num_trees`` (more = higher recall, slower build) and
    ``search_k`` (candidates gathered per query; more = higher recall,
    lower QPS).
    """

    name = "rp_forest"

    def __init__(
        self,
        num_trees: int = 10,
        leaf_size: int = 32,
        search_k: int | None = None,
        *,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if num_trees < 1:
            raise ValueError(f"num_trees must be positive, got {num_trees}")
        if leaf_size < 2:
            raise ValueError(f"leaf_size must be >= 2, got {leaf_size}")
        self.num_trees = int(num_trees)
        self.leaf_size = int(leaf_size)
        self.search_k = search_k
        self.seed = int(seed)
        self._trees: list[list[_Node]] = []

    def _split(
        self, rows: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray] | None:
        """Two-point split; None when the sample is degenerate."""
        data = self.data
        for _ in range(3):  # retry a couple of times on degenerate pairs
            pair = rng.choice(rows, size=2, replace=False)
            a, b = data[pair[0]], data[pair[1]]
            normal = a - b
            norm = float(np.linalg.norm(normal))
            if norm == 0.0:
                continue
            normal = normal / norm
            offset = float(normal @ ((a + b) / 2.0))
            side = data[rows] @ normal < offset
            if side.any() and not side.all():
                return normal, offset, rows[side], rows[~side]
        return None

    def _build_tree(self, rng: np.random.Generator) -> list[_Node]:
        nodes: list[_Node] = []

        def recurse(rows: np.ndarray) -> int:
            index = len(nodes)
            nodes.append(_Node())
            if rows.size <= self.leaf_size:
                nodes[index].rows = rows
                return index
            split = self._split(rows, rng)
            if split is None:
                nodes[index].rows = rows
                return index
            normal, offset, left_rows, right_rows = split
            nodes[index].normal = normal
            nodes[index].offset = offset
            nodes[index].left = recurse(left_rows)
            nodes[index].right = recurse(right_rows)
            return index

        recurse(np.arange(self.data.shape[0], dtype=np.int64))
        return nodes

    def _fit(self, data: np.ndarray) -> None:
        rng = resolve_rng(self.seed)
        self._trees = [self._build_tree(rng) for _ in range(self.num_trees)]

    def search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        query = as_vector(query, dim=self.data.shape[1], name="query")
        budget = self.search_k if self.search_k is not None else k * self.num_trees * 2
        # Priority queue over tree frontiers: (-margin, counter, tree, node).
        # Larger margin = query is further inside that subtree's halfspace.
        frontier: list[tuple[float, int, int, int]] = []
        counter = 0
        for tree_id in range(len(self._trees)):
            frontier.append((-np.inf, counter, tree_id, 0))
            counter += 1
        heapq.heapify(frontier)
        candidates: list[np.ndarray] = []
        gathered = 0
        while frontier and gathered < budget:
            _, _, tree_id, node_id = heapq.heappop(frontier)
            node = self._trees[tree_id][node_id]
            if node.is_leaf:
                candidates.append(node.rows)
                gathered += node.rows.size
                continue
            margin = float(node.normal @ query) - node.offset
            near, far = (
                (node.left, node.right) if margin < 0 else (node.right, node.left)
            )
            heapq.heappush(frontier, (-abs(margin), counter, tree_id, near))
            counter += 1
            # The far child is reachable but at a penalty proportional to
            # how far the query sits from the plane.
            heapq.heappush(frontier, (abs(margin), counter, tree_id, far))
            counter += 1
        if candidates:
            unique = np.unique(np.concatenate(candidates))
        else:  # pragma: no cover - only with absurd budgets
            unique = np.empty(0, dtype=np.int64)
        return self._rank_candidates(query, unique, k)


# -- product quantization (Jegou et al.) with ADC scanning -------------------------


class PqIndex(AnnIndex):
    """Flat PQ index: ADC-scan all codes, optionally rerank exactly.

    The vector space is split into ``num_subspaces`` chunks, each
    clustered into ``num_codes`` codewords -- the system's own
    :func:`~repro.distance.scorer.pq_codebooks` /
    :func:`~repro.distance.scorer.pq_encode`, here at the figure's
    codeword count -- so a vector compresses to one code per subspace.
    A query scores every code with an Asymmetric Distance Computation
    table: per-subspace distances from the query to each codeword,
    summed by table lookup.
    """

    name = "pq"

    def __init__(
        self,
        num_subspaces: int = 8,
        num_codes: int = 256,
        *,
        rerank: int = 0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if num_subspaces < 1:
            raise ValueError(
                f"num_subspaces must be positive, got {num_subspaces}"
            )
        if num_codes < 2:
            raise ValueError(f"num_codes must be >= 2, got {num_codes}")
        if rerank < 0:
            raise ValueError(f"rerank must be >= 0, got {rerank}")
        self.num_subspaces = int(num_subspaces)
        self.num_codes = int(num_codes)
        self.rerank = int(rerank)
        self.seed = int(seed)
        self.codebooks: np.ndarray | None = None  # (m, ks, dim/m)
        self._codes: np.ndarray | None = None

    def _fit(self, data: np.ndarray) -> None:
        self.codebooks = pq_codebooks(
            data, self.num_subspaces, self.num_codes, seed=self.seed
        )
        self._codes = pq_encode(self.codebooks, data)

    def adc_scores(self, query: np.ndarray) -> np.ndarray:
        """Approximate squared distances from ``query`` to every code."""
        query = as_vector(query, dim=self.data.shape[1], name="query")
        width = self.codebooks.shape[2]
        total = np.zeros(self._codes.shape[0], dtype=np.float64)
        for sub, centers in enumerate(self.codebooks):
            diff = centers - query[sub * width : (sub + 1) * width]
            total += np.einsum("ij,ij->i", diff, diff)[self._codes[:, sub]]
        return total

    def search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        # ADC work in full-distance equivalents: the table build costs
        # ks sub-distances per subspace (= ks full distances total) and
        # the scan costs m lookups per code (= m/d of a full distance).
        self.ops += self.codebooks.shape[1] + max(
            1, int(self._codes.shape[0] * self.num_subspaces / self.data.shape[1])
        )
        scores = self.adc_scores(query)
        take = min(max(k, self.rerank), scores.shape[0])
        prefix = np.argpartition(scores, take - 1)[:take]
        if self.rerank:
            # Rerank the shortlist with exact distances.
            return self._rank_candidates(query, prefix.astype(np.int64), k)
        order = prefix[np.argsort(scores[prefix], kind="stable")][:k]
        query64 = np.asarray(query, dtype=np.float64)
        exact = np.sqrt(
            ((self.data[order].astype(np.float64) - query64) ** 2).sum(axis=1)
        )
        # The shortlist is chosen by approximate ADC score, but the
        # distances returned are exact -- re-sort so the returned pairs
        # are ascending in what the caller actually sees.
        resort = np.argsort(exact, kind="stable")
        return order[resort].astype(np.int64), exact[resort]
