"""The public HNSW index: insertion, search, external ids, persistence.

Implements ``INSERT`` (Algorithm 1) and ``K-NN-SEARCH`` (Algorithm 5) of
Malkov & Yashunin on top of the primitives in :mod:`repro.hnsw.search` and
:mod:`repro.hnsw.heuristic`.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from repro.distance.scorer import QuantizedStore, Scorer
from repro.errors import IndexNotBuiltError, SerializationError
from repro.hnsw.graph import HnswGraph, VisitedPool
from repro.hnsw.heuristic import (
    select_neighbors_heuristic_batch,
    select_neighbors_simple,
)
from repro.hnsw.params import HnswParams
from repro.hnsw.search import (
    descend_arrays,
    descend_to_levels_batch,
    search_arrays,
    search_layer_batch,
    sort_candidates,
)
from repro.obs.tracing import current_recorder, maybe_span
from repro.utils import container
from repro.utils.validation import as_matrix, as_vector, payload_member

_IDS_DTYPE = np.int64

#: Layout version :meth:`HnswIndex.to_arrays` writes and ``from_arrays``
#: accepts.
_FORMAT_VERSION = 2

#: Upper bound on queries searched in one lockstep round.  Each lockstep
#: query needs its own O(num_nodes) visited set, pooled per thread: on
#: the heap venue one Python-list :class:`VisitedTable` per query (8
#: bytes per slot), on the array venue one row of a shared
#: :class:`VisitedEpochs` (1 byte per slot, ``rows x num_nodes`` in all).
#: An unbounded batch would cost O(B * num_nodes) memory either way;
#: larger groups also stop amortising once the flat scoring calls are a
#: few thousand rows wide.  search_batch slices big batches into groups
#: of this size.
_MAX_LOCKSTEP = 64

#: Smallest lockstep group -- query group or construction wave -- run on
#: the array venue (``search.descend_arrays`` / ``search_arrays``);
#: smaller groups run the heap kernels.  An array round costs a fixed 40
#: numpy calls however many rows are live (counted call by call in
#: ``benchmarks/results/pairs/PR30.md``; 48 before its gathers became
#: flat ``take`` s); a heap round costs interpreter time per row and per
#: neighbor (one table row read per expansion).  Both read the graph's
#: one in-place table.  The table below is a command --
#: ``benchmarks/bench_batch_throughput.py --check venues`` -- which also
#: asserts that both venues return the same ids, distances and
#: ``SearchCost``: one segment, ms per query, heap over array, min of 21
#: (4000 x 64: M = 12, ef = 64; 2400 x 32: M = 6, ef = 10):
#:
#:     rows              1     4     8     10    12    16    24    32    64
#:     4000 x 64 int8   0.87  0.51  0.42  0.40  0.39  0.37  0.36  0.36  0.36
#:                      1.79  0.59  0.34  0.29  0.26  0.20  0.15  0.13  0.10
#:     4000 x 64 float  0.83  0.51  0.41  0.40  0.39  0.37  0.37  0.36  0.37
#:                      1.88  0.60  0.33  0.28  0.24  0.20  0.15  0.13  0.09
#:     2400 x 32 int8   0.29  0.17  0.12  0.11  0.10  0.09  0.08  0.08  0.07
#:                      0.55  0.20  0.12  0.10  0.09  0.07  0.05  0.04  0.02
#:     2400 x 32 float  0.23  0.14  0.10  0.10  0.09  0.08  0.07  0.07  0.07
#:                      0.51  0.19  0.11  0.08  0.08  0.06  0.04  0.04  0.03
#:
#: The curves cross at 8-9 rows on both shapes (at 8 rows the 2400 x 32
#: cells read 0.92x-1.02x from run to run); 10 is the first size at which
#: arrays won every cell of every run (12 before the round was rebuilt),
#: and a default 64-row construction wave sits x3-4 past it.  A single
#: row is x2.1-2.3 slower on arrays than on heaps -- the floor ROADMAP
#: 2(c) asks for.  Both venues apply the same beam rule (see
#: :mod:`repro.hnsw.search`), so the constant moves time and never a
#: result.
_ARRAY_MIN_ROWS = 10


class HnswIndex:
    """A Hierarchical Navigable Small World index.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    metric:
        ``"euclidean"``, ``"cosine"`` or ``"inner_product"``.
    params:
        Hyper-parameters; see :class:`~repro.hnsw.params.HnswParams`.

    Notes
    -----
    The index is *incremental*: :meth:`add` may be called repeatedly.
    External ids are arbitrary non-negative integers (defaults to
    0..n-1 in insertion order); duplicates are rejected.
    """

    def __init__(
        self,
        dim: int,
        metric: str = "euclidean",
        params: HnswParams | None = None,
    ) -> None:
        self.params = params or HnswParams()
        self.metric_name = metric if isinstance(metric, str) else metric.name
        self._scorer = Scorer(metric, dim)
        self._graph = HnswGraph(
            max(self.params.effective_max_m, self.params.effective_max_m0)
        )
        self._external_ids: list[int] = []
        # Array form of _external_ids (plus a padding slot) for the search
        # tail, built on first use; whatever writes _external_ids resets
        # it to None.
        self._external_array: np.ndarray | None = None
        self._id_to_row: dict[int, int] = {}
        # The id add() numbers from when none are given: one past the
        # largest external id ever stored.
        self._next_id = 0
        self._rng = np.random.default_rng(self.params.seed)
        self._visited_pool = VisitedPool()
        # Compressed-domain scoring tier: the beam search traverses on
        # codes, the final candidates are rescored exactly (see
        # _search_many).  Construction always runs on float32.
        self._quantized: QuantizedStore | None = None
        if self.params.quantize != "none":
            self._quantized = QuantizedStore(
                self._scorer,
                self.params.quantize,
                pq_subspaces=self.params.pq_subspaces,
                seed=self.params.seed,
            )

    # -- introspection -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._graph)

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self._scorer.dim

    @property
    def max_level(self) -> int:
        """Top layer currently present (-1 when empty)."""
        return self._graph.max_level

    @property
    def graph(self) -> HnswGraph:
        """The underlying layered graph (read-mostly; used by tests)."""
        return self._graph

    @property
    def external_ids(self) -> np.ndarray:
        """External ids in internal row order."""
        return np.asarray(self._external_ids, dtype=_IDS_DTYPE)

    @property
    def distance_ops(self) -> int:
        """Full-vector distance evaluations so far (build + search)."""
        return self._scorer.ops

    def reset_distance_ops(self) -> None:
        """Zero the distance counter (e.g. after build, before search)."""
        self._scorer.ops = 0

    def vector(self, external_id: int) -> np.ndarray:
        """Stored vector for ``external_id`` (normalised for cosine)."""
        return np.array(self._scorer.data[self._id_to_row[external_id]])

    # -- construction ----------------------------------------------------------------
    def _draw_level(self) -> int:
        uniform = float(self._rng.random())
        # Guard against log(0).
        uniform = max(uniform, np.finfo(np.float64).tiny)
        return int(-math.log(uniform) * self.params.effective_ml)

    def add(self, vectors: np.ndarray, ids: np.ndarray | None = None) -> None:
        """Insert vectors (Algorithm 1 of Malkov & Yashunin).

        Rows are inserted in lockstep construction waves of
        ``params.build_batch`` rows (:meth:`_insert_wave`); a single row
        is a wave of one.  One level per row is drawn from the index's
        RNG stream, in row order, whatever the wave size.

        Parameters
        ----------
        vectors:
            Shape ``(n, dim)`` or a single ``(dim,)`` vector.
        ids:
            Optional external ids, one per vector; must be new.  Omitted,
            rows are numbered on from the largest id ever added.
        """
        vectors = as_matrix(vectors, dim=self.dim, name="vectors")
        n = vectors.shape[0]
        if ids is None:
            ids = np.arange(self._next_id, self._next_id + n, dtype=_IDS_DTYPE)
        else:
            ids = np.asarray(ids, dtype=_IDS_DTYPE)
            if ids.shape != (n,):
                raise ValueError(
                    f"ids has shape {ids.shape}, expected ({n},)"
                )
            if (ids < 0).any():
                # -1 is the batch-result padding sentinel; negative
                # external ids would be indistinguishable from it.
                raise ValueError("external ids must be non-negative")
            if np.unique(ids).size != n:
                raise ValueError("duplicate ids within one add() call")
        if n == 0:
            return
        if self._id_to_row and n >= 1024:
            # Bulk insert: one vectorised membership check.  The
            # existing-id array costs O(len(index)) to materialise, so
            # this only pays off when the batch is large enough to
            # amortise it.
            clashes = np.isin(ids, self.external_ids)
            if clashes.any():
                clash = int(ids[np.flatnonzero(clashes)[0]])
                raise ValueError(f"id {clash} already present")
        elif self._id_to_row:
            # Small incremental add: the dict probe is O(n) regardless
            # of index size, where the vectorised check would be
            # O(len(index)) per call -- quadratic across many calls.
            for external_id in ids.tolist():
                if external_id in self._id_to_row:
                    raise ValueError(f"id {external_id} already present")
        rows = self._scorer.add(vectors)
        row_list = rows.tolist()
        self._external_ids.extend(ids.tolist())
        self._next_id = max(self._next_id, int(ids.max()) + 1)
        self._external_array = None
        for row, external_id in zip(row_list, ids.tolist()):
            self._id_to_row[external_id] = row

        # One level per row, drawn up-front in row order: the RNG stream
        # is consumed identically whatever the wave size.
        levels = [self._draw_level() for _ in range(n)]
        graph = self._graph
        start = 0
        if len(graph) == 0:
            # Bootstrap an empty graph: the first row becomes the entry
            # point the first wave descends from.
            graph.add_node(levels[0])
            graph.entry_point = row_list[0]
            graph.max_level = levels[0]
            start = 1
        wave = max(self.params.build_batch, 1)
        for begin in range(start, n, wave):
            self._insert_wave(
                row_list[begin : begin + wave],
                levels[begin : begin + wave],
            )
        if self._quantized is not None:
            # Retrain the codec over the full stored matrix: codes must
            # cover every row before the next search, and refitting on
            # the same data + seed is deterministic.
            self._quantized.refresh()

    def _max_degrees(self, layers: np.ndarray) -> np.ndarray:
        """Out-degree bound at each of ``layers`` (the base layer allows
        more)."""
        params = self.params
        return np.where(
            layers == 0, params.effective_max_m0, params.effective_max_m
        )

    def _select_neighbors(
        self, ids: np.ndarray, dists: np.ndarray, m: int, keep_pruned: bool
    ) -> np.ndarray:
        """Pick at most ``m`` links for each row of a ``(P, C)`` candidate
        stack, in one round: ``(P, <= m)`` ids, ``-1`` past a short list.

        The diversity heuristic (Algorithm 4) unless
        ``params.use_heuristic`` is off.  Under an active tracing
        recorder the round is a ``select`` span.
        """
        with maybe_span(current_recorder(), "select") as span:
            if span is not None:
                counts = np.count_nonzero(ids >= 0, axis=1)
                span["annotations"].update(
                    problems=ids.shape[0],
                    width=int(counts.max(initial=0)),
                    pending=int(np.count_nonzero(counts > m)),
                )
            if self.params.use_heuristic:
                return select_neighbors_heuristic_batch(
                    self._scorer, ids, dists, m, keep_pruned=keep_pruned
                )[0]
            return select_neighbors_simple(ids, dists, m)[0]

    def _insert_wave(self, rows: list[int], levels: list[int]) -> None:
        """Insert one construction wave through the lockstep batch kernels.

        The whole wave descends and beam-searches against a *snapshot* of
        the graph (wave members are unreachable until the apply phase, so
        every row sees the same pre-wave links), pooling each round's
        distance evaluations into one vectorised call exactly like the
        batched query path -- through the same :meth:`_descend` /
        :meth:`_beam`, so a wide wave runs on the array kernels and a
        narrow one (or the few rows of a wave that reach an upper layer)
        on the heaps.  Because wave members cannot find each other
        by traversal, every row's candidates are augmented with its
        *earlier* wave-mates -- the neighbors one-row-at-a-time insertion
        would have been able to reach -- scored by one wave-wide GEMM.
        Candidates stay in the kernels' ``(ids, dists)`` array form from
        the beam to the table: each (row, layer) problem is one row of a
        ``(P, ef + 2M)`` stack -- the layer's beam, then the offered
        mates -- and one :meth:`_select_neighbors` round turns the stack
        into the ``(P, M)`` lists ``set_neighbor_lists`` writes.  Links
        (forward lists plus reverse-link shrinking) are applied in
        ascending row order, so the same seed and wave size always
        produce the same graph.  The graph must be non-empty.
        """
        params = self.params
        graph = self._graph
        scorer = self._scorer
        count = len(rows)
        previous_max = graph.max_level
        graph.add_nodes(levels)

        queries = scorer.data[rows]  # fancy indexing: a true snapshot copy
        query_sq = scorer.query_sq_norms(queries)
        wave_ids = np.asarray(rows, dtype=_IDS_DTYPE)
        levels = np.asarray(levels)
        # Intra-wave candidate distances: earlier rows of the wave are
        # legitimate neighbors for later ones even though no traversal
        # can reach them yet.  Each row only offers its nearest earlier
        # wave-mates to the selection heuristic -- selection keeps at
        # most M links, so a 2x pool preserves the diversity choice while
        # keeping the selection stack narrow.
        wave_cross = scorer.pairwise_ids(wave_ids)
        # Row i's earlier mates, nearest first (ties by wave position):
        # later mates sort behind every real distance and are never
        # offered (level -1).
        earlier = np.tri(count, k=-1, dtype=bool)
        mates = np.argsort(
            np.where(earlier, wave_cross, np.inf), axis=1, kind="stable"
        )[:, : 2 * params.M]
        mate_ids = wave_ids[mates]
        mate_dists = np.take_along_axis(wave_cross, mates, axis=1)
        mate_levels = np.where(
            np.take_along_axis(earlier, mates, axis=1), levels[mates], -1
        )

        join = np.minimum(levels, previous_max)
        entries, entry_dists = self._descend(scorer, "float", queries, query_sq, join)
        # Each row's beam at the layer above seeds its search of the next.
        ef = max(params.ef_construction, 1)
        beam_ids = np.full((count, ef), -1, dtype=_IDS_DTYPE)
        beam_dists = np.full((count, ef), np.inf, dtype=np.float32)
        beam_ids[:, 0], beam_dists[:, 0] = entries, entry_dists
        # One selection problem per (row, layer), stacked in apply order
        # -- row ascending, layer descending: row i's start at first[i].
        spans = join + 1
        first = np.cumsum(spans) - spans
        nodes = wave_ids.repeat(spans)
        layers = np.empty(nodes.size, dtype=_IDS_DTYPE)
        cand_ids = np.full((nodes.size, ef + mates.shape[1]), -1, dtype=_IDS_DTYPE)
        cand_dists = np.full(cand_ids.shape, np.inf, dtype=np.float32)
        for layer in range(int(join.max()), -1, -1):
            active = np.flatnonzero(join >= layer)
            found = self._beam(
                scorer, "float", queries[active], query_sq[active],
                beam_ids[active], beam_dists[active], ef, layer,
            )
            beam_ids[active], beam_dists[active] = found
            problems = first[active] + join[active] - layer
            layers[problems] = layer
            cand_ids[problems, :ef], cand_dists[problems, :ef] = found
            offered = mate_levels[active] >= layer
            cand_ids[problems, ef:] = np.where(offered, mate_ids[active], -1)
            cand_dists[problems, ef:] = np.where(
                offered, mate_dists[active], np.inf
            )
        selected = self._select_neighbors(
            cand_ids, cand_dists, params.M, params.keep_pruned_connections
        )

        # Apply phase: deterministic row order.  Every forward list is
        # written, then every reverse link is appended in that same order
        # while its row is below the degree bound (a wave row is only
        # linked to by later rows, so its own list is in place first).
        # Reverse links that would overflow a row are held back, and
        # those (node, layer) pairs are re-selected afterwards in one
        # vectorised round (one shrink per wave instead of one per edge,
        # and the re-selection sees every wave row that linked in).
        graph.set_neighbor_lists(nodes, layers, selected)
        problems, columns = np.nonzero(selected >= 0)
        linked = selected[problems, columns]
        link_layers, sources = layers[problems], nodes[problems]
        refused = graph.add_links(
            linked, link_layers, sources, self._max_degrees(link_layers)
        )
        if refused.any():
            self._shrink_links_wave(
                linked[refused], link_layers[refused], sources[refused]
            )

        # Entry point, as if the rows had arrived one by one: the first
        # row of the wave's top level, if that is a new maximum.
        top = int(levels.argmax())
        if levels[top] > previous_max:
            graph.entry_point, graph.max_level = rows[top], int(levels[top])

    def _shrink_links_wave(
        self, nodes: np.ndarray, layers: np.ndarray, sources: np.ndarray
    ) -> None:
        """Re-select the out-links of full rows that were offered more.

        ``nodes[e]`` at ``layers[e]`` is at its degree bound and
        ``sources[e]`` would have linked in; the candidates of each such
        (node, layer) are its table row plus every source held back, one
        row of a ``(P, width + most held back)`` stack.  All
        node-to-neighbor distances come from one
        :meth:`~repro.distance.scorer.Scorer.score_pairs` call and the
        re-selections run as (at most) two :meth:`_select_neighbors`
        rounds -- one per degree bound -- instead of one small GEMM per
        over-full edge.  Each node is shrunk once per wave with *every*
        wave row that linked to it in the candidate set, which can only
        widen the pool the diversity heuristic picks from.

        Pruned candidates are never kept (``keep_pruned=False``, whatever
        ``params.keep_pruned_connections`` says): an over-full list is
        being *pruned*, and padding it straight back to the degree bound
        densifies the graph far beyond the degree profile a per-edge
        shrink gives -- which measurably slows every later wave's beam
        search.  hnswlib's reverse-link shrink makes the same call.
        """
        graph = self._graph
        scorer = self._scorer
        slots = graph.base[nodes] + layers
        order = np.argsort(slots, kind="stable")
        slots, starts = np.unique(slots[order], return_index=True)
        nodes, layers = nodes[order][starts], layers[order][starts]
        # Problem p: its table row (padding is the node itself), then the
        # sizes[p] sources held back from it.
        held = sources[order]
        sizes = np.diff(np.append(starts, held.size))
        problems = np.arange(slots.size).repeat(sizes)
        width = graph.table.shape[1]
        cand_ids = np.full(
            (slots.size, width + int(sizes.max())), -1, dtype=_IDS_DTYPE
        )
        row = graph.table[slots]
        cand_ids[:, :width] = np.where(row != nodes[:, np.newaxis], row, -1)
        cand_ids[problems, width + np.arange(held.size) - starts[problems]] = held
        real = cand_ids >= 0
        queries = scorer.data[nodes]
        cand_dists = np.full(cand_ids.shape, np.inf, dtype=np.float32)
        cand_dists[real] = scorer.score_pairs(
            queries, np.nonzero(real)[0], cand_ids[real],
            scorer.query_sq_norms(queries),
        )
        # Two rounds at most: the degree bound differs between the base
        # layer and the upper layers.
        bounds = self._max_degrees(layers)
        for bound in np.unique(bounds).tolist():
            at = bounds == bound
            graph.set_neighbor_lists(
                nodes[at], layers[at],
                self._select_neighbors(cand_ids[at], cand_dists[at], bound, False),
            )

    # -- search ------------------------------------------------------------------------
    def _descend(
        self,
        traversal,
        arm: str,
        queries: np.ndarray,
        query_sq: np.ndarray,
        target_levels: np.ndarray,
        cost=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Greedy descent of one lockstep group -- a query group or a
        construction wave -- to its per-row ``target_levels``: entry
        nodes (int64) and reduced entry distances (float32).

        The venue is a property of the group: ``_ARRAY_MIN_ROWS`` rows or
        more run on the array kernel, fewer on the heap kernel; both walk
        the same path.  Under an active tracing recorder the stage is a
        ``descend`` span tagged ``scorer=<arm>``, ``kernel=heap|array``
        and ``rounds=<n>``.
        """
        arrays = queries.shape[0] >= _ARRAY_MIN_ROWS
        with maybe_span(
            current_recorder(), "descend",
            scorer=arm, kernel="array" if arrays else "heap",
        ) as span:
            kernel = descend_arrays if arrays else descend_to_levels_batch
            return kernel(
                self._graph, traversal, queries, target_levels, query_sq, cost,
                span["annotations"] if span is not None else None,
            )

    def _beam(
        self,
        traversal,
        arm: str,
        queries: np.ndarray,
        query_sq: np.ndarray,
        entries: np.ndarray,
        entry_dists: np.ndarray,
        ef: int,
        level: int,
        cost=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Beam search of one lockstep group at ``level`` from ``(rows,
        <= ef)`` seed beams: ``(rows, ef)`` ids / reduced distances
        sorted by ``(distance, node)``, ``-1`` / ``inf`` past a short
        beam (seeds come in the same form).

        The venue is chosen as in :meth:`_descend`; both kernels apply
        one beam rule (:mod:`repro.hnsw.search`), so the choice moves
        time and never a result.  The ``beam`` span carries the same tags
        plus ``ef`` and ``num_queries``.
        """
        graph = self._graph
        num_queries = queries.shape[0]
        arrays = num_queries >= _ARRAY_MIN_ROWS
        with maybe_span(
            current_recorder(), "beam",
            scorer=arm, kernel="array" if arrays else "heap",
            ef=ef, num_queries=num_queries,
        ) as span:
            pool = self._visited_pool
            if arrays:
                kernel = search_arrays
                visited = pool.get_epochs(graph.capacity, num_queries)
            else:
                kernel = search_layer_batch
                visited = pool.get_many(len(graph), num_queries)
            return kernel(
                graph, traversal, queries, entries, entry_dists, ef, level,
                visited, query_sq, cost,
                span["annotations"] if span is not None else None,
            )

    def _search_many(
        self, queries: np.ndarray, k: int, ef: int | None, cost=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Search one lockstep group: ``(B, <= k)`` ids and true distances,
        rows that found fewer padded with ``-1`` / ``inf``.

        The single query code path (:meth:`search` is a batch of one):
        candidates -> exact rescore iff they were scored approximately ->
        gather external ids.  Only who scores the candidates varies.
        Below ``params.min_graph_size`` rows the graph buys nothing, so
        the whole segment is the candidate set, scored exactly by
        :meth:`Scorer.score_all_batch` (arm ``flat``).  Otherwise the
        lockstep descend + beam kernels score with the float
        :class:`Scorer` (``float``) or, unchanged, with a per-batch
        :meth:`QuantizedStore.view` over compressed codes (``int8`` /
        ``pq``) slotted in through :class:`~repro.hnsw.search.PairScorer`.
        Approximate scores only decide *which* candidates survive: the
        beam keeps ``max(beam, rescore_k)`` of them and every survivor is
        rescored by the float :meth:`Scorer.score_pairs`, so returned
        distances are bit-identical to the float arm for any candidate
        both return.  A group of ``_ARRAY_MIN_ROWS`` rows or more runs
        descend + beam on the array kernels, a smaller one on the heap
        kernels.  Every arm scores a row independently of which other
        rows share the batch and both venues apply one beam rule
        (:mod:`repro.hnsw.search`), so results do not depend on how
        queries are grouped.

        ``cost`` (an optional :class:`~repro.obs.cost.SearchCost`)
        accumulates hops / candidates from the kernels, ``rescore_rows``
        and this batch's ``Scorer.ops`` delta as ``distance_comps`` --
        under concurrent searches of one segment the delta can
        misattribute work between batches, but the totals stay exact.
        Under an active tracing recorder
        (:func:`~repro.obs.tracing.current_recorder`) every stage is a
        span -- ``scan``, or ``descend`` / ``beam`` (/ ``rescore``) --
        tagged ``scorer=<arm>`` and, for the two graph stages,
        ``kernel=heap|array`` and ``rounds=<n>``; with no recorder and
        ``cost=None`` nothing but the search runs.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        graph, scorer = self._graph, self._scorer
        if len(graph) == 0:
            raise IndexNotBuiltError("search on an empty HNSW index")
        num_queries = queries.shape[0]
        prepared = scorer.prepare_queries(queries)
        recorder = current_recorder()
        ops_before = scorer.ops if cost is not None else 0
        if len(graph) < self.params.min_graph_size:
            # Rows are scored one at a time on purpose: BLAS accumulation
            # order inside a multi-row GEMM varies with the batch shape,
            # and the serving stack's coalescing layers rely on every
            # row's result being bit-independent of which other rows
            # share the batch.  The stable argsort breaks distance ties
            # by internal row -- the (distance, node) order of the sorted
            # beam below and of the blocked exact scan in
            # :func:`repro.offline.brute_force.exact_top_k`.
            width = min(k, len(graph))
            rows = np.empty((num_queries, width), dtype=_IDS_DTYPE)
            reduced = np.empty((num_queries, width), dtype=np.float32)
            with maybe_span(
                recorder, "scan", scorer="flat",
                rows=len(graph), num_queries=num_queries,
            ):
                for row in range(num_queries):
                    scores = scorer.score_all_batch(prepared[row : row + 1])[0]
                    rows[row] = np.argsort(scores, kind="stable")[:k]
                    reduced[row] = scores[rows[row]]
        else:
            query_sq = scorer.query_sq_norms(prepared)
            depth = max(ef if ef is not None else self.params.ef_search, k)
            traversal, arm = scorer, "float"
            if self._quantized is not None:
                traversal = self._quantized.view(prepared)
                arm = self._quantized.kind
                depth = max(depth, self.params.rescore_k)
            entries, entry_dists = self._descend(
                traversal, arm, prepared, query_sq,
                np.zeros(num_queries, dtype=_IDS_DTYPE), cost,
            )
            rows, reduced = self._beam(
                traversal, arm, prepared, query_sq,
                entries[:, np.newaxis], entry_dists[:, np.newaxis],
                depth, 0, cost,
            )
            if traversal is not scorer:
                # Exact rescore: one flat float32 scoring call for every
                # beam survivor of the whole batch, then the same
                # (distance, node) order the float arm's sorted beam has.
                found = rows >= 0
                flat_rows = rows[found]
                with maybe_span(
                    recorder, "rescore", scorer=arm, rows=flat_rows.size
                ):
                    reduced[found] = scorer.score_pairs(
                        prepared,
                        np.nonzero(found)[0],
                        flat_rows,
                        query_sq,
                    )
                    rows, reduced = sort_candidates(rows, reduced)
                if cost is not None:
                    cost.rescore_rows += int(flat_rows.size)
        if cost is not None:
            cost.distance_comps += scorer.ops_since(ops_before)
        external = self._external_array
        if external is None:
            # One trailing -1, so that an unused slot (row -1) gathers
            # the padding id.
            external = self._external_array = np.append(self.external_ids, -1)
        # + 0.0: a zero distance is +0.0 whichever kernel found it.
        return (
            external[rows[:, :k]],
            scorer.to_true(reduced[:, :k].astype(np.float64) + 0.0),
        )

    def search(
        self, query: np.ndarray, k: int, ef: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return the approximate ``k`` nearest neighbors of ``query``.

        A thin wrapper over :meth:`search_batch` with a batch of one.

        Parameters
        ----------
        query:
            A single ``(dim,)`` vector.
        k:
            Number of neighbors.
        ef:
            Beam width; defaults to ``max(params.ef_search, k)``.

        Returns
        -------
        (ids, distances):
            External ids and *true* metric distances, ascending, length
            ``min(k, len(index))``.
        """
        query = as_vector(query, dim=self.dim, name="query")
        ids, dists = self._search_many(query[np.newaxis, :], k, ef)
        found = np.count_nonzero(ids[0] >= 0)  # padding comes last
        return ids[0, :found], dists[0, :found]

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        ef: int | None = None,
        *,
        cost=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Search many queries in lockstep; ``(B, k)`` id/distance arrays.

        Per-query results are identical to calling :meth:`search` in a
        loop; the batch amortises query preparation, entry-point descent
        setup and pools every round's distance evaluations into one
        vectorised call.  Rows are padded with id ``-1`` / distance
        ``inf`` when the index holds fewer than ``k`` points.  ``cost``
        optionally accumulates this batch's search work (see
        :class:`~repro.obs.cost.SearchCost`); results are identical
        either way.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = as_matrix(queries, dim=self.dim, name="queries")
        n = queries.shape[0]
        found = [
            self._search_many(queries[start : start + _MAX_LOCKSTEP], k, ef, cost)
            for start in range(0, n, _MAX_LOCKSTEP)
        ]
        if len(found) == 1 and found[0][0].shape[1] == k:
            # One lockstep group, every request of the serving path: its
            # int64 / float64 arrays are the answer as they stand.
            return found[0]
        ids = np.full((n, k), -1, dtype=_IDS_DTYPE)
        dists = np.full((n, k), np.inf, dtype=np.float64)
        for start, (found_ids, found_dists) in zip(
            range(0, n, _MAX_LOCKSTEP), found
        ):
            width = found_ids.shape[1]  # < k on a segment smaller than k
            ids[start : start + _MAX_LOCKSTEP, :width] = found_ids
            dists[start : start + _MAX_LOCKSTEP, :width] = found_dists
        return ids, dists

    # -- persistence --------------------------------------------------------------------
    def to_arrays(self) -> dict:
        """Serialize to a dict of numpy arrays + metadata (what :meth:`save`
        writes); the adjacency members are :meth:`HnswGraph.to_arrays`'s."""
        n = len(self._graph)
        payload: dict = {
            "format_version": np.asarray(_FORMAT_VERSION),
            "metric": np.asarray(self.metric_name),
            "dim": np.asarray(self.dim),
            "count": np.asarray(n),
            **self._graph.to_arrays(),
            "external_ids": self.external_ids,
            "vectors": np.array(self._scorer.data),
            "params_json": np.asarray(json.dumps(self.params.to_dict())),
        }
        if self._quantized is not None:
            if not self._quantized.is_trained and n:
                self._quantized.refresh()
            payload.update(self._quantized.to_arrays())
        return payload

    @classmethod
    def from_arrays(cls, payload: dict) -> "HnswIndex":
        """Inverse of :meth:`to_arrays`; the arrays are adopted, not copied.
        Every member is checked before any state is built -- a payload
        that loads also searches -- and a bad one is a
        ``SerializationError`` naming it."""
        found = payload.get("format_version")
        if found is not None:
            found = np.asarray(found).tolist()
        if found != _FORMAT_VERSION:
            raise SerializationError(
                "HNSW payload format_version is "
                f"{'missing' if found is None else repr(found)}; "
                f"this build reads {_FORMAT_VERSION}"
            )
        member = functools.partial(payload_member, payload)
        params = HnswParams.from_dict(json.loads(str(member("params_json"))))
        index = cls(
            dim=int(member("dim")),
            metric=str(member("metric")),
            params=params,
        )
        n = int(member("count"))
        if n == 0:
            return index
        vectors = member("vectors", np.float32, (n, index.dim))
        external = member("external_ids", _IDS_DTYPE, (n,))
        external_ids = external.tolist()
        id_to_row = {ext: row for row, ext in enumerate(external_ids)}
        # The invariants add() enforces: -1 is the batch padding sentinel,
        # and two rows under one id would collapse in _id_to_row.
        if external.min() < 0 or len(id_to_row) != n:
            raise SerializationError(
                "HNSW payload member 'external_ids' holds a negative or a "
                "repeated id"
            )
        graph = HnswGraph.from_arrays(
            payload, n, params.effective_max_m, params.effective_max_m0
        )
        quantized = index._quantized
        if quantized is not None and "codec_kind" in payload:
            # Codes are restored, not retrained: the persisted codec is
            # the one the offline build fitted on this segment.
            quantized = QuantizedStore.from_arrays(
                index._scorer,
                payload,
                n,
                pq_subspaces=params.pq_subspaces,
                seed=params.seed,
            )
        index._scorer.adopt_rows(vectors)
        index._graph, index._quantized = graph, quantized
        index._external_ids, index._id_to_row = external_ids, id_to_row
        index._next_id = int(external.max()) + 1
        return index

    def save(self, file) -> None:
        """Write :meth:`to_arrays` as one byte-plane container
        (:mod:`repro.utils.container`, the one segment codec) to a path
        or a binary file object."""
        data = container.pack(self.to_arrays())
        if hasattr(file, "write"):
            file.write(data)
            return
        with open(file, "wb") as handle:
            handle.write(data)

    @classmethod
    def load(cls, file) -> "HnswIndex":
        """Read what :meth:`save` wrote; anything else -- empty, torn,
        bit-flipped, missing -- is a ``SerializationError`` naming ``file``."""
        try:
            if hasattr(file, "read"):
                payload = container.unpack(file.read())
            else:
                with open(file, "rb") as handle:
                    payload = container.unpack(handle.read())
        except (OSError, SerializationError) as error:
            raise SerializationError(
                f"HNSW index {file!r} is not a readable segment ({error})"
            ) from error
        return cls.from_arrays(payload)


def build_hnsw(
    vectors: np.ndarray,
    *,
    ids: np.ndarray | None = None,
    metric: str = "euclidean",
    params: HnswParams | None = None,
) -> HnswIndex:
    """One-call construction of an :class:`HnswIndex` over ``vectors``."""
    vectors = as_matrix(vectors, name="vectors")
    index = HnswIndex(dim=vectors.shape[1], metric=metric, params=params)
    index.add(vectors, ids=ids)
    return index
