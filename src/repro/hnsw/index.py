"""The public HNSW index: insertion, search, external ids, persistence.

Implements ``INSERT`` (Algorithm 1) and ``K-NN-SEARCH`` (Algorithm 5) of
Malkov & Yashunin on top of the primitives in :mod:`repro.hnsw.search` and
:mod:`repro.hnsw.heuristic`.
"""

from __future__ import annotations

import functools
import json
import math
from typing import NamedTuple

import numpy as np

from repro.distance.scorer import QuantizedStore, Scorer, StackedScorer
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
    smallest_k,
    sort_candidates,
)
from repro.obs.tracing import current_recorder, maybe_span
from repro.utils import container
from repro.utils.validation import as_matrix, as_vector, payload_member

_IDS_DTYPE = np.int64

#: Layout version :meth:`HnswIndex.to_arrays` writes and ``from_arrays``
#: accepts.
_FORMAT_VERSION = 2

#: Upper bound on the rows of one lockstep group: (query, segment)
#: pairs, which :func:`search_segments` fills in part order -- a shard
#: request's probed segments, or a segment's batch.  Each row needs its
#: own visited set, pooled per thread by the group's first segment: on
#: the heap venue one Python-list :class:`VisitedTable` per row (8 bytes
#: per slot), on the array venue one row of a :class:`VisitedEpochs`,
#: ``rows x`` the largest segment's capacity bytes in all -- 128 x 4928
#: = 616 KiB for the ledger's 4000-row segments, 128 MiB per thread for
#: a million-slot segment.  The table below is a command --
#: ``benchmarks/bench_batch_throughput.py --check venues`` -- which also
#: asserts that a shard group answers and costs what per-segment search
#: does: a 2 x 4000 x 64 int8 shard (M = 12, ef = 64), four requests
#: sized to each pair count, searched as one group and as one group per
#: segment, ms per query, min of 21:
#:
#:     pairs              64      96     128     192
#:     one group         0.184   0.156   0.138   0.126
#:     per segment       0.216   0.180   0.153   0.132
#:
#: Per query a group keeps getting cheaper as it grows (x0.91 from 128
#: to 192 pairs) while its scratch grows with it.  128 holds every
#: 64-query request to two segments in one group; at 64 the ledger's
#: ~83 pairs would split 64 + 19.
_MAX_LOCKSTEP = 128

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
#: row is x2.1-2.3 slower on arrays than on heaps, which is why there
#: are two venues (ROADMAP 8).  Both apply the same beam rule (see
#: :mod:`repro.hnsw.search`), so the constant moves time and never a
#: result.
_ARRAY_MIN_ROWS = 10

#: Step width W of every beam, construction wave and query alike: a
#: round expands each row's ``_STEP_WIDTH`` smallest unexpanded members
#: (the step rule of :mod:`repro.hnsw.search`) and scores all they found
#: in one call.  Both tables below are commands.  Queries --
#: ``benchmarks/bench_batch_throughput.py --check venues``, which also
#: asserts that both venues return the same ids, distances and
#: ``SearchCost`` at every W.  On the four segments of the table above
#: (built at W = 4, one CPU): one row on the heap venue (ms per query,
#: summed over the four, min of 21), array groups of 10 ... 128 rows
#: slower than at W = 1 (of 16), beam rounds of one 4000 x 64 float row,
#: and comps per query on the 4000 x 64 / 2400 x 32 float segments:
#:
#:     W                          1      2      3      4
#:     one row, heap (sum)      2.554  2.302  1.944  1.835
#:     array cells slower         -      2      3      0
#:     beam rounds, one row      53     33     22     17
#:     comps per query         295.8  297.5  298.4  299.7
#:                             106.6  108.7  112.6  116.7
#:
#: W = 4 is the fastest single row among the widths that slow no array
#: group: W = 2 and 3 lose 2-7 % on 2400 x 32 groups of 10 and 16 rows,
#: whose busiest row still takes most of its rounds.  The extra
#: comparisons lift recall (2400 x 32 float recall@10 0.928 -> 0.952).
#: At W = 4 the array venue still wins every segment from 10 rows, so
#: ``_ARRAY_MIN_ROWS`` stays where it is.
#:
#: Construction -- ``benchmarks/bench_build_throughput.py --check
#: widths``: one segment per shape built at each W (M 12,
#: ef_construction 56, 64-row waves; rows/s min of 7 interleaved builds
#: on one CPU of a 2-core x86 box) and the beam rounds of a wave, summed
#: over its layers.  Recall@10 at the shipped W (ef 64) is equal at
#: every W on every shape (1.000; 0.9965 at 16000 x 64):
#:
#:     W                         1      2      4      8
#:     rows/s       250 x 64   9894  12103  13072  12637
#:                 1200 x 32   7281   9101   9147   9470
#:                 4000 x 64   5559   7165   6026   6332
#:                16000 x 64   4348   4881   4773   5318
#:     rounds/wave  250 x 64   43.5   23.0   12.8    8.0
#:                 1200 x 32   70.9   40.3   23.6   14.6
#:                 4000 x 64   95.1   54.2   30.8   18.8
#:                16000 x 64  107.3   61.7   35.4   21.7
#:
#: At W = 4 every shape builds x1.08-1.32 faster than at W = 1 (a second
#: run: x1.11-1.27), at equal recall, in a third of the rounds.  Among
#: W = 2, 4 and 8 the box's drift (+/-15 % over seconds) decides the
#: order shape by shape, so the query table above picks the one W.
_STEP_WIDTH = 4


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
        self._graph = HnswGraph(2 * self.params.M)
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
        # Visited scratch of the lockstep groups this index leads (its
        # own waves and queries, or a shard request's first segment).
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

    def vector(self, external_id: int) -> np.ndarray:
        """Stored vector for ``external_id`` (normalised for cosine)."""
        return np.array(self._scorer.data[self._id_to_row[external_id]])

    # -- construction ----------------------------------------------------------------
    def _draw_level(self) -> int:
        uniform = float(self._rng.random())
        # Guard against log(0).
        uniform = max(uniform, np.finfo(np.float64).tiny)
        return int(-math.log(uniform) * (1.0 / math.log(self.params.M)))

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
        return np.where(layers == 0, 2 * self.params.M, self.params.M)

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
        :func:`_beam`, so a wide wave runs on the array kernels and a
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
            found = _beam(
                self._visited_pool, graph, scorer, "float",
                queries[active], query_sq[active],
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
        selected = self._select_neighbors(cand_ids, cand_dists, params.M, True)

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

        Pruned candidates are never kept here (``keep_pruned=False``;
        insertion keeps them): an over-full list is being *pruned*, and
        padding it straight back to the degree bound densifies the graph
        far beyond the degree profile a per-edge shrink gives -- which
        measurably slows every later wave's beam search.  hnswlib's
        reverse-link shrink makes the same call.
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
        """Greedy descent of this segment's rows of a lockstep group -- a
        query group or a construction wave -- to their per-row
        ``target_levels``: entry nodes (int64) and reduced entry
        distances (float32).  Every segment descends from its own entry
        point, so a group that spans segments descends segment by
        segment.

        The venue is a property of the rows: ``_ARRAY_MIN_ROWS`` or more
        run on the array kernel, fewer on the heap kernel; both walk the
        same path.  ``cost`` gains the walk's hops and, as
        ``distance_comps``, the pairs it read (the heap kernel scores a
        lone row's top levels whole: see
        :func:`~repro.hnsw.search.descend_to_levels_batch`).
        Under an active tracing recorder the stage is a ``descend`` span
        tagged ``scorer=<arm>``, ``kernel=heap|array``, ``rounds=<n>``
        and ``pairs=<n>``.
        """
        arrays = queries.shape[0] >= _ARRAY_MIN_ROWS
        with maybe_span(
            current_recorder(), "descend",
            scorer=arm, kernel="array" if arrays else "heap",
        ) as span:
            notes = span["annotations"] if span is not None else {}
            kernel = descend_arrays if arrays else descend_to_levels_batch
            found = kernel(
                self._graph, traversal, queries, target_levels, query_sq, cost,
                notes,
            )
        if cost is not None:
            cost.distance_comps += notes["pairs"]
        return found

    @staticmethod
    def _search_many(
        parts: list[tuple["HnswIndex", np.ndarray, int]],
        ef: int | None,
        cost=None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Search one lockstep group: for each ``(segment, queries, k)``
        part, ``(B, <= k)`` ids and true distances, rows that found fewer
        padded with ``-1`` / ``inf``.

        The single query code path: a group's rows are (query, segment)
        pairs, and :meth:`search_batch` is the group of one segment.  Per
        part: candidates -> exact rescore iff they were scored
        approximately -> gather external ids.  Only who scores the
        candidates varies.  Below ``params.min_graph_size`` rows the graph
        buys nothing, so the whole segment is the candidate set, scored
        exactly by :meth:`Scorer.score_all_batch` (arm ``flat``).
        Otherwise each segment descends its own rows from its own entry
        point, and the level-0 beam and the exact rescore run once over
        every part of one beam width and arm (:func:`_search_graphs`),
        scored by the float :class:`Scorer` (``float``) or, unchanged, by
        a per-part :meth:`QuantizedStore.view` over compressed codes
        (``int8`` / ``pq``) slotted in through
        :class:`~repro.hnsw.search.PairScorer`.  Approximate scores only
        decide *which* candidates survive: the beam keeps ``max(beam,
        rescore_k)`` of them and every survivor is rescored by the float
        :meth:`Scorer.score_pairs`, so returned distances are
        bit-identical to the float arm for any candidate both return.
        Every arm scores a row independently of which other rows share
        the group and both venues apply one beam rule
        (:mod:`repro.hnsw.search`), so results do not depend on how
        queries and segments are grouped.

        ``cost`` (an optional :class:`~repro.obs.cost.SearchCost`)
        accumulates hops / candidates from the kernels, ``rescore_rows``
        and, as ``distance_comps``, the pairs this group's search read --
        descend, beam, rescore and flat scan -- so concurrent searches of
        one segment each count their own.  Under an active tracing
        recorder (:func:`~repro.obs.tracing.current_recorder`) every stage
        is a span -- ``scan``, or ``descend`` per segment and ``beam``
        (/ ``rescore``) per group -- tagged ``scorer=<arm>`` and, for the
        two graph stages, ``kernel=heap|array`` and ``rounds=<n>``; with
        no recorder and ``cost=None`` nothing but the search runs.
        """
        if ef is not None and ef < 1:
            raise ValueError(f"ef must be positive, got {ef}")
        answers: list = [None] * len(parts)
        beams: dict[tuple, list[_Piece]] = {}
        for number, (index, queries, k) in enumerate(parts):
            if k <= 0:
                raise ValueError(f"k must be positive, got {k}")
            graph, scorer, params = index._graph, index._scorer, index.params
            if len(graph) == 0:
                raise IndexNotBuiltError("search on an empty HNSW index")
            prepared = scorer.prepare_queries(queries)
            if len(graph) < params.min_graph_size:
                answers[number] = index._answer(*index._scan(prepared, k, cost), k)
                continue
            depth = max(ef if ef is not None else params.ef_search, k)
            traversal, arm = scorer, "float"
            if index._quantized is not None:
                traversal = index._quantized.view(prepared)
                arm = index._quantized.kind
                depth = max(depth, params.rescore_k)
            # A beam as wide as the segment already holds every node it
            # reaches, so a wider one (a peer-chosen ef) adds only memory;
            # k columns stay, the width of the padded answer.
            depth = min(depth, max(len(graph), k))
            query_sq = scorer.query_sq_norms(prepared)
            piece = _Piece(index, prepared, query_sq, traversal, k, number)
            # Parts share a beam when they share its width and their
            # graphs and scorers stack (_SegmentGroup, StackedScorer).
            side = traversal.bound(prepared, query_sq)[0]
            key = (arm, depth, graph.width, index.metric_name, side.shape[1:])
            beams.setdefault(key, []).append(piece)
        for (arm, depth, *_), pieces in beams.items():
            rows, reduced = _search_graphs(pieces, arm, depth, cost)
            start = 0
            for piece in pieces:
                stop = start + piece.rows
                answers[piece.number] = piece.index._answer(
                    rows[start:stop], reduced[start:stop], piece.k
                )
                start = stop
        return answers

    def _scan(
        self, prepared: np.ndarray, k: int, cost=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The flat arm: every stored row scored exactly against each
        prepared query, ``(B, min(k, n))`` rows and reduced distances.

        Rows are scored one at a time on purpose: BLAS accumulation order
        inside a multi-row GEMM varies with the batch shape, and the
        serving stack's coalescing layers rely on every row's result
        being bit-independent of which other rows share the batch.
        :func:`~repro.hnsw.search.smallest_k` breaks distance ties by
        internal row -- the (distance, node) order of the sorted beam and
        of the blocked exact scan in
        :func:`repro.offline.brute_force.exact_top_k`.
        """
        scorer, count = self._scorer, len(self._graph)
        num_queries = prepared.shape[0]
        scores = np.empty((num_queries, count), dtype=np.float32)
        with maybe_span(
            current_recorder(), "scan", scorer="flat",
            rows=count, num_queries=num_queries,
        ):
            for row in range(num_queries):
                scores[row] = scorer.score_all_batch(prepared[row : row + 1])[0]
            rows = smallest_k(scores, k)
            reduced = np.take_along_axis(scores, rows, axis=1)
        if cost is not None:
            cost.distance_comps += num_queries * count
        return rows, reduced

    def _answer(
        self, rows: np.ndarray, reduced: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """External ids and true distances of a part's first ``k``
        candidates."""
        external = self._external_array
        if external is None:
            # One trailing -1, so that an unused slot (row -1) gathers
            # the padding id.
            external = self._external_array = np.append(self.external_ids, -1)
        # + 0.0: a zero distance is +0.0 whichever kernel found it.
        return (
            external[rows[:, :k]],
            self._scorer.to_true(reduced[:, :k].astype(np.float64) + 0.0),
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
        ids, dists = self.search_batch(query[np.newaxis, :], k, ef)
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

        The one-segment case of :func:`search_segments`.  Per-query
        results are identical to calling :meth:`search` in a loop; the
        batch amortises query preparation, entry-point descent setup and
        pools every round's distance evaluations into one vectorised
        call.  Rows are padded with id ``-1`` / distance ``inf`` when the
        index holds fewer than ``k`` points.  ``cost`` optionally
        accumulates this batch's search work (see
        :class:`~repro.obs.cost.SearchCost`); results are identical
        either way.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = as_matrix(queries, dim=self.dim, name="queries")
        return search_segments([(self, queries, k)], ef, cost)[0]

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
        try:
            params = HnswParams.from_dict(json.loads(str(member("params_json"))))
        except (ValueError, TypeError) as error:
            raise SerializationError(
                f"HNSW payload member 'params_json' is no parameter set ({error})"
            ) from error
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
        graph = HnswGraph.from_arrays(payload, n, params.M, 2 * params.M)
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


# -- lockstep groups --------------------------------------------------------------
#
# A lockstep group's rows are (query, segment) pairs: one segment's batch
# (HnswIndex.search_batch) or a whole shard request's probed segments
# (core.index.ShardIndex.search_batch).  Each segment descends its own
# rows from its own entry point; the level-0 beam and the exact rescore
# then run once over every row of the group.


class _Piece(NamedTuple):
    """One segment's rows of a lockstep group, prepared for its scorers."""

    index: HnswIndex
    prepared: np.ndarray
    query_sq: np.ndarray
    traversal: object  # the segment's PairScorer for the beam
    k: int
    number: int  # which part of the caller's list

    @property
    def rows(self) -> int:
        return self.prepared.shape[0]


class _SegmentGroup:
    """The graph of a lockstep group whose rows span several segments,
    ordered by segment (:class:`~repro.hnsw.search.LockstepGraph`).

    Every question arrives sorted by row, so each is split at the
    segment boundaries and put to that segment's own table.  Nothing is
    copied: node ids stay segment-local, and the visited scratch a
    kernel borrows is ``rows x`` the largest segment's capacity.  Its
    scorer is a :class:`~repro.distance.scorer.StackedScorer` of the
    segments' own.
    """

    def __init__(self, pieces: list[_Piece]) -> None:
        graphs = [piece.index._graph for piece in pieces]
        self.width = graphs[0].width
        self.capacity = max(graph.capacity for graph in graphs)
        self._nodes = max(len(graph) for graph in graphs)
        self._tables = [(graph.table, graph.base) for graph in graphs]
        self._counts = [piece.rows for piece in pieces]
        self._starts = np.cumsum(self._counts)[:-1]

    def __len__(self) -> int:
        """Node ids a row can name: below the largest segment's count."""
        return self._nodes

    def neighbor_rows(
        self, nodes: np.ndarray, level: int, rows: np.ndarray | None = None
    ) -> np.ndarray:
        out = np.empty((nodes.size, self.width), dtype=np.int32)
        first = 0
        stops = [*rows.searchsorted(self._starts).tolist(), rows.size]
        for (table, base), stop in zip(self._tables, stops):
            if first < stop:
                slots = base.take(nodes[first:stop])
                if level:
                    slots += level
                # mode="clip": with ``out``, the default "raise" buffers.
                table.take(slots, axis=0, out=out[first:stop], mode="clip")
            first = stop
        return out

    def row_tables(self, rows: int) -> list[tuple[np.ndarray, np.ndarray]]:
        return [
            table
            for table, count in zip(self._tables, self._counts)
            for _ in range(count)
        ]


def _beam(
    pool: VisitedPool,
    graph,
    traversal,
    arm: str,
    queries: np.ndarray,
    query_sq: np.ndarray | None,
    entries: np.ndarray,
    entry_dists: np.ndarray,
    ef: int,
    level: int,
    cost=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Beam search of one lockstep group at ``level`` from ``(rows,
    <= ef)`` seed beams: ``(rows, ef)`` ids / reduced distances sorted by
    ``(distance, node)``, ``-1`` / ``inf`` past a short beam (seeds come
    in the same form).  ``graph`` is a segment's
    :class:`~repro.hnsw.graph.HnswGraph` or a :class:`_SegmentGroup`;
    ``pool`` lends the visited scratch, ``rows x`` its capacity.

    The venue is chosen as in :meth:`HnswIndex._descend`; both kernels
    apply one beam rule (:mod:`repro.hnsw.search`) at step width
    ``_STEP_WIDTH`` -- a construction wave and a query group alike --
    so the choice moves time and never a result.
    ``cost`` gains the kernel's hops and candidates, and each candidate
    again as ``distance_comps``: one pair scored.  The ``beam`` span
    carries the same tags plus ``ef`` and ``num_queries``.
    """
    num_queries = queries.shape[0]
    arrays = num_queries >= _ARRAY_MIN_ROWS
    with maybe_span(
        current_recorder(), "beam",
        scorer=arm, kernel="array" if arrays else "heap",
        ef=ef, num_queries=num_queries,
    ) as span:
        if arrays:
            kernel = search_arrays
            visited = pool.get_epochs(graph.capacity, num_queries)
        else:
            kernel = search_layer_batch
            visited = pool.get_many(len(graph), num_queries)
        before = cost.candidates_visited if cost is not None else 0
        found = kernel(
            graph, traversal, queries, entries, entry_dists, ef, level,
            visited, query_sq, cost,
            span["annotations"] if span is not None else None, _STEP_WIDTH,
        )
    if cost is not None:
        cost.distance_comps += cost.candidates_visited - before
    return found


def _search_graphs(
    pieces: list[_Piece], arm: str, depth: int, cost=None
) -> tuple[np.ndarray, np.ndarray]:
    """Descend each piece's segment, then beam the whole group once at
    width ``depth`` and, off the float arm, rescore every survivor
    exactly: ``(rows, depth)`` internal rows and reduced distances,
    pieces in order, each sorted by ``(distance, node)``."""
    seeds = [
        piece.index._descend(
            piece.traversal, arm, piece.prepared, piece.query_sq,
            np.zeros(piece.rows, dtype=_IDS_DTYPE), cost,
        )
        for piece in pieces
    ]
    (first, *others) = pieces
    entries, entry_dists = seeds[0]

    def joined(scorers: list):
        """The group's scorer: a piece's own, or theirs stacked."""
        if not others:
            return scorers[0]
        return StackedScorer(
            scorers,
            [piece.prepared for piece in pieces],
            [piece.query_sq for piece in pieces],
        )

    graph, prepared, query_sq = first.index._graph, first.prepared, first.query_sq
    if others:
        graph = _SegmentGroup(pieces)
        prepared = np.concatenate([piece.prepared for piece in pieces])
        query_sq = np.concatenate([piece.query_sq for piece in pieces])
        entries = np.concatenate([found[0] for found in seeds])
        entry_dists = np.concatenate([found[1] for found in seeds])
    rows, reduced = _beam(
        first.index._visited_pool, graph,
        joined([piece.traversal for piece in pieces]), arm, prepared, query_sq,
        entries[:, np.newaxis], entry_dists[:, np.newaxis], depth, 0, cost,
    )
    if arm != "float":
        # Exact rescore: one flat float32 scoring call for every beam
        # survivor of the whole group, then the same (distance, node)
        # order the float arm's sorted beam has.
        found = rows >= 0
        flat_rows = rows[found]
        with maybe_span(current_recorder(), "rescore", scorer=arm, rows=flat_rows.size):
            exact = joined([piece.index._scorer for piece in pieces])
            reduced[found] = exact.score_pairs(
                prepared, np.nonzero(found)[0], flat_rows, query_sq
            )
            rows, reduced = sort_candidates(rows, reduced)
        if cost is not None:
            cost.rescore_rows += int(flat_rows.size)
            cost.distance_comps += int(flat_rows.size)
    return rows, reduced


def search_segments(
    parts: list[tuple[HnswIndex, np.ndarray, int]],
    ef: int | None = None,
    cost=None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Search each ``(segment, queries, k)`` part: per part ``(B, k)``
    int64 external ids and float64 true distances, ascending, padded
    with ``-1`` / ``inf`` where a segment holds fewer than ``k`` rows.

    A part's rows are (query, segment) pairs; they fill lockstep groups
    (:meth:`HnswIndex._search_many`) of at most ``_MAX_LOCKSTEP`` pairs in
    part order, so a shard request whose queries probe two segments
    shares every beam round between them.  Results are identical however
    the pairs are grouped.
    """
    groups: list[list[tuple[int, int, int]]] = [[]]
    room = _MAX_LOCKSTEP
    for number, (_, queries, _) in enumerate(parts):
        start, count = 0, queries.shape[0]
        while start < count:
            if room == 0:
                groups.append([])
                room = _MAX_LOCKSTEP
            stop = min(count, start + room)
            groups[-1].append((number, start, stop))
            room -= stop - start
            start = stop
    answers: list = [None] * len(parts)
    for group in groups:
        found = HnswIndex._search_many(
            [
                (parts[number][0], parts[number][1][start:stop], parts[number][2])
                for number, start, stop in group
            ],
            ef,
            cost,
        )
        for (number, start, stop), (ids, dists) in zip(group, found):
            shape = (parts[number][1].shape[0], parts[number][2])
            if ids.shape == shape:
                # A whole part at full width, every request of the
                # serving path: its arrays are the answer as they stand.
                answers[number] = ids, dists
                continue
            if answers[number] is None:
                answers[number] = (
                    np.full(shape, -1, dtype=_IDS_DTYPE),
                    np.full(shape, np.inf, dtype=np.float64),
                )
            width = ids.shape[1]  # < k on a segment smaller than k
            answers[number][0][start:stop, :width] = ids
            answers[number][1][start:stop, :width] = dists
    return [
        found
        if found is not None
        else (np.full((0, k), -1, dtype=_IDS_DTYPE), np.full((0, k), np.inf))
        for found, (_, _, k) in zip(answers, parts)
    ]


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
