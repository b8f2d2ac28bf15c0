"""HNSW search primitives: greedy descent and beam search.

These free functions implement ``SEARCH-LAYER`` (Algorithm 2 of Malkov &
Yashunin) and the greedy single-entry descent used on the upper layers,
for a lockstep group of queries at a time; a single query or a single
inserted row is a group of one.  Both the build path and the query path
share them.

Distances are in the scorer's *reduced* space throughout (see
:mod:`repro.distance.scorer`).

**One candidate currency.**  Each job has a heap kernel and an array
kernel -- :func:`descend_to_levels_batch` / :func:`descend_arrays`,
:func:`search_layer_batch` / :func:`search_arrays` -- with one
signature (the visited scratch aside) and one result, bit for bit: a
set of candidates is ``(rows, width)`` int64 ids plus float32 reduced
distances, sorted by ``(distance, node)``, ``-1`` / ``inf`` in the
unused slots of a short row.  Seeds go in and beams come out in that
form, neighbor selection (:mod:`repro.hnsw.heuristic`) consumes and
returns it, and :func:`sort_candidates` restores its order; the heap
kernels' heaps and Python lists never leave them.

**The descent rule.**  Both descent kernels walk each row from the
entry point down to its target level, moving at each level to the first
closest neighbor (in link order) while it is strictly closer.  The heap
kernel, given one row, scores every node of the top levels that together
hold at most ``_DENSE_UPPER`` nodes in one call and walks them over its
distances; every other level, and every level of a larger group, takes a
pooled scoring round per step.  Both report the walk's own work -- hops,
rounds, the pairs it reads -- so a query's cost is one number on
either venue.

**The beam rule.**  Both beam kernels in this module -- the lockstep
heaps of :func:`search_layer_batch` and the array kernel
:func:`search_arrays` -- are the same function of their inputs, exact
distance ties included, at every step width ``expand`` (W):

    *the beam is the* ``ef`` *smallest* ``(distance, node)`` *pairs seen;
    a step expands the W smallest unexpanded members in that order -- a
    neighbor an earlier expansion of the step found is not new to a
    later one -- and merges all they found at once; stop when none is
    left.*

Every beam, construction wave and query alike, steps with
``hnsw.index._STEP_WIDTH`` (W = 1 is Algorithm 2 verbatim).
``(distance, node)`` is a total
order, so the rule has one answer no matter in which order a kernel
meets the pairs.  Micro-batching makes the kernel a query runs on
depend on arrival timing, which is why "equal up to ties" would not be
enough.  In the heap loops the rule reads: a newcomer enters a full beam
iff ``d < worst or (d == worst and node < worst_node)``; result heaps
are keyed ``(-d, -node)`` so the root is the largest pair; a popped
candidate that is larger than the root as the round began has been
evicted, as has everything still queued behind it, and every other pop
counts toward W, found it something or not.  A step that found nothing
leaves the beam as it was: a heap row takes its next step in the same
round, an array row in the next.  (The loops test ``d <= worst`` /
``d >= worst`` first, so the node comparison and the root's node are
only touched on an exact distance tie.)
"""

from __future__ import annotations

import heapq
import sys
from typing import Protocol

import numpy as np

from repro.hnsw.graph import HnswGraph, VisitedEpochs, VisitedTable

_IDS_DTYPE = np.int64


# -- lockstep batch kernels ----------------------------------------------------------
#
# B independent searches run "in lockstep": each round, every
# still-active query contributes the candidate ids it needs scored, the
# flat union is scored in ONE vectorised Scorer.score_pairs call, and the
# per-query heap logic then consumes its slice.  Each query's control
# flow (pop order, visited set, termination) is exactly the single-query
# algorithm -- only the distance evaluations are pooled -- and
# score_pairs is batch-composition-invariant, so a batch of one is
# bit-identical to any larger batch.


class PairScorer(Protocol):
    """The scorer seam of the lockstep kernels: one flat scoring call.

    Satisfied by the float :class:`~repro.distance.scorer.Scorer`, by
    the per-batch compressed-code views
    :meth:`QuantizedStore.view <repro.distance.scorer.QuantizedStore.view>`
    returns, and by a multi-segment group's
    :class:`~repro.distance.scorer.StackedScorer` of those; the kernels
    below ask nothing else of whoever scores, so a new scoring tier
    plugs in by implementing this one method (and, to join a stack,
    ``stored`` / ``bound`` / ``_pairs``) with
    :meth:`Scorer.score_pairs`'s batch-composition invariance, its
    float32 result (the array venue packs distances into 32 bits) and
    its one-row contract: when ``queries`` has exactly one row every
    pair belongs to it, so ``query_rows`` must not be read -- the heap
    kernels pass ``None`` for a group of one, the serving path, rather
    than build "row 0, ``n`` times" every hop.
    """

    def score_pairs(
        self,
        queries: np.ndarray,
        query_rows: np.ndarray | None,
        ids: np.ndarray,
        query_sq: np.ndarray | None = None,
    ) -> np.ndarray: ...


class LockstepGraph(Protocol):
    """The graph seam of the two beam kernels: whose links a row follows.

    :class:`~repro.hnsw.graph.HnswGraph` answers for every row of a group
    on one segment.  A group whose rows span several segments -- a shard
    request's (query, probed segment) pairs, ordered by segment -- answers
    by splitting each question at its segment boundaries, and scores
    through the :class:`PairScorer` seam the same way: every question
    arrives sorted by row.  Descent never asks: it walks one segment from
    that segment's entry point.
    """

    @property
    def width(self) -> int: ...

    def neighbor_rows(
        self, nodes: np.ndarray, level: int, rows: np.ndarray | None = None
    ) -> np.ndarray: ...

    def row_tables(self, rows: int) -> list[tuple[np.ndarray, np.ndarray]]: ...


#: A one-row heap descent scores the top levels that together hold at most
#: this many nodes in one call, then walks them over the returned
#: distances; lower levels, and every level of a group of 2 or more rows
#: (whose one call would score rows x nodes pairs -- the table measures
#: one row only), take a pooled round per step.  A round costs dispatch, a
#: call's pairs cost gathers: at d = 64 one call of 1024 pairs costs
#: about six rounds of 24.  The table below is a command --
#: ``benchmarks/bench_batch_throughput.py --check venues``, which also
#: asserts that every budget finds the same entry nodes and distances:
#: one row's heap descent by budget, ms per query (min of 21, one CPU)
#: over pairs scored per query (segments built M = 12 / 6 as in the
#: ``_ARRAY_MIN_ROWS`` table; "upper" is the nodes per level from 1 up):
#:
#:     budget:                              0      256    512    1024   all
#:     4000 x 64 int8    314/21/6         0.151  0.096  0.083  0.082  0.082
#:                                         45     48    341    341    341
#:     4000 x 64 float   314/21/6         0.160  0.100  0.082  0.082  0.081
#:     2400 x 32 int8    338/63/8/4       0.120  0.071  0.063  0.063  0.061
#:                                         39     87    413    413    413
#:     2400 x 32 float   338/63/8/4       0.126  0.077  0.077  0.076  0.077
#:     8000 x 64 float   634/43/9         0.117  0.079  0.076  0.101  0.101
#:                                         60     77     77    686    686
#:     32000 x 64 float  2477/209/22/2    0.148  0.094  0.091  0.089  0.337
#:                                         63    255    255    255   2710
#:
#: One call wins while the levels it covers are small: x1.5-2.0 over
#: rounds alone (budget 0) on every segment.  A level of 600 nodes or
#: more costs more scored whole than walked in rounds (8000 x 64 at
#: 1024, 32000 x 64 unbounded), so the budget stays under that size.
_DENSE_UPPER = 512


def descend_to_levels_batch(
    graph: HnswGraph,
    scorer: PairScorer,
    queries: np.ndarray,
    target_levels: np.ndarray,
    query_sq: np.ndarray | None = None,
    cost=None,
    notes: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched greedy descent with a *per-query* target level.

    Query ``i`` of the *prepared* ``(B, d)`` batch walks from the global
    entry point down through layers ``max_level .. target_levels[i] + 1``,
    moving at each to the first closest neighbor while it is strictly
    closer (a local minimum stops it); the result is the per-query entry
    nodes (int64) and reduced entry distances (float32) to use at
    ``target_levels[i]``, an integer array.  The construction wave needs
    the per-query targets: each new row stops descending at its own drawn
    level, yet all rows of a wave share every scoring call (the query
    path passes all zeros).  The graph must be non-empty.

    A group of one row scores every node of the top levels that
    together hold at most ``_DENSE_UPPER`` nodes
    (:meth:`HnswGraph.upper_prefix`) in one call and walks them over its
    distances; each level below them, and every level of a larger group,
    takes one pooled scoring round per step of the rows still moving.  A
    pair scores alike in any call, so where the budget falls moves no
    node and no distance bit.

    ``cost`` is an optional :class:`~repro.obs.cost.SearchCost`: when
    given, ``hops`` gains the moves the walk made -- one increment, so
    ``cost=None`` leaves the hot path untouched.  ``notes``, when given,
    receives the walk's own work, whatever the one call scored beyond
    it: ``rounds``, a lockstep round per step of the rows still walking
    a level (a trace span's annotations, in practice), and ``pairs``,
    the (query, node) pairs the walk reads, entry points included --
    what :func:`descend_arrays` reports for the same walk.
    """
    num_queries = queries.shape[0]
    # A group of one row scores every pair against that row: no
    # ``query_rows`` operand is built (see :class:`PairScorer`).
    one_row = num_queries == 1
    target_levels = target_levels.tolist()
    lowest = min(target_levels, default=0)
    rounds, pairs, hops = 0, num_queries, 0
    entry, top = graph.entry_point, graph.max_level
    table, degrees, base = graph.table, graph.degrees, graph.base
    current = [entry] * num_queries
    floor = top + 1  # levels floor .. top are walked over one call's scores
    if one_row:
        nodes, position, counts = graph.upper_prefix(_DENSE_UPPER)
        floor = max(min(counts, default=floor), lowest + 1)
    if floor <= top:
        scored = scorer.score_pairs(
            queries, None, nodes[: counts[floor]], query_sq
        )
        if np.isnan(scored).any():
            floor = top + 1  # min() is not argmin on NaN: take the rounds
        scored = scored.tolist()
        node, dist = entry, scored[position[entry]]
        for level in range(top, floor - 1, -1):
            while True:
                slot = base[node] + level
                count = int(degrees[slot])
                if not count:
                    break  # local minimum: settled at this level
                rounds += 1
                pairs += count
                links = table[slot, :count].tolist()
                found = [scored[position[link]] for link in links]
                best = min(found)  # the first of equal minima, as argmin
                if not best < dist:
                    break
                node, dist = links[found.index(best)], best
                hops += 1
        current[0] = node
        current_dist = [dist]
    else:
        current_dist = scorer.score_pairs(
            queries,
            None if one_row else np.arange(num_queries),
            np.full(num_queries, entry, dtype=_IDS_DTYPE),
            query_sq,
        ).tolist()
    for level in range(floor - 1, lowest, -1):
        active = [i for i in range(num_queries) if target_levels[i] < level]
        while active:
            flat_ids: list[int] = []
            span_rows: list[int] = []
            span_counts: list[int] = []
            for i in active:
                slot = base[current[i]] + level
                count = int(degrees[slot])
                if not count:
                    continue  # local minimum: settled at this level
                span_rows.append(i)
                span_counts.append(count)
                flat_ids.extend(table[slot, :count].tolist())
            if not flat_ids:
                break
            rounds += 1
            pairs += len(flat_ids)
            dists = scorer.score_pairs(
                queries,
                None if one_row else np.asarray(span_rows).repeat(span_counts),
                np.asarray(flat_ids, dtype=_IDS_DTYPE),
                query_sq,
            )
            moved: list[int] = []
            offset = 0
            for i, count in zip(span_rows, span_counts):
                segment = dists[offset : offset + count]
                best = int(segment.argmin())
                best_dist = float(segment[best])
                if best_dist < current_dist[i]:
                    current[i] = flat_ids[offset + best]
                    current_dist[i] = best_dist
                    moved.append(i)
                offset += count
            hops += len(moved)
            active = moved
    if cost is not None:
        cost.hops += hops
    if notes is not None:
        notes["rounds"], notes["pairs"] = rounds, pairs
    return (
        np.asarray(current, dtype=_IDS_DTYPE),
        np.asarray(current_dist, dtype=np.float32),
    )


def _check_expand(expand: int) -> None:
    if not 0 < expand < 256:
        raise ValueError(f"a step expands 1 to 255 members, got {expand}")


def search_layer_batch(
    graph: LockstepGraph,
    scorer: PairScorer,
    queries: np.ndarray,
    entries: np.ndarray,
    entry_dists: np.ndarray,
    ef: int,
    level: int,
    visited: list[VisitedTable],
    query_sq: np.ndarray | None = None,
    cost=None,
    notes: dict | None = None,
    expand: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Beam search at one layer (``SEARCH-LAYER``, Algorithm 2), one per
    query, in lockstep.

    Parameters
    ----------
    queries:
        Prepared ``(B, d)`` query batch.
    entries, entry_dists:
        ``(B, s)`` seed nodes (int64) and their reduced distances
        (float32) in the form beams are returned: distinct nodes per
        row, ``-1`` marking an unused slot.  All are marked visited.
    ef:
        Beam width: the size of each query's dynamic result list.
    visited:
        One reset :class:`VisitedTable` per query.
    cost:
        Optional :class:`~repro.obs.cost.SearchCost`: each round adds
        the expansions that found an unvisited neighbor to ``hops`` and
        the fresh neighbors scored to ``candidates_visited`` (two
        bounded increments per round; ``None`` leaves the hot path
        untouched).
    notes:
        When given, receives ``rounds``: the scoring rounds run, each
        one step of every query still searching (after any steps of it
        that found nothing).
    expand:
        The step width W of the beam rule (see the module docstring).

    Returns
    -------
    ``(ids, dists)``: ``(B, ef)`` int64 / float32 beams sorted by
    ``(distance, node)`` and padded with ``-1`` / ``inf``.  The heaps and
    Python lists below never leave this function.
    """
    _check_expand(expand)
    num_queries = queries.shape[0]
    one_row = num_queries == 1  # no ``query_rows`` operand: see PairScorer
    tables = graph.row_tables(num_queries)  # direct access: hot loop
    # Per query -- candidates: min-heap of unexpanded pairs; results: the
    # beam, a max-heap keyed (-dist, -node) whose root is its largest pair.
    candidates: list[list[tuple[float, int]]] = []
    results: list[list[tuple[float, int]]] = []
    for i in range(num_queries):
        table = visited[i]
        tags, epoch = table.tags, table.epoch
        cand: list[tuple[float, int]] = []
        res: list[tuple[float, int]] = []
        for dist, node in zip(entry_dists[i].tolist(), entries[i].tolist()):
            if node < 0:
                continue
            tags[node] = epoch
            cand.append((dist, node))
            res.append((-dist, -node))
        heapq.heapify(cand)
        heapq.heapify(res)
        candidates.append(cand)
        results.append(res)

    rounds = 0
    active = [i for i in range(num_queries) if candidates[i]]
    while active:
        # Phase 1: advance each query to its next scoring point (or done).
        flat_ids: list[int] = []
        span_rows: list[int] = []
        span_counts: list[int] = []
        hops = 0
        for i in active:
            cand = candidates[i]
            res = results[i]
            table = visited[i]
            tags, epoch = table.tags, table.epoch
            adjacency, base = tables[i]
            fresh: list[int] = []
            # Nothing merges before phase 3: the beam is as the round began.
            worst, worst_node = -res[0][0], -res[0][1]
            full = len(res) >= ef
            # A step that scored nothing leaves the beam as it was, so
            # the row's next step follows in the same round.
            while cand and not fresh:
                for _ in range(expand):
                    dist, node = heapq.heappop(cand)
                    if (
                        dist >= worst
                        and full
                        and (dist > worst or node > worst_node)
                    ):
                        cand.clear()  # evicted, like all behind it: done
                        break
                    # The row's padding is ``node`` itself: visited, so
                    # it filters out with the visited neighbors.
                    found = [
                        neighbor
                        for neighbor in adjacency[base[node] + level].tolist()
                        if tags[neighbor] != epoch
                    ]
                    if found:
                        hops += 1
                        for neighbor in found:
                            tags[neighbor] = epoch
                        fresh += found
                    if not cand:
                        break
            if fresh:
                span_rows.append(i)
                span_counts.append(len(fresh))
                flat_ids.extend(fresh)
        if not flat_ids:
            break
        rounds += 1
        if cost is not None:
            cost.hops += hops
            cost.candidates_visited += len(flat_ids)

        # Phase 2: one vectorised scoring call for the whole round.
        dists = scorer.score_pairs(
            queries,
            None if one_row else np.asarray(span_rows).repeat(span_counts),
            np.asarray(flat_ids, dtype=_IDS_DTYPE),
            query_sq,
        )
        flat_dists = dists.tolist()

        # Phase 3: per-query heap updates.
        still_active: list[int] = []
        offset = 0
        for i, count in zip(span_rows, span_counts):
            cand = candidates[i]
            res = results[i]
            worst = -res[0][0]
            full = len(res) >= ef
            for position in range(offset, offset + count):
                neighbor_dist = flat_dists[position]
                neighbor = flat_ids[position]
                if not full:
                    heapq.heappush(res, (-neighbor_dist, -neighbor))
                    heapq.heappush(cand, (neighbor_dist, neighbor))
                    full = len(res) >= ef
                    worst = -res[0][0]
                elif neighbor_dist <= worst and (
                    neighbor_dist < worst or neighbor < -res[0][1]
                ):
                    heapq.heapreplace(res, (-neighbor_dist, -neighbor))
                    heapq.heappush(cand, (neighbor_dist, neighbor))
                    worst = -res[0][0]
            offset += count
            if cand:
                still_active.append(i)
        active = still_active
    if notes is not None:
        notes["rounds"] = rounds
    ids = np.full((num_queries, ef), -1, dtype=_IDS_DTYPE)
    dists = np.full((num_queries, ef), np.inf, dtype=np.float32)
    for i, res in enumerate(results):
        beam = sorted((-neg_dist, -neg_node) for neg_dist, neg_node in res)
        if beam:
            dists[i, : len(beam)], ids[i, : len(beam)] = zip(*beam)
    return ids, dists


# -- array venue ----------------------------------------------------------------------
#
# The same lockstep searches with the per-query state held in arrays: a
# round is 59 numpy calls over every live row at the step width every
# beam runs at (W = 4), however many rows there are.  At W = 1 it is 40
# -- 5 find the frontier, 4 mark it and read its node, 3 gather the
# neighbor rows, 8 test the visited tags and gather the fresh pairs, 2
# charge the cost, 9 score (Euclidean, float or int8), 5 pack the keys
# and 4 merge them -- and a wider step adds 4 calls per further pick
# and 7 that keep a row's expansions from scoring one neighbor twice;
# the heap kernels above pay interpreter time per row and per neighbor
# instead.  That trade only wins for a group that is
# wide enough: HnswIndex picks the venue from the group it was handed,
# a query group and a construction wave alike.  What a round costs is
# dispatch and copies, not FLOPs, so every gather is a flat ``take``
# (neighbor rows straight from the graph's table) into state the group
# allocates once, and nothing is gathered twice.
#
# A beam row is ``ef`` sorted int64 keys.  One key is one member,
#
#     [ distance: 32 bits, order-preserving ][ node: 31 bits ][ expanded: 1 ]
#
# so integer order *is* the ``(distance, node)`` order of the beam rule
# (nodes are unique within a row, so the flag bit never decides), one
# in-place ``sort`` per round merges a round's newcomers into every row,
# and the first key with a clear low bit is the smallest unexpanded
# member -- the W first are a step.  Unused slots hold ``_PAD``: larger
# than any real key, flag bit set.

_PAD = np.iinfo(np.int64).max
#: The low 31 bits: a key's node field, or a float32's magnitude.
_LOW31 = np.int32((1 << 31) - 1)
_ZERO = np.float32(0.0)  # a Python 0.0 operand takes a slower path
#: A visited tag above every expansion's claim (a step expands < 255).
_UNCLAIMED = np.uint8(255)
#: Which 32-bit word of an int64 key is its ``node, expanded`` half.
_NODE_WORD = 0 if sys.byteorder == "little" else 1


def _ordered_bits(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map float32 bit patterns to int32 with the same order, and back.

    Non-negative floats already order like their bits; negative ones
    order in reverse, which flipping their low 31 bits undoes.  The map
    is its own inverse.
    """
    flip = values >> 31
    flip &= _LOW31
    return np.bitwise_xor(values, flip, out=flip if out is None else out)


def _pack(
    dists: np.ndarray, ids: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Unexpanded beam keys for float32 ``dists`` and integer ``ids``,
    written word by word into ``out`` (int64, their shape) when given."""
    if dists.dtype != np.float32:
        raise TypeError(
            f"the array venue packs float32 distances, got {dists.dtype}"
        )
    if out is None:
        out = np.empty(dists.shape, dtype=np.int64)
    words = out.view(np.int32)
    # + 0.0 turns -0.0 into +0.0: equal distances must share one pattern.
    bits = (dists + _ZERO).view(np.int32)
    _ordered_bits(bits, words[..., 1 - _NODE_WORD :: 2])
    # node << 1 as a sum: from node 2**30 up it wraps to the word's bits.
    np.add(ids, ids, out=words[..., _NODE_WORD::2], casting="unsafe")
    return out


def _unpack(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, dists)`` of a key array; ``_PAD`` slots become ``-1`` / ``inf``."""
    real = keys != _PAD
    ids = np.where(real, (keys >> 1) & _LOW31, -1)
    dists = _ordered_bits((keys >> 32).astype(np.int32)).view(np.float32)
    return ids, np.where(real, dists, np.float32(np.inf))


def sort_candidates(
    ids: np.ndarray, dists: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort each row of ``(rows, width)`` candidates by ``(distance, node)``.

    ``ids`` is int64 with ``-1`` marking unused slots, which come back
    last as ``-1`` / ``inf``; ``dists`` is float32.
    """
    keys = np.where(ids >= 0, _pack(dists, ids), _PAD)
    keys.sort(axis=1, kind="stable")
    return _unpack(keys)


def descend_arrays(
    graph: HnswGraph,
    scorer: PairScorer,
    queries: np.ndarray,
    target_levels: np.ndarray,
    query_sq: np.ndarray | None = None,
    cost=None,
    notes: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`descend_to_levels_batch` with the per-query state in arrays.

    ``target_levels`` is an integer array, one level per query.  Returns
    the per-query entry nodes (int64) and their reduced entry distances
    (float32): the same walk, and the same ``cost.hops`` and
    ``notes["rounds"]`` / ``notes["pairs"]``, with each round's argmin
    taken over one padded ``(rows, width)`` array.
    """
    num_queries = queries.shape[0]
    width = graph.width
    rounds = hops = 0
    pairs = num_queries
    current = np.full(num_queries, graph.entry_point, dtype=_IDS_DTYPE)
    current_dist = scorer.score_pairs(
        queries, np.arange(num_queries), current, query_sq
    )
    # Row starts of the flat (rows, width) grid, and its unscored state.
    starts = np.arange(0, num_queries * width, width)
    unlinked = np.full(num_queries * width, np.inf, dtype=np.float32)
    lowest = int(target_levels.min(initial=graph.max_level))
    for level in range(graph.max_level, lowest, -1):
        active = np.flatnonzero(target_levels < level)
        while active.size:
            nodes = current.take(active)
            neighbors = graph.neighbor_rows(nodes, level)
            # Flat grid positions of the real links: padding is the owner.
            linked = (neighbors != nodes[:, np.newaxis]).reshape(-1).nonzero()[0]
            if linked.size == 0:
                break
            rounds += 1
            pairs += linked.size
            neighbors = neighbors.reshape(-1)
            dists = unlinked[: neighbors.size].copy()
            dists[linked] = scorer.score_pairs(
                queries,
                active.repeat(width).take(linked),
                neighbors.take(linked),
                query_sq,
            )
            # argmin takes the first of equal minima: list order, as the
            # heap venue's per-row argmin does.
            best = dists.reshape(-1, width).argmin(axis=1)
            best += starts[: active.size]
            best_dist = dists.take(best)
            moved = best_dist < current_dist.take(active)
            active = active[moved]
            current[active] = neighbors.take(best[moved])
            current_dist[active] = best_dist[moved]
            hops += active.size
    if cost is not None:
        cost.hops += hops
    if notes is not None:
        notes["rounds"], notes["pairs"] = rounds, pairs
    return current, current_dist


def search_arrays(
    graph: LockstepGraph,
    scorer: PairScorer,
    queries: np.ndarray,
    entries: np.ndarray,
    entry_dists: np.ndarray,
    ef: int,
    level: int,
    visited: VisitedEpochs,
    query_sq: np.ndarray | None = None,
    cost=None,
    notes: dict | None = None,
    expand: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`search_layer_batch` with the per-query state in arrays.

    Parameters
    ----------
    entries, entry_dists:
        ``(B, s)`` seed nodes (int64) and their reduced distances
        (float32), ``s <= ef``, in the form this function returns beams:
        distinct nodes per row, ``-1`` marking an unused slot.  One
        column of :func:`descend_arrays` output seeds a query; a
        construction wave seeds each layer with the beams of the one
        above.
    visited:
        A reset :class:`VisitedEpochs` with at least one row per query.

    Returns
    -------
    ``(ids, dists)``: ``(B, ef)`` int64 / float32 beams sorted by
    ``(distance, node)`` and padded with ``-1`` / ``inf`` -- per query
    what :func:`search_layer_batch` returns, at the same step width
    ``expand``.  ``cost`` is charged exactly as the heap kernel charges
    it: a hop per expansion that found an unvisited neighbor, a
    candidate per neighbor scored.  ``notes`` receives ``rounds``, here
    the steps of the busiest query: unlike a heap row, which steps on
    within the round, an array row whose step found nothing sits the
    round out.
    """
    _check_expand(expand)
    num_queries, seeds = entries.shape
    width = graph.width
    span = expand * width  # a row's neighbor cells per round
    tags, epoch = visited.tags, np.uint8(visited.epoch)
    live = np.arange(num_queries)
    offsets = (live * visited.stride)[:, np.newaxis]
    seeded = entries >= 0
    tags[(offsets + entries)[seeded]] = epoch
    # Columns [:ef] are the beam, columns [ef:] the round's newcomers.
    merged = np.full((num_queries, ef + span), _PAD, dtype=np.int64)
    merged[:, :seeds] = np.where(seeded, _pack(entry_dists, entries), _PAD)
    merged.sort(axis=1)
    beams = np.empty((num_queries, ef), dtype=np.int64)
    # Flat state, allocated once per group and read by prefix as rows
    # retire: where row r starts in ``merged`` and in a (live, ef) copy,
    # the round's picks, the (live, span) grid a round's newcomers are
    # laid out in, the buffer their keys are packed into, which query
    # owns each cell of the grid, which row each expansion is for, and
    # which of its row's expansions each cell belongs to.
    starts = live * (ef + span)
    if expand > 1:
        starts = starts[:, np.newaxis]
    tops = live * ef
    picks = np.empty((num_queries, expand), dtype=np.int64)
    grid = np.empty(num_queries * span, dtype=np.int64)
    keys = np.empty_like(grid)
    owners = live.repeat(span)
    expanding = live.repeat(expand)
    claims = np.empty((num_queries, expand, width), dtype=np.uint8)
    claims[...] = np.arange(expand, dtype=np.uint8)[:, np.newaxis]
    claims = claims.reshape(-1)
    flat = merged.reshape(-1)
    charged = cost is not None
    rounds = hops = candidates = 0
    while True:
        # The smallest unexpanded member is the first key with a clear
        # flag bit; a row without one answers position 0, whose flag is
        # set, and is finished.  Each further pick flags the one before
        # in a copy; a row short of unexpanded members answers position
        # 0 again -- a member expanded already, whose neighbors are
        # claimed.
        flags = merged[:, :ef] & 1
        column = flags.argmin(axis=1)
        if expand > 1:
            marks, at = flags.reshape(-1), tops[: live.size]
            column, picks[: live.size, 0] = picks[: live.size], column
            for step in range(1, expand):
                marks[column[:, step - 1] + at] = 1
                column[:, step] = flags.argmin(axis=1)
        position = column + starts[: live.size]
        frontier = flat.take(position)
        first = frontier if expand == 1 else frontier[:, 0]
        if np.bitwise_or.reduce(first) & 1:
            going = (first & 1) == 0
            beams[live[~going]] = merged[~going, :ef]
            live, offsets, merged = live[going], offsets[going], merged[going]
            if live.size == 0:
                break
            flat, owners = merged.reshape(-1), live.repeat(span)
            expanding = live.repeat(expand)
            frontier = frontier[going]
            position = column[going] + starts[: live.size]
        rounds += 1
        flat[position] = frontier | 1
        neighbors = graph.neighbor_rows(
            ((frontier >> 1) & _LOW31).reshape(-1), level, expanding
        )
        slots = offsets + neighbors.reshape(live.size, span)
        # Flat positions, in the (live rows, span) grid, of the
        # neighbors no earlier round has seen.
        fresh = (tags.take(slots) != epoch).reshape(-1).nonzero()[0]
        if fresh.size == 0:
            continue
        marked = slots.reshape(-1).take(fresh)
        if expand > 1:
            # Expansions run in order: a neighbor an earlier expansion of
            # the row found is not fresh to a later one.  Each cell
            # claims its slot with its expansion's number, the smallest
            # claim stands, and only the cells holding it stay fresh.
            claim = claims.take(fresh)
            tags[marked] = _UNCLAIMED
            np.minimum.at(tags, marked, claim)
            fresh = fresh[tags.take(marked) == claim]
        tags[marked] = epoch
        ids = neighbors.reshape(-1).take(fresh)
        pair_rows = owners.take(fresh)
        if charged:
            # ``fresh`` ascends, so a hop is a change of expansion.
            steps = fresh // width
            hops += np.count_nonzero(steps[1:] != steps[:-1]) + 1
            candidates += fresh.size
        dists = scorer.score_pairs(queries, pair_rows, ids, query_sq)
        newcomers = grid[: live.size * span]
        newcomers.fill(_PAD)
        newcomers[fresh] = _pack(dists, ids, keys[: fresh.size])
        merged[:, ef:] = newcomers.reshape(-1, span)
        merged.sort(axis=1)
    if charged:
        cost.hops += int(hops)  # count_nonzero hands back a numpy integer
        cost.candidates_visited += candidates
    if notes is not None:
        notes["rounds"] = rounds
    return _unpack(beams)
