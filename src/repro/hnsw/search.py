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

**The beam rule.**  Both beam kernels in this module -- the lockstep
heaps of :func:`search_layer_batch` and the array kernel
:func:`search_arrays` -- are the same function of their inputs, exact
distance ties included:

    *the beam is the* ``ef`` *smallest* ``(distance, node)`` *pairs seen;
    expand the smallest unexpanded member; stop when none is left.*

``(distance, node)`` is a total order, so the rule has one answer no
matter in which order a kernel meets the pairs.  Micro-batching makes
the kernel a query runs on depend on arrival timing, which is why "equal
up to ties" would not be enough.  In the heap loops the rule reads: a
newcomer enters a full beam iff ``d < worst or (d == worst and node <
worst_node)``; result heaps are keyed ``(-d, -node)`` so the root is the
largest pair; and a popped candidate that is larger than the root has
been evicted, as has everything still queued behind it.  (The loops
test ``d <= worst`` / ``d >= worst`` first, so the node comparison and
the root's node are only touched on an exact distance tie.)
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

    Satisfied by the float :class:`~repro.distance.scorer.Scorer` and by
    the per-batch compressed-code views
    :meth:`QuantizedStore.view <repro.distance.scorer.QuantizedStore.view>`
    returns; the kernels below ask nothing else of whoever scores, so a
    new scoring tier plugs in by implementing this one method with
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
    moving at each to a strictly closer neighbor until none is (a local
    minimum); the result is the per-query entry nodes (int64) and
    reduced entry distances (float32) to use at ``target_levels[i]``, an
    integer array.  The construction wave needs the per-query targets:
    each new row stops descending at its own drawn level, yet all rows
    of a wave share every round's scoring call (the query path passes
    all zeros).  The graph must be non-empty.

    ``cost`` is an optional :class:`~repro.obs.cost.SearchCost`: when
    given, each round adds the queries that moved to ``hops`` -- one
    bounded increment per round, so ``cost=None`` leaves the hot path
    untouched.  ``notes``, when given, receives ``rounds``: the lockstep
    scoring rounds run (a trace span's annotations, in practice).
    """
    num_queries = queries.shape[0]
    # A group of one row scores every pair against that row: no
    # ``query_rows`` operand is built (see :class:`PairScorer`).
    one_row = num_queries == 1
    target_levels = target_levels.tolist()
    rounds = 0
    entry = graph.entry_point
    entry_dists = scorer.score_pairs(
        queries,
        None if one_row else np.arange(num_queries),
        np.full(num_queries, entry, dtype=_IDS_DTYPE),
        query_sq,
    )
    current = [entry] * num_queries
    current_dist = entry_dists.tolist()
    table, degrees, base = graph.table, graph.degrees, graph.base
    for level in range(graph.max_level, min(target_levels, default=0), -1):
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
            if cost is not None:
                cost.hops += len(moved)
            active = moved
    if notes is not None:
        notes["rounds"] = rounds
    return (
        np.asarray(current, dtype=_IDS_DTYPE),
        np.asarray(current_dist, dtype=np.float32),
    )


def search_layer_batch(
    graph: HnswGraph,
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
        the queries that advanced to ``hops`` and the fresh neighbors
        scored to ``candidates_visited`` (two bounded increments per
        round; ``None`` leaves the hot path untouched).
    notes:
        When given, receives ``rounds``: the lockstep scoring rounds run.

    Returns
    -------
    ``(ids, dists)``: ``(B, ef)`` int64 / float32 beams sorted by
    ``(distance, node)`` and padded with ``-1`` / ``inf``.  The heaps and
    Python lists below never leave this function.
    """
    num_queries = queries.shape[0]
    one_row = num_queries == 1  # no ``query_rows`` operand: see PairScorer
    adjacency, base = graph.table, graph.base  # direct access: hot loop
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
        for i in active:
            cand = candidates[i]
            res = results[i]
            table = visited[i]
            tags, epoch = table.tags, table.epoch
            fresh: list[int] = []
            while cand:
                dist, node = heapq.heappop(cand)
                if (
                    dist >= -res[0][0]
                    and len(res) >= ef
                    and (dist > -res[0][0] or node > -res[0][1])
                ):
                    cand.clear()  # evicted, like all behind it: done
                    break
                # The row's padding is ``node`` itself: visited, so it
                # filters out with the visited neighbors.
                fresh = [
                    neighbor
                    for neighbor in adjacency[base[node] + level].tolist()
                    if tags[neighbor] != epoch
                ]
                if fresh:
                    for neighbor in fresh:
                        tags[neighbor] = epoch
                    break
            if fresh:
                span_rows.append(i)
                span_counts.append(len(fresh))
                flat_ids.extend(fresh)
        if not flat_ids:
            break
        rounds += 1
        if cost is not None:
            cost.hops += len(span_rows)
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
# round is 40 numpy calls over every live row, however many rows there
# are -- 5 find the frontier, 4 mark it and read its node, 3 gather the
# neighbor rows, 8 test the visited tags and gather the fresh pairs, 2
# charge the cost, 9 score (Euclidean, float or int8), 5 pack the keys
# and 4 merge them -- where the heap kernels above pay interpreter time
# per row and per neighbor.  That trade only wins for a group that is
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
# member.  Unused slots hold ``_PAD``: larger than any real key, flag
# bit set.

_PAD = np.iinfo(np.int64).max
#: The low 31 bits: a key's node field, or a float32's magnitude.
_LOW31 = np.int32((1 << 31) - 1)
_ZERO = np.float32(0.0)  # a Python 0.0 operand takes a slower path
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
    ``notes["rounds"]``, with each round's argmin taken over one padded
    ``(rows, width)`` array.
    """
    num_queries = queries.shape[0]
    width = graph.table.shape[1]
    rounds = hops = 0
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
        notes["rounds"] = rounds
    return current, current_dist


def search_arrays(
    graph: HnswGraph,
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
    what :func:`search_layer_batch` returns.  ``cost`` is charged exactly
    as the heap kernel charges it: a hop per expansion that found an
    unvisited neighbor, a candidate per neighbor scored.  ``notes``
    receives ``rounds``, here the expansions of the busiest query: unlike
    a heap row, which pops on within the round, an array row whose
    frontier had no unvisited neighbor sits the round out.
    """
    num_queries, seeds = entries.shape
    width = graph.table.shape[1]
    tags, epoch = visited.tags, np.uint8(visited.epoch)
    live = np.arange(num_queries)
    offsets = (live * visited.stride)[:, np.newaxis]
    seeded = entries >= 0
    tags[(offsets + entries)[seeded]] = epoch
    # Columns [:ef] are the beam, columns [ef:] the round's newcomers.
    merged = np.full((num_queries, ef + width), _PAD, dtype=np.int64)
    merged[:, :seeds] = np.where(seeded, _pack(entry_dists, entries), _PAD)
    merged.sort(axis=1)
    beams = np.empty((num_queries, ef), dtype=np.int64)
    # Flat state, allocated once per group and read by prefix as rows
    # retire: where row r starts in ``merged``, the (live, width) grid a
    # round's newcomers are laid out in, the buffer their keys are packed
    # into, and which query owns each cell of the grid.
    starts = live * (ef + width)
    grid = np.empty(num_queries * width, dtype=np.int64)
    keys = np.empty_like(grid)
    owners = live.repeat(width)
    flat = merged.reshape(-1)
    charged = cost is not None
    rounds = hops = candidates = 0
    while True:
        # The smallest unexpanded member is the first key with a clear
        # flag bit; a row without one answers position 0, whose flag is
        # set, and is finished.
        column = (merged[:, :ef] & 1).argmin(axis=1)
        position = column + starts[: live.size]
        frontier = flat.take(position)
        if np.bitwise_or.reduce(frontier) & 1:
            going = (frontier & 1) == 0
            beams[live[~going]] = merged[~going, :ef]
            live, offsets, merged = live[going], offsets[going], merged[going]
            if live.size == 0:
                break
            flat, owners = merged.reshape(-1), live.repeat(width)
            frontier = frontier[going]
            position = column[going] + starts[: live.size]
        rounds += 1
        flat[position] = frontier | 1
        neighbors = graph.neighbor_rows((frontier >> 1) & _LOW31, level)
        slots = offsets + neighbors
        # Flat positions, in the (live rows, width) grid, of the
        # neighbors this round is the first to see.
        fresh = (tags.take(slots) != epoch).reshape(-1).nonzero()[0]
        if fresh.size == 0:
            continue
        tags[slots.reshape(-1).take(fresh)] = epoch
        ids = neighbors.reshape(-1).take(fresh)
        pair_rows = owners.take(fresh)
        if charged:
            # ``fresh`` ascends, so a hop is a change of owner.
            hops += np.count_nonzero(pair_rows[1:] != pair_rows[:-1]) + 1
            candidates += fresh.size
        dists = scorer.score_pairs(queries, pair_rows, ids, query_sq)
        newcomers = grid[: live.size * width]
        newcomers.fill(_PAD)
        newcomers[fresh] = _pack(dists, ids, keys[: fresh.size])
        merged[:, ef:] = newcomers.reshape(-1, width)
        merged.sort(axis=1)
    if charged:
        cost.hops += int(hops)  # count_nonzero hands back a numpy integer
        cost.candidates_visited += candidates
    if notes is not None:
        notes["rounds"] = rounds
    return _unpack(beams)
