"""Layered adjacency storage for HNSW plus the visited-set machinery.

The graph is deliberately simple: for each node we keep one Python list of
neighbor ids per level the node participates in.  For construction and
for the *heap* search venue (a lockstep group too small to amortise
array overhead, down to a single query) Python lists beat numpy arrays:
neighbor lists are short (<= 2M entries), mutated on every insert, and
iterated one node at a time in the hot loop.  The *array* venue
(:func:`repro.hnsw.search.search_arrays`, large query groups) reads a
frozen padded copy instead (:class:`PaddedAdjacency`) and keeps its
visited sets in one array (:class:`VisitedEpochs`).
"""

from __future__ import annotations

import itertools
import threading
from typing import NamedTuple

import numpy as np


class HnswGraph:
    """The multi-layer proximity graph.

    Attributes
    ----------
    levels:
        ``levels[node]`` is the top level of ``node`` (0 = base layer only).
    entry_point:
        Node id used as the global entry point, or ``-1`` when empty.
    """

    __slots__ = ("_neighbors", "levels", "entry_point", "max_level")

    def __init__(self) -> None:
        # _neighbors[node][level] -> list[int]
        self._neighbors: list[list[list[int]]] = []
        self.levels: list[int] = []
        self.entry_point: int = -1
        self.max_level: int = -1

    def __len__(self) -> int:
        return len(self.levels)

    def add_node(self, level: int) -> int:
        """Create a node participating in layers ``0..level``; return its id."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        node = len(self.levels)
        self.levels.append(level)
        self._neighbors.append([[] for _ in range(level + 1)])
        return node

    def add_nodes(self, levels: list[int]) -> int:
        """Bulk :meth:`add_node`: create one node per level, in order.

        Returns the id of the first created node; ids are consecutive.
        Used by the batched insert path (a whole construction wave joins
        the graph before any of it is linked) and by the bulk loader.
        """
        if any(level < 0 for level in levels):
            raise ValueError("levels must be non-negative")
        first = len(self.levels)
        self.levels.extend(int(level) for level in levels)
        self._neighbors.extend(
            [[] for _ in range(level + 1)] for level in levels
        )
        return first

    def neighbors(self, node: int, level: int) -> list[int]:
        """The (mutable) neighbor list of ``node`` at ``level``."""
        return self._neighbors[node][level]

    def set_level_csr(
        self,
        level: int,
        nodes: list[int],
        indptr: list[int],
        indices: list[int],
    ) -> None:
        """Bulk-load one layer's adjacency from a CSR (indptr, indices) pair.

        ``indptr`` is indexed by node id (``len(self) + 1`` entries,
        absent nodes spanning empty ranges); ``nodes`` lists the nodes
        that participate at ``level``.  Both are flat Python lists so each
        neighbor list is one list slice -- no per-node array slicing or
        ``tolist()`` calls, which keeps bulk index loads O(edges) instead
        of O(nodes) numpy round-trips.
        """
        neighbors = self._neighbors
        for node in nodes:
            neighbors[node][level] = indices[indptr[node] : indptr[node + 1]]

    def set_neighbors(self, node: int, level: int, neighbor_ids: list[int]) -> None:
        """Replace the neighbor list of ``node`` at ``level``."""
        self._neighbors[node][level] = list(neighbor_ids)

    def add_link(self, node: int, level: int, neighbor: int) -> None:
        """Append a directed edge ``node -> neighbor`` at ``level``."""
        self._neighbors[node][level].append(neighbor)

    def degree(self, node: int, level: int) -> int:
        """Out-degree of ``node`` at ``level``."""
        return len(self._neighbors[node][level])

    def padded(self) -> "PaddedAdjacency":
        """A frozen array copy of every level's adjacency.

        The copy does not follow later mutations: whoever caches it drops
        it when the graph changes.
        """
        lists = list(itertools.chain.from_iterable(self._neighbors))
        counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        spans = np.asarray(self.levels, dtype=np.int64) + 1
        owners = np.repeat(np.arange(len(self), dtype=np.int32), spans)
        width = max(int(counts.max(initial=0)), 1)
        table = np.repeat(owners[:, np.newaxis], width, axis=1)
        table[np.arange(width) < counts[:, np.newaxis]] = np.fromiter(
            itertools.chain.from_iterable(lists),
            dtype=np.int32,
            count=int(counts.sum()),
        )
        return PaddedAdjacency(table, np.cumsum(spans) - spans)

    # -- invariants (used by tests and sanity checks) ------------------------------
    def check_invariants(self, max_m: int, max_m0: int) -> None:
        """Raise ``AssertionError`` if structural invariants are violated.

        Checks: degrees within bounds, neighbors exist at the same level,
        no self-loops, entry point is at ``max_level``.
        """
        n = len(self)
        if n == 0:
            assert self.entry_point == -1
            return
        assert 0 <= self.entry_point < n
        assert self.levels[self.entry_point] == self.max_level
        for node in range(n):
            for level in range(self.levels[node] + 1):
                nbrs = self._neighbors[node][level]
                bound = max_m0 if level == 0 else max_m
                assert len(nbrs) <= bound, (
                    f"node {node} level {level} degree {len(nbrs)} > {bound}"
                )
                assert node not in nbrs, f"self-loop at node {node}"
                assert len(set(nbrs)) == len(nbrs), (
                    f"duplicate neighbors at node {node} level {level}"
                )
                for nbr in nbrs:
                    assert 0 <= nbr < n
                    assert self.levels[nbr] >= level, (
                        f"node {node} links to {nbr} above its top level"
                    )


class PaddedAdjacency(NamedTuple):
    """Every neighbor list of a graph as rows of one ``int32`` table.

    Row ``base[node] + level`` holds the neighbors of ``node`` at
    ``level`` in list order, padded to the largest degree present with
    ``node`` itself -- a node never links to itself, and a search that
    expands a node has already visited it, so padding slots filter out
    like any visited neighbor.  Rows are node-major (one per level the
    node participates in), so the table costs one base-layer row per node
    plus the few upper-layer rows.
    """

    table: np.ndarray
    base: np.ndarray

    def neighbors(self, nodes: np.ndarray, level: int) -> np.ndarray:
        """The ``(len(nodes), width)`` neighbor rows of ``nodes`` at ``level``."""
        return self.table.take(self.base[nodes] + level, axis=0)


class VisitedTable:
    """The heap venue's visited marker, epoch-based: O(1) reset between
    searches.

    A plain ``set`` allocates per search; a boolean array needs an O(n)
    clear.  Tagging each slot with the epoch of its last visit makes reset a
    single integer increment.

    The tags live in a plain Python list (not numpy): the heap kernel's
    inner loop tests one node at a time, and CPython list indexing is an
    order of magnitude faster than numpy scalar indexing.
    :func:`~repro.hnsw.search.search_layer_batch` reads and writes
    ``tags`` / ``epoch`` directly for the same reason: slot ``node`` is
    visited iff ``tags[node] == epoch``.  The array kernel tests a whole
    round at once and keeps its tags in :class:`VisitedEpochs` instead.
    """

    __slots__ = ("tags", "epoch")

    def __init__(self, capacity: int = 1024) -> None:
        self.tags: list[int] = [0] * max(capacity, 1)
        self.epoch = 0

    def reset(self, capacity: int) -> None:
        """Start a new search over ``capacity`` nodes."""
        if capacity > len(self.tags):
            self.tags.extend([0] * (2 * capacity - len(self.tags)))
        self.epoch += 1


class VisitedEpochs:
    """The array venue's visited sets: one epoch byte per (row, node).

    The array kernel tests a whole round's neighbors with one gather, so
    its tags live in one flat ``uint8`` array -- row ``r`` of a lockstep
    group owns ``tags[r * stride : (r + 1) * stride]`` -- at ``rows x n``
    bytes per thread and segment, where the per-query
    :class:`VisitedTable` lists cost 8 bytes per slot per table.  Reset is
    an epoch increment; every 255th reset wraps the byte and pays one
    clear.
    """

    __slots__ = ("tags", "stride", "epoch")

    def __init__(self) -> None:
        self.tags = np.zeros(0, dtype=np.uint8)
        self.stride = 0
        self.epoch = 0

    def reset(self, capacity: int, rows: int) -> None:
        """Start a new group search: ``rows`` queries over ``capacity`` nodes."""
        if capacity > self.stride or rows * self.stride > self.tags.size:
            self.stride = max(capacity, self.stride)
            self.tags = np.zeros(rows * self.stride, dtype=np.uint8)
            self.epoch = 0
        elif self.epoch == np.iinfo(np.uint8).max:
            self.tags[:] = 0
            self.epoch = 0
        self.epoch += 1


class VisitedPool:
    """Thread-local pool of visited sets, one flavour per search venue.

    Offline query pipelines search one index from several threads; giving
    each thread its own tables avoids both locking and per-query allocation.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def __getstate__(self) -> dict:
        # Thread-local table caches are scratch space bound to threads of
        # the originating process; a pickled pool (an index crossing a
        # processes-mode cluster boundary) restarts empty.
        return {}

    def __setstate__(self, state: dict) -> None:
        self._local = threading.local()

    def get_many(self, capacity: int, count: int) -> list[VisitedTable]:
        """Borrow ``count`` reset tables for one lockstep batch search.

        The batch query path runs ``count`` searches concurrently in one
        thread, so each needs its own visited set; the tables are reused
        across batches on the same thread.
        """
        tables = getattr(self._local, "tables", None)
        if tables is None:
            tables = []
            self._local.tables = tables
        while len(tables) < count:
            tables.append(VisitedTable(capacity))
        borrowed = tables[:count]
        for table in borrowed:
            table.reset(capacity)
        return borrowed

    def get_epochs(self, capacity: int, rows: int) -> VisitedEpochs:
        """Borrow this thread's :class:`VisitedEpochs`, reset for one group."""
        epochs = getattr(self._local, "epochs", None)
        if epochs is None:
            epochs = self._local.epochs = VisitedEpochs()
        epochs.reset(capacity, rows)
        return epochs
