"""Layered adjacency storage for HNSW plus the visited-set machinery.

HNSW bounds every out-degree by construction (``max_m`` above the base
layer, ``max_m0`` on it), so the graph is stored as what it is: one
growable ``int32`` table with a row per (node, level) *slot*, as wide as
the larger bound.  Row ``base[node] + level`` holds the neighbors of
``node`` at ``level`` in link order, then ``node`` itself as padding --
a node never links to itself, and a search that expands a node has
already visited it, so padding filters out like any visited neighbor.
Rows are node-major (one per level the node participates in): one
base-layer row per node plus the few upper-layer rows.

Both search venues, the construction wave and persistence read and
write this one table in place.  The *array* venue
(:func:`repro.hnsw.search.search_arrays`) gathers whole rounds of rows
from it and keeps its visited sets in one array
(:class:`VisitedEpochs`); the *heap* venue
(:func:`repro.hnsw.search.search_layer_batch`, lockstep groups too
small to amortise array overhead, down to a single query) reads one row
per expansion and keeps per-query :class:`VisitedTable` lists.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import SerializationError


class HnswGraph:
    """The multi-layer proximity graph.

    Parameters
    ----------
    width:
        Columns of the adjacency table: the largest out-degree any slot
        may hold.

    Attributes
    ----------
    table:
        The ``(capacity, width)`` ``int32`` adjacency; rows past the
        slots in use are unwritten.
    degrees:
        Out-degree per slot: row ``s`` links to ``table[s, :degrees[s]]``.
    base:
        ``base[node]`` is the slot of ``node`` at level 0; its level
        ``l`` row is ``base[node] + l``.
    levels:
        ``levels[node]`` is the top level of ``node`` (0 = base layer only).
    entry_point:
        Node id used as the global entry point, or ``-1`` when empty.
    """

    __slots__ = (
        "table", "degrees", "base", "levels", "entry_point", "max_level",
        "_slots",
    )

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        self.table = np.empty((0, width), dtype=np.int32)
        self.degrees = np.empty(0, dtype=np.int32)
        self.base = np.empty(0, dtype=np.int64)
        self.levels: list[int] = []
        self.entry_point: int = -1
        self.max_level: int = -1
        self._slots = 0  # table rows in use

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def capacity(self) -> int:
        """Slots allocated; it changes only when the table doubles, and no
        node id reaches it (every node owns at least one slot)."""
        return self.table.shape[0]

    def add_node(self, level: int) -> int:
        """Create a node participating in layers ``0..level``; return its id."""
        return self.add_nodes([level])

    def add_nodes(self, levels: list[int] | np.ndarray) -> int:
        """Create one unlinked node per level, in order.

        Returns the id of the first created node; ids are consecutive.
        A whole construction wave joins the graph before any of it is
        linked; the loader adds every node at once.
        """
        spans = np.asarray(levels, dtype=np.int64) + 1
        if (spans < 1).any():
            raise ValueError("levels must be non-negative")
        first, start = len(self.levels), self._slots
        stop = start + int(spans.sum())
        if stop > self.capacity:
            # Geometric growth: O(1) amortised copies per slot, and the
            # capacity-derived sizes downstream (VisitedEpochs) move
            # only when this doubles.
            capacity = max(stop, 2 * self.capacity)
            table = np.empty((capacity, self.table.shape[1]), dtype=np.int32)
            table[:start] = self.table[:start]
            degrees = np.empty(capacity, dtype=np.int32)
            degrees[:start] = self.degrees[:start]
            base = np.empty(capacity, dtype=np.int64)
            base[:first] = self.base[:first]
            self.table, self.degrees, self.base = table, degrees, base
        nodes = np.arange(first, first + spans.size)
        self.base[first : first + spans.size] = start + np.cumsum(spans) - spans
        self.table[start:stop] = np.repeat(nodes, spans)[:, np.newaxis]
        self.degrees[start:stop] = 0
        self.levels.extend((spans - 1).tolist())
        self._slots = stop
        return first

    def _slot(self, node: int, level: int) -> int:
        """The table row of ``node`` at ``level``."""
        if not 0 <= level <= self.levels[node]:
            raise IndexError(f"node {node} has no level {level}")
        return int(self.base[node]) + level

    def neighbors(self, node: int, level: int) -> list[int]:
        """A copy of the neighbor list of ``node`` at ``level``."""
        slot = self._slot(node, level)
        return self.table[slot, : self.degrees[slot]].tolist()

    def degree(self, node: int, level: int) -> int:
        """Out-degree of ``node`` at ``level``."""
        return int(self.degrees[self._slot(node, level)])

    def neighbor_rows(self, nodes: np.ndarray, level: int) -> np.ndarray:
        """The padded ``(len(nodes), width)`` neighbor rows of ``nodes`` at
        ``level`` (every node must participate there)."""
        return self.table.take(self.base[nodes] + level, axis=0)

    def set_neighbors(self, node: int, level: int, neighbor_ids: list[int]) -> None:
        """Replace the neighbor list of ``node`` at ``level``."""
        slot = self._slot(node, level)
        count = len(neighbor_ids)
        if count > self.table.shape[1]:
            raise ValueError(
                f"{count} neighbors do not fit a row of {self.table.shape[1]}"
            )
        self.table[slot, :count] = neighbor_ids
        self.table[slot, count:] = node
        self.degrees[slot] = count

    def add_link(self, node: int, level: int, neighbor: int) -> None:
        """Append a directed edge ``node -> neighbor`` at ``level``."""
        slot = self._slot(node, level)
        count = int(self.degrees[slot])
        if count >= self.table.shape[1]:
            raise ValueError(f"node {node} level {level} is full")
        self.table[slot, count] = neighbor
        self.degrees[slot] = count + 1

    def set_neighbor_lists(
        self,
        nodes: np.ndarray,
        levels: np.ndarray,
        neighbor_ids: np.ndarray,
    ) -> None:
        """Bulk :meth:`set_neighbors`: row ``p`` of ``neighbor_ids`` -- a
        list, then ``-1`` to the end, in the form the beam kernels and
        neighbor selection return -- replaces the neighbors of
        ``nodes[p]`` at ``levels[p]`` (distinct slots, rows within the
        table width)."""
        slots = self.base[nodes] + levels
        linked = neighbor_ids >= 0
        rows = np.repeat(
            nodes.astype(np.int32)[:, np.newaxis], self.table.shape[1], axis=1
        )
        rows[:, : neighbor_ids.shape[1]] = np.where(
            linked, neighbor_ids, nodes[:, np.newaxis]
        )
        self.table[slots] = rows
        self.degrees[slots] = np.count_nonzero(linked, axis=1)

    def add_links(
        self,
        nodes: np.ndarray,
        levels: np.ndarray,
        neighbors: np.ndarray,
        bounds: np.ndarray,
    ) -> np.ndarray:
        """Bulk :meth:`add_link`, bounded: append edge ``nodes[e] ->
        neighbors[e]`` at ``levels[e]``, in order, while the row holds
        fewer than ``bounds[e]`` links.

        Returns the mask of edges that did not fit -- their rows are
        full to the bound and the caller re-selects them -- so a row
        never overflows.
        """
        slots = self.base[nodes] + levels
        if slots.size == 0:
            return np.zeros(0, dtype=bool)
        order = np.argsort(slots, kind="stable")
        ordered = slots[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        sizes = np.diff(np.r_[starts, ordered.size])
        rank = np.arange(ordered.size) - np.repeat(starts, sizes)
        columns = self.degrees[ordered] + rank
        fits = columns < bounds[order]
        self.table[ordered[fits], columns[fits]] = neighbors[order[fits]]
        self.degrees[ordered[starts]] += np.add.reduceat(
            fits.astype(np.int32), starts
        )
        refused = np.zeros(slots.size, dtype=bool)
        refused[order[~fits]] = True
        return refused

    # -- one level as CSR (the persisted layout) ----------------------------------
    def level_csr(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of one layer over all nodes, ``int64``;
        nodes below ``level`` span empty ranges."""
        n = len(self)
        nodes = np.flatnonzero(np.asarray(self.levels) >= level)
        slots = self.base[nodes] + level
        counts = self.degrees[slots]
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[nodes + 1] = counts
        np.cumsum(indptr, out=indptr)
        linked = np.arange(self.table.shape[1]) < counts[:, np.newaxis]
        return indptr, self.table[slots][linked].astype(np.int64)

    def load_level_csr(
        self, level: int, indptr: np.ndarray, indices: np.ndarray
    ) -> None:
        """Inverse of :meth:`level_csr` onto existing, unlinked nodes.

        Raises :class:`~repro.errors.SerializationError` when the pair
        (the payload's ``indptr_<level>`` / ``indices_<level>``) does not
        describe this graph's nodes at ``level``, a list exceeds the
        table width or a neighbor id is not a node.
        """
        nodes = np.flatnonzero(np.asarray(self.levels) >= level)
        counts = np.diff(indptr)[nodes] if indptr.size == len(self) + 1 else None
        if (
            counts is None
            or counts.sum() != indices.size
            or counts.min(initial=0) < 0
            or counts.max(initial=0) > self.table.shape[1]
        ):
            raise SerializationError(
                f"indptr_{level} / indices_{level} do not fit a graph of "
                f"{len(self)} nodes and out-degree <= {self.table.shape[1]}"
            )
        if indices.min(initial=0) < 0 or indices.max(initial=0) >= len(self):
            raise SerializationError(
                f"indices_{level} holds a neighbor id outside [0, {len(self)})"
            )
        slots = self.base[nodes] + level
        rows = self.table[slots]
        rows[np.arange(self.table.shape[1]) < counts[:, np.newaxis]] = indices
        self.table[slots] = rows
        self.degrees[slots] = counts

    # -- invariants (used by tests and sanity checks) ------------------------------
    def check_invariants(self, max_m: int, max_m0: int) -> None:
        """Raise ``AssertionError`` if structural invariants are violated.

        Checks: slot layout and degree column consistent with the
        padding, degrees within bounds, neighbors exist at the same
        level, no self-loops or duplicates, entry point is at
        ``max_level``.
        """
        n = len(self)
        if n == 0:
            assert self.entry_point == -1
            return
        assert 0 <= self.entry_point < n
        assert self.levels[self.entry_point] == self.max_level
        levels = np.asarray(self.levels)
        spans = levels + 1
        assert self._slots == spans.sum() <= self.capacity
        assert (self.base[:n] == np.cumsum(spans) - spans).all()
        owners = np.repeat(np.arange(n), spans)
        slot_levels = np.arange(self._slots) - self.base[owners]
        table, degrees = self.table[: self._slots], self.degrees[: self._slots]
        width = table.shape[1]

        def first(bad: np.ndarray) -> tuple[int, int, int]:
            """(node, level, slot) of the first offending slot."""
            slot = int(np.flatnonzero(bad)[0])
            return int(owners[slot]), int(slot_levels[slot]), slot

        bounds = np.where(slot_levels == 0, max_m0, max_m)
        over = (degrees < 0) | (degrees > np.minimum(bounds, width))
        if over.any():
            node, level, slot = first(over)
            raise AssertionError(
                f"node {node} level {level} degree {degrees[slot]} > "
                f"{bounds[slot]}"
            )
        linked = np.arange(width) < degrees[:, np.newaxis]
        own = table == owners[:, np.newaxis]
        loops = (linked & own).any(axis=1)
        if loops.any():
            raise AssertionError(f"self-loop at node {first(loops)[0]}")
        assert (linked | own).all(), "padding is not the owner node"
        ids = table[linked]
        assert ((ids >= 0) & (ids < n)).all(), "neighbor id out of range"
        # Padding sorts as distinct negatives, so only real repeats tie.
        ordered = np.sort(
            np.where(linked, table, -1 - np.arange(width)), axis=1, kind="stable"
        )
        repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if repeats.any():
            node, level, _ = first(repeats)
            raise AssertionError(
                f"duplicate neighbors at node {node} level {level}"
            )
        above = (linked & (levels[table] < slot_levels[:, np.newaxis])).any(axis=1)
        if above.any():
            node, level, slot = first(above)
            nbr = table[slot][levels[table[slot]] < level][0]
            raise AssertionError(
                f"node {node} links to {nbr} above its top level"
            )


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
        """Start a new group search: ``rows`` queries over node ids below
        ``capacity``.

        Growing reallocates and zeroes ``rows x capacity`` bytes, so a
        caller whose node count creeps up (a build searches a larger
        graph every wave) passes a capacity that grows geometrically --
        :attr:`HnswGraph.capacity` -- not the node count.
        """
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
