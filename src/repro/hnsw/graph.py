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
from repro.utils.validation import payload_member


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
    upper:
        ``upper[l]`` lists, in id order, the nodes whose top level is
        ``l >= 1``; ``upper[0]`` stays empty.  The heap descent scores
        the top levels from it (:meth:`upper_prefix`).
    """

    __slots__ = (
        "table", "degrees", "base", "levels", "entry_point", "max_level",
        "upper", "_slots", "_prefix",
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
        self.upper: list[list[int]] = [[]]
        self._slots = 0  # table rows in use
        self._prefix: tuple = ()  # upper_prefix's (key, answer)

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
        linked.
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
        levels = (spans - 1).tolist()
        self.levels.extend(levels)
        for offset in np.flatnonzero(spans > 1).tolist():
            level = levels[offset]
            while len(self.upper) <= level:
                self.upper.append([])
            self.upper[level].append(first + offset)
        self._slots = stop
        return first

    def upper_prefix(
        self, budget: int
    ) -> tuple[np.ndarray, dict[int, int], dict[int, int]]:
        """The nodes of the top levels that together hold at most
        ``budget`` nodes, from ``max_level`` down.

        Returns ``(nodes, position, counts)``: ``nodes`` (int64) orders
        them by top level, highest first, then by id, so the nodes of
        levels ``>= l`` are its first ``counts[l]``; ``position`` maps a
        node to its index there.  A level is in ``counts`` iff it fits
        the budget, so an empty ``counts`` means the top level alone is
        over it.  The answer is kept until the node count, ``max_level``
        or ``budget`` changes -- nothing else moves a node's level.
        """
        key = (len(self.levels), self.max_level, budget)
        if self._prefix and self._prefix[0] == key:
            return self._prefix[1]
        nodes: list[int] = []
        counts: dict[int, int] = {}
        for level in range(self.max_level, 0, -1):
            tier = self.upper[level]
            if len(nodes) + len(tier) > budget:
                break
            nodes += tier
            counts[level] = len(nodes)
        answer = (
            np.asarray(nodes, dtype=np.int64),
            {node: at for at, node in enumerate(nodes)},
            counts,
        )
        self._prefix = (key, answer)
        return answer

    def _slot(self, node: int, level: int) -> int:
        """The table row of ``node`` at ``level``."""
        if not 0 <= level <= self.levels[node]:
            raise IndexError(f"node {node} has no level {level}")
        return int(self.base[node]) + level

    def neighbors(self, node: int, level: int) -> list[int]:
        """A copy of the neighbor list of ``node`` at ``level``."""
        slot = self._slot(node, level)
        return self.table[slot, : self.degrees[slot]].tolist()

    @property
    def width(self) -> int:
        """Slots per table row: the larger degree bound."""
        return self.table.shape[1]

    def neighbor_rows(
        self, nodes: np.ndarray, level: int, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """The padded ``(len(nodes), width)`` neighbor rows of ``nodes`` at
        ``level`` (every node must participate there).

        ``rows`` -- the ascending lockstep-group row each node is expanded
        for -- is where a group spanning several segments splits the
        question between their tables; one graph answers every row alike
        and does not read it.
        """
        slots = self.base.take(nodes)
        if level:
            slots += level
        return self.table.take(slots, axis=0)

    def row_tables(self, rows: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(table, base)`` for each of ``rows`` group rows: the heap
        kernel's per-row reads (one graph serves every row)."""
        return [(self.table, self.base)] * rows

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

    # -- the persisted form: the table as it stands -------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """A snapshot of the slots in use, as persisted: ``table`` and
        ``degrees`` keep dtype and layout (the persisted adjacency *is* the
        in-memory one); ``base`` is one cumsum over ``levels``, not stored."""
        return {
            "table": self.table[: self._slots].copy(),
            "degrees": self.degrees[: self._slots].copy(),
            "levels": np.asarray(self.levels, dtype=np.int32),
            "entry_point": np.asarray(self.entry_point),
            "max_level": np.asarray(self.max_level),
        }

    @classmethod
    def from_arrays(
        cls, payload: dict, count: int, max_m: int, max_m0: int
    ) -> "HnswGraph":
        """Inverse of :meth:`to_arrays` for ``count`` nodes under the given
        degree bounds.  The arrays are adopted, not copied or cast (capacity
        equals the slots in use, so the first ``add_nodes`` reallocates); a
        member that is missing, mistyped, misshapen or breaks an invariant
        of :meth:`check_invariants` is a ``SerializationError`` naming it."""
        levels, table, degrees = (
            payload_member(payload, name) for name in ("levels", "table", "degrees")
        )
        width = max(max_m, max_m0)
        # One table row per (node, level): known once 'levels' is well-typed.
        slots = count + int(levels.sum()) if levels.dtype == np.int32 else -1
        for name, got, shape in (
            ("levels", levels, (count,)),
            ("table", table, (slots, width)),
            ("degrees", degrees, (slots,)),
        ):
            if got.dtype != np.int32 or got.shape != shape or got.min(initial=0) < 0:
                raise SerializationError(
                    f"HNSW payload member {name!r} is {got.dtype.name} {got.shape}, "
                    f"expected non-negative int32 {shape}: count {count}, "
                    f"out-degree <= {width}, one row per level in 'levels'"
                )
        graph = cls(width)
        graph.table, graph.degrees, graph._slots = table, degrees, slots
        graph.levels = levels.tolist()
        graph.upper = [[]] + [
            np.flatnonzero(levels == level).tolist()
            for level in range(1, int(levels.max(initial=0)) + 1)
        ]
        graph.base = np.cumsum(levels + 1, dtype=np.int64) - levels - 1
        graph.entry_point = int(payload_member(payload, "entry_point"))
        graph.max_level = int(payload_member(payload, "max_level"))
        problem = graph._violation(max_m, max_m0)
        if problem is not None:
            raise SerializationError(f"HNSW payload member {problem}")
        return graph

    # -- invariants (the loader's checks and the tests' are one body) ---------------
    def check_invariants(self, max_m: int, max_m0: int) -> None:
        """Raise ``AssertionError`` if structural invariants are violated.

        Checks: entry point is at ``max_level``, slot layout and degree
        column consistent with the padding, degrees within bounds,
        neighbors exist at the same level, no self-loops or duplicates.
        """
        problem = self._violation(max_m, max_m0)
        if problem is not None:
            raise AssertionError(problem)

    def _violation(self, max_m: int, max_m0: int) -> str | None:
        """The first invariant this graph breaks -- a message that opens
        with the attribute (and payload member) at fault -- or ``None``."""
        n = len(self)
        if n == 0:
            return None if self.entry_point == -1 else "'entry_point' of an empty graph"
        levels = np.asarray(self.levels)
        entry, top = self.entry_point, self.max_level
        if not (0 <= entry < n and levels[entry] == top == levels.max()):
            return (
                f"'entry_point' {entry} / 'max_level' {top} do not name a "
                f"top-level node ('levels' peaks at {levels.max()})"
            )
        spans = levels + 1
        laid_out = self._slots == spans.sum() <= self.capacity
        if not (laid_out and (self.base[:n] == np.cumsum(spans) - spans).all()):
            return "'table' / 'base' do not lay out one slot per (node, level)"
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
            return (
                f"'degrees': node {node} level {level} degree {degrees[slot]} "
                f"> {bounds[slot]}"
            )
        linked = np.arange(width) < degrees[:, np.newaxis]
        own = table == owners[:, np.newaxis]
        loops = (linked & own).any(axis=1)
        if loops.any():
            return f"'table': self-loop at node {first(loops)[0]}"
        if not (linked | own).all():
            return "'table': padding is not the owner node"
        ids = table[linked]
        if not ((ids >= 0) & (ids < n)).all():
            return f"'table': neighbor id outside [0, {n})"
        # Padding sorts as distinct negatives, so only real repeats tie;
        # equal ids are indistinguishable, so any sort kind finds them.
        ordered = np.sort(np.where(linked, table, -1 - np.arange(width)), axis=1)
        repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if repeats.any():
            node, level, _ = first(repeats)
            return f"'table': duplicate neighbors at node {node} level {level}"
        above = (linked & (levels[table] < slot_levels[:, np.newaxis])).any(axis=1)
        if above.any():
            node, level, slot = first(above)
            nbr = table[slot][levels[table[slot]] < level][0]
            return f"'table': node {node} links to {nbr} above its top level"
        return None


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
