"""Tests for the layered graph storage and visited-set machinery.

The adjacency is one in-place ``int32`` table, so the cases that pinned
the former frozen array copy and the CSR list loader are replaced:

- ``TestPaddedAdjacency.test_rows_are_node_major_and_padded_with_the_owner``
  -> ``TestAdjacencyTable.test_rows_are_node_major_and_padded_with_the_owner``
- ``TestPaddedAdjacency.test_a_copy_not_a_view`` (a copy no longer
  exists) -> ``TestAdjacencyTable.test_writes_land_in_the_one_table``
- ``TestHnswGraph.test_set_neighbors_copies`` -> kept, plus
  ``test_neighbors_returns_a_copy`` (the list handed out is not storage)

Format 2 persists that table as it stands, so the per-level CSR cases
went with the converters:

- ``TestAdjacencyTable.test_level_csr_round_trip`` ->
  ``TestAdjacencyTable.test_table_round_trip``
- ``TestAdjacencyTable.test_malformed_csr_is_a_serialization_error``
  (too few nodes, a row for a level the node lacks, wider than the
  table, stray indices) -> ``test_malformed_arrays_are_a_serialization_error``
  here, and member by member through a whole payload in
  ``test_hnsw_serialize.py::test_a_payload_that_cannot_search_does_not_load``
"""

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.hnsw.graph import HnswGraph, VisitedEpochs, VisitedPool, VisitedTable


class TestHnswGraph:
    def test_add_node_assigns_sequential_ids(self):
        graph = HnswGraph(4)
        assert graph.add_node(0) == 0
        assert graph.add_node(2) == 1
        assert len(graph) == 2
        assert graph.levels == [0, 2]

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            HnswGraph(4).add_node(-1)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            HnswGraph(0)

    def test_links_per_level(self):
        graph = HnswGraph(4)
        graph.add_node(1)
        graph.add_node(1)
        graph.add_link(0, 0, 1)
        graph.add_link(0, 1, 1)
        assert graph.neighbors(0, 0) == [1]
        assert graph.neighbors(0, 1) == [1]
        assert graph.neighbors(1, 0) == []
        assert graph.degree(0, 0) == 1

    def test_a_level_the_node_lacks_is_an_error(self):
        graph = HnswGraph(4)
        graph.add_node(0)
        graph.add_node(1)
        with pytest.raises(IndexError):
            graph.neighbors(0, 1)  # would be node 1's base row
        with pytest.raises(IndexError):
            graph.add_link(2, 0, 0)

    def test_set_neighbors_copies(self):
        graph = HnswGraph(4)
        graph.add_node(0)
        graph.add_node(0)
        source = [1]
        graph.set_neighbors(0, 0, source)
        source.append(99)
        assert graph.neighbors(0, 0) == [1]

    def test_neighbors_returns_a_copy(self):
        graph = HnswGraph(4)
        graph.add_node(0)
        graph.add_node(0)
        graph.add_link(0, 0, 1)
        graph.neighbors(0, 0).append(99)
        assert graph.neighbors(0, 0) == [1]

    def test_a_row_never_overflows(self):
        graph = HnswGraph(2)
        for _ in range(4):
            graph.add_node(0)
        with pytest.raises(ValueError):
            graph.set_neighbors(0, 0, [1, 2, 3])
        graph.set_neighbors(0, 0, [1, 2])
        with pytest.raises(ValueError):
            graph.add_link(0, 0, 3)
        assert graph.neighbors(0, 0) == [1, 2]

    def test_invariants_pass_on_valid_graph(self):
        graph = HnswGraph(8)
        graph.add_node(1)
        graph.add_node(0)
        graph.entry_point = 0
        graph.max_level = 1
        graph.add_link(0, 0, 1)
        graph.add_link(1, 0, 0)
        graph.check_invariants(max_m=4, max_m0=8)

    def test_invariants_catch_self_loop(self):
        graph = HnswGraph(8)
        graph.add_node(0)
        graph.entry_point = 0
        graph.max_level = 0
        graph.add_link(0, 0, 0)
        with pytest.raises(AssertionError, match="self-loop"):
            graph.check_invariants(max_m=4, max_m0=8)

    def test_invariants_catch_degree_overflow(self):
        graph = HnswGraph(8)
        for _ in range(4):
            graph.add_node(0)
        graph.entry_point = 0
        graph.max_level = 0
        graph.set_neighbors(0, 0, [1, 2, 3])
        with pytest.raises(AssertionError, match="degree"):
            graph.check_invariants(max_m=2, max_m0=2)

    def test_invariants_catch_link_above_neighbor_level(self):
        graph = HnswGraph(8)
        graph.add_node(1)
        graph.add_node(0)
        graph.entry_point = 0
        graph.max_level = 1
        graph.set_neighbors(0, 1, [1])  # node 1 does not exist at level 1
        with pytest.raises(AssertionError, match="above its top level"):
            graph.check_invariants(max_m=4, max_m0=8)

    def test_invariants_catch_duplicates(self):
        graph = HnswGraph(8)
        for _ in range(3):
            graph.add_node(0)
        graph.entry_point = 0
        graph.max_level = 0
        graph.set_neighbors(0, 0, [1, 2, 1])
        with pytest.raises(AssertionError, match="duplicate"):
            graph.check_invariants(max_m=4, max_m0=8)

    def test_invariants_catch_a_degree_column_that_disagrees_with_padding(self):
        graph = HnswGraph(8)
        for _ in range(3):
            graph.add_node(0)
        graph.entry_point = 0
        graph.max_level = 0
        graph.set_neighbors(0, 0, [1, 2])
        graph.degrees[0] = 1  # the row still holds a second link
        with pytest.raises(AssertionError, match="padding"):
            graph.check_invariants(max_m=4, max_m0=8)

    def test_empty_graph_invariants(self):
        HnswGraph(8).check_invariants(max_m=4, max_m0=8)


class TestAdjacencyTable:
    def small_graph(self) -> HnswGraph:
        graph = HnswGraph(2)
        for level in (1, 0, 2):
            graph.add_node(level)
        graph.set_neighbors(0, 0, [2, 1])
        graph.set_neighbors(0, 1, [2])
        graph.set_neighbors(2, 0, [0])
        graph.entry_point, graph.max_level = 2, 2
        return graph

    def test_rows_are_node_major_and_padded_with_the_owner(self):
        graph = self.small_graph()
        assert graph.table.dtype.name == "int32"
        assert graph.base[:3].tolist() == [0, 2, 3]
        assert graph.table[:6].tolist() == [
            [2, 1],  # node 0, level 0: list order kept
            [2, 0],  # node 0, level 1: padded with the owner
            [1, 1],  # node 1, level 0: no links
            [0, 2],  # node 2, levels 0..2
            [2, 2],
            [2, 2],
        ]
        assert graph.degrees[:6].tolist() == [2, 1, 0, 1, 0, 0]
        nodes = np.array([2, 0])
        assert graph.neighbor_rows(nodes, 0).tolist() == [[0, 2], [2, 1]]
        assert graph.neighbor_rows(nodes, 1).tolist() == [[2, 2], [2, 0]]

    def test_writes_land_in_the_one_table(self):
        """No snapshot to go stale: what a mutation writes is what the
        next gather reads, across a reallocation too."""
        graph = HnswGraph(2)
        graph.add_node(0)
        graph.add_node(0)
        assert graph.neighbor_rows(np.array([0, 1]), 0).tolist() == [[0, 0], [1, 1]]
        graph.add_link(0, 0, 1)
        assert graph.neighbor_rows(np.array([0]), 0).tolist() == [[1, 0]]
        before = graph.capacity
        graph.add_nodes([0] * 100)
        assert graph.capacity > before
        graph.add_link(1, 0, 57)
        assert graph.neighbor_rows(np.array([0, 1, 57]), 0).tolist() == [
            [1, 0], [57, 1], [57, 57],
        ]

    def test_capacity_grows_geometrically(self):
        graph = HnswGraph(2)
        capacities = set()
        for _ in range(3000):
            graph.add_node(0)
            capacities.add(graph.capacity)
        assert len(capacities) <= 13  # ~log2(3000) doublings
        assert all(node < graph.capacity for node in range(len(graph)))

    def test_bulk_writers_match_the_scalar_ones(self):
        levels = [1, 0, 0, 2, 0]
        one, many = HnswGraph(3), HnswGraph(3)
        for graph in (one, many):
            graph.add_nodes(levels)
        lists = {(0, 0): [1, 2], (0, 1): [3], (3, 2): [], (4, 0): [0, 1, 2]}
        for (node, level), ids in lists.items():
            one.set_neighbors(node, level, ids)
        many.set_neighbor_lists(
            np.array([node for node, _ in lists]),
            np.array([level for _, level in lists]),
            np.array([ids + [-1] * (3 - len(ids)) for ids in lists.values()]),
        )
        # Reverse edges in apply order; node 0 level 0 may hold 3, node 4 is full.
        edges = [(0, 0, 4), (1, 0, 0), (0, 0, 3), (4, 0, 3), (0, 1, 0), (1, 0, 4)]
        bound = {0: 3, 1: 1}
        refused = []
        for node, level, source in edges:
            if one.degree(node, level) < bound[level]:
                one.add_link(node, level, source)
                refused.append(False)
            else:
                refused.append(True)
        got = many.add_links(
            np.array([node for node, _, _ in edges]),
            np.array([level for _, level, _ in edges]),
            np.array([source for _, _, source in edges]),
            np.array([bound[level] for _, level, _ in edges]),
        )
        assert got.tolist() == refused == [False, False, True, True, True, False]
        assert many.table[: many._slots].tolist() == one.table[: one._slots].tolist()
        assert many.degrees[: many._slots].tolist() == one.degrees[: one._slots].tolist()

    def test_table_round_trip(self):
        graph = self.small_graph()
        arrays = graph.to_arrays()
        assert sorted(arrays) == [
            "degrees", "entry_point", "levels", "max_level", "table",
        ]
        assert arrays["table"].dtype == arrays["degrees"].dtype == np.int32
        assert arrays["table"].tolist() == graph.table[:6].tolist()
        assert arrays["degrees"].tolist() == graph.degrees[:6].tolist()
        assert arrays["levels"].tolist() == graph.levels
        assert not np.shares_memory(arrays["table"], graph.table)  # a snapshot
        restored = HnswGraph.from_arrays(arrays, 3, max_m=2, max_m0=2)
        assert restored.table is arrays["table"]  # adopted
        assert restored.base.tolist() == graph.base[:3].tolist()
        assert (restored.entry_point, restored.max_level, restored.levels) == (
            graph.entry_point, graph.max_level, graph.levels,
        )
        restored.check_invariants(max_m=2, max_m0=2)
        assert restored.capacity == 6
        assert restored.add_node(0) == 3  # exactly full: this reallocates
        assert restored.capacity == 12 and len(arrays["table"]) == 6

    @pytest.mark.parametrize(
        "member, value, named",
        [
            ("levels", [1, 0], "'levels'"),  # too few nodes
            ("levels", [1, 1, 2], "'table'"),  # a row the table lacks
            ("table", np.zeros((6, 3), np.int32), "'table'"),  # wider than the bounds
            ("degrees", [2, 1, 0, 1, 0, 0, 0], "'degrees'"),  # stray entries
            ("degrees", [1, 1, 0, 1, 0, 0], "'table': padding"),
            ("degrees", [2, 1, 0, 1, 3, 0], "'degrees': node 2 level 1"),
        ],
    )
    def test_malformed_arrays_are_a_serialization_error(self, member, value, named):
        arrays = self.small_graph().to_arrays()
        arrays[member] = np.asarray(value, dtype=np.int32)
        with pytest.raises(SerializationError, match=named):
            HnswGraph.from_arrays(arrays, 3, max_m=2, max_m0=2)

    def test_the_loader_and_check_invariants_are_one_rule_set(self):
        """Whatever ``check_invariants`` refuses in memory, the loader
        refuses on the way in, in the same words."""
        graph = self.small_graph()
        graph.table[0, 0] = 0  # node 0 links to itself
        with pytest.raises(AssertionError, match="self-loop at node 0") as live:
            graph.check_invariants(max_m=2, max_m0=2)
        with pytest.raises(SerializationError) as loaded:
            HnswGraph.from_arrays(graph.to_arrays(), 3, max_m=2, max_m0=2)
        assert str(live.value) in str(loaded.value)


class TestVisitedTable:
    """The kernels read ``tags`` / ``epoch`` directly: slot ``node`` is
    visited iff ``tags[node] == epoch``."""

    def test_visit_and_reset(self):
        table = VisitedTable(4)
        table.reset(4)
        assert table.tags[2] != table.epoch
        table.tags[2] = table.epoch
        assert table.tags[2] == table.epoch
        table.reset(4)
        assert table.tags[2] != table.epoch

    def test_grows_on_demand(self):
        table = VisitedTable(2)
        table.reset(100)
        table.tags[99] = table.epoch
        assert table.tags[99] == table.epoch

    def test_epochs_isolate_searches(self):
        table = VisitedTable(8)
        for _ in range(100):
            table.reset(8)
            assert table.tags[3] != table.epoch
            table.tags[3] = table.epoch


class TestVisitedEpochs:
    def test_reset_forgets_and_the_byte_wraps_clean(self):
        epochs = VisitedEpochs()
        for _ in range(600):
            epochs.reset(5, 2)
            assert 1 <= epochs.epoch <= 255
            assert not (epochs.tags == epochs.epoch).any()
            epochs.tags[epochs.stride + 3] = epochs.epoch

    def test_grows_with_rows_and_capacity(self):
        epochs = VisitedEpochs()
        epochs.reset(5, 2)
        assert (epochs.stride, epochs.tags.size) == (5, 10)
        epochs.reset(3, 4)  # more rows, fewer nodes: rows stay 5 wide
        assert epochs.stride == 5 and epochs.tags.size >= 20
        epochs.reset(9, 1)
        assert epochs.stride == 9 and epochs.tags.size >= 9
        assert not epochs.tags.any()


class TestVisitedPool:
    def test_same_thread_reuses_table(self):
        pool = VisitedPool()
        (first,) = pool.get_many(10, 1)
        first.tags[5] = first.epoch
        (second,) = pool.get_many(10, 1)
        assert second is first
        assert second.tags[5] != second.epoch  # reset happened

    def test_threads_get_distinct_tables(self):
        import threading

        pool = VisitedPool()
        (main_table,) = pool.get_many(10, 1)
        seen = {}

        def worker():
            (seen["table"],) = pool.get_many(10, 1)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["table"] is not main_table

    def test_epochs_are_per_thread_and_reused(self):
        import threading

        pool = VisitedPool()
        mine = pool.get_epochs(10, 2)
        assert pool.get_epochs(10, 2) is mine
        seen = {}
        thread = threading.Thread(
            target=lambda: seen.update(epochs=pool.get_epochs(10, 2))
        )
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert seen["epochs"] is not mine
