"""Tests for the layered graph storage and visited-set machinery."""

import numpy as np
import pytest

from repro.hnsw.graph import HnswGraph, VisitedEpochs, VisitedPool, VisitedTable


class TestHnswGraph:
    def test_add_node_assigns_sequential_ids(self):
        graph = HnswGraph()
        assert graph.add_node(0) == 0
        assert graph.add_node(2) == 1
        assert len(graph) == 2
        assert graph.levels == [0, 2]

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            HnswGraph().add_node(-1)

    def test_links_per_level(self):
        graph = HnswGraph()
        graph.add_node(1)
        graph.add_node(1)
        graph.add_link(0, 0, 1)
        graph.add_link(0, 1, 1)
        assert graph.neighbors(0, 0) == [1]
        assert graph.neighbors(0, 1) == [1]
        assert graph.neighbors(1, 0) == []
        assert graph.degree(0, 0) == 1

    def test_set_neighbors_copies(self):
        graph = HnswGraph()
        graph.add_node(0)
        graph.add_node(0)
        source = [1]
        graph.set_neighbors(0, 0, source)
        source.append(99)
        assert graph.neighbors(0, 0) == [1]

    def test_invariants_pass_on_valid_graph(self):
        graph = HnswGraph()
        graph.add_node(1)
        graph.add_node(0)
        graph.entry_point = 0
        graph.max_level = 1
        graph.add_link(0, 0, 1)
        graph.add_link(1, 0, 0)
        graph.check_invariants(max_m=4, max_m0=8)

    def test_invariants_catch_self_loop(self):
        graph = HnswGraph()
        graph.add_node(0)
        graph.entry_point = 0
        graph.max_level = 0
        graph.add_link(0, 0, 0)
        with pytest.raises(AssertionError, match="self-loop"):
            graph.check_invariants(max_m=4, max_m0=8)

    def test_invariants_catch_degree_overflow(self):
        graph = HnswGraph()
        for _ in range(4):
            graph.add_node(0)
        graph.entry_point = 0
        graph.max_level = 0
        graph.set_neighbors(0, 0, [1, 2, 3])
        with pytest.raises(AssertionError, match="degree"):
            graph.check_invariants(max_m=2, max_m0=2)

    def test_invariants_catch_link_above_neighbor_level(self):
        graph = HnswGraph()
        graph.add_node(1)
        graph.add_node(0)
        graph.entry_point = 0
        graph.max_level = 1
        graph.set_neighbors(0, 1, [1])  # node 1 does not exist at level 1
        with pytest.raises(AssertionError, match="above its top level"):
            graph.check_invariants(max_m=4, max_m0=8)

    def test_empty_graph_invariants(self):
        HnswGraph().check_invariants(max_m=4, max_m0=8)


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


class TestPaddedAdjacency:
    def test_rows_are_node_major_and_padded_with_the_owner(self):
        graph = HnswGraph()
        for level in (1, 0, 2):
            graph.add_node(level)
        graph.set_neighbors(0, 0, [2, 1])
        graph.set_neighbors(0, 1, [2])
        graph.set_neighbors(2, 0, [0])
        table, base = graph.padded()
        assert table.dtype.name == "int32"
        assert base.tolist() == [0, 2, 3]
        assert table.tolist() == [
            [2, 1],  # node 0, level 0: list order kept
            [2, 0],  # node 0, level 1: padded with the owner
            [1, 1],  # node 1, level 0: no links
            [0, 2],  # node 2, levels 0..2
            [2, 2],
            [2, 2],
        ]
        nodes = np.array([2, 0])
        assert graph.padded().neighbors(nodes, 0).tolist() == [[0, 2], [2, 1]]
        assert graph.padded().neighbors(nodes, 1).tolist() == [[2, 2], [2, 0]]

    def test_a_copy_not_a_view(self):
        graph = HnswGraph()
        graph.add_node(0)
        graph.add_node(0)
        frozen = graph.padded()
        graph.add_link(0, 0, 1)
        assert frozen.table.tolist() == [[0], [1]]
        assert graph.padded().table.tolist() == [[1], [1]]


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
