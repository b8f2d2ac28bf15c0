"""Tests for HNSW persistence: array payloads, files, byte buffers."""

import json

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.hnsw.index import HnswIndex, build_hnsw
from repro.hnsw.params import HnswParams
from repro.storage.manifest import hnsw_from_bytes, hnsw_to_bytes
from tests.conftest import FAST_HNSW


@pytest.fixture(scope="module")
def small_index(clustered_data):
    return build_hnsw(
        clustered_data[:200],
        ids=np.arange(200) * 3,
        params=FAST_HNSW,
    )


def assert_same_search_behaviour(original, restored, queries):
    for query in queries:
        ids_a, dists_a = original.search(query, 8, ef=48)
        ids_b, dists_b = restored.search(query, 8, ef=48)
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_allclose(dists_a, dists_b, rtol=1e-6)


class TestArrayRoundtrip:
    def test_structure_preserved(self, small_index):
        restored = HnswIndex.from_arrays(small_index.to_arrays())
        assert len(restored) == len(small_index)
        assert restored.max_level == small_index.max_level
        assert restored.graph.entry_point == small_index.graph.entry_point
        assert restored.graph.levels == small_index.graph.levels
        assert restored.params == small_index.params
        for node in range(len(small_index)):
            for level in range(small_index.graph.levels[node] + 1):
                assert restored.graph.neighbors(node, level) == (
                    small_index.graph.neighbors(node, level)
                )

    def test_search_identical(self, small_index, clustered_queries):
        restored = HnswIndex.from_arrays(small_index.to_arrays())
        assert_same_search_behaviour(
            small_index, restored, clustered_queries[:10]
        )

    def test_external_ids_preserved(self, small_index):
        restored = HnswIndex.from_arrays(small_index.to_arrays())
        np.testing.assert_array_equal(
            restored.external_ids, small_index.external_ids
        )

    def test_empty_index_roundtrip(self):
        index = HnswIndex(dim=6, params=FAST_HNSW)
        restored = HnswIndex.from_arrays(index.to_arrays())
        assert len(restored) == 0
        assert restored.dim == 6

    def test_restored_index_accepts_new_points(self, clustered_data):
        index = build_hnsw(clustered_data[:50], params=FAST_HNSW)
        restored = HnswIndex.from_arrays(index.to_arrays())
        restored.add(clustered_data[50:60])
        assert len(restored) == 60
        restored.graph.check_invariants(
            restored.params.effective_max_m,
            restored.params.effective_max_m0,
        )


    def test_restored_index_numbers_new_rows_on(self, small_index, clustered_data):
        """Ids run to 597 (3 * 199); an id-less add continues at 598."""
        restored = HnswIndex.from_arrays(small_index.to_arrays())
        restored.add(clustered_data[200:202])
        assert restored.external_ids[-2:].tolist() == [598, 599]

    @pytest.mark.parametrize("version", [2, 0, "1"])
    def test_unknown_format_version_rejected(self, small_index, version):
        payload = small_index.to_arrays()
        payload["format_version"] = np.asarray(version)
        with pytest.raises(SerializationError, match=f"format_version is {version!r}"):
            HnswIndex.from_arrays(payload)

    def test_missing_format_version_rejected(self, small_index):
        payload = small_index.to_arrays()
        del payload["format_version"]
        with pytest.raises(SerializationError, match="format_version is missing"):
            HnswIndex.from_arrays(payload)

    @pytest.mark.parametrize(
        "member, value, named",
        [
            ("levels", None, "'levels'"),
            ("indptr_0", None, "'indptr_0'"),
            ("max_level", lambda p: p["max_level"] + 1, "max_level"),
            ("vectors", lambda p: p["vectors"][:-1], "'vectors'"),
            ("external_ids", lambda p: p["external_ids"][:-1], "'external_ids'"),
            ("levels", lambda p: p["levels"][:-1], "'levels'"),
            ("entry_point", lambda p: p["count"], "entry_point"),
            ("entry_point", lambda p: np.asarray(-1), "entry_point"),
            ("indices_0", lambda p: np.append(p["indices_0"][1:], -1), "indices_0"),
            (
                "indices_0",
                lambda p: np.append(p["indices_0"][1:], p["count"]),
                "indices_0",
            ),
        ],
    )
    def test_a_payload_that_cannot_search_does_not_load(
        self, small_index, member, value, named
    ):
        """One payload member dropped (``value`` None) or replaced: each
        of these used to load, or die on a ``KeyError`` / numpy broadcast
        error, and fail -- if at all -- at the first search."""
        payload = small_index.to_arrays()
        if value is None:
            del payload[member]
        else:
            payload[member] = value(payload)
        with pytest.raises(SerializationError, match=named):
            HnswIndex.from_arrays(payload)

    def test_params_json_from_an_older_build_loads(self, small_index):
        """``extend_candidates`` was a field nothing read; payloads that
        still carry it load, and the key is simply dropped."""
        payload = small_index.to_arrays()
        params = json.loads(str(payload["params_json"]))
        assert "extend_candidates" not in params
        payload["params_json"] = np.asarray(
            json.dumps({**params, "extend_candidates": False})
        )
        assert HnswIndex.from_arrays(payload).params == small_index.params


class TestFileRoundtrip:
    def test_save_load(self, small_index, clustered_queries, tmp_path):
        path = str(tmp_path / "index.npz")
        small_index.save(path)
        restored = HnswIndex.load(path)
        assert_same_search_behaviour(
            small_index, restored, clustered_queries[:5]
        )


class TestByteRoundtrip:
    def test_bytes_roundtrip(self, small_index, clustered_queries):
        restored = hnsw_from_bytes(hnsw_to_bytes(small_index))
        assert_same_search_behaviour(
            small_index, restored, clustered_queries[:5]
        )

    def test_cosine_index_roundtrip(self, clustered_data, clustered_queries):
        index = build_hnsw(
            clustered_data[:100], metric="cosine", params=FAST_HNSW
        )
        restored = hnsw_from_bytes(hnsw_to_bytes(index))
        assert restored.metric_name == "cosine"
        assert_same_search_behaviour(index, restored, clustered_queries[:5])

    def test_params_survive(self, clustered_data):
        params = HnswParams(M=5, ef_construction=31, ef_search=17, seed=3)
        index = build_hnsw(clustered_data[:40], params=params)
        restored = hnsw_from_bytes(hnsw_to_bytes(index))
        assert restored.params == params
