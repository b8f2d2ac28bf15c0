"""Tests for HNSW persistence: array payloads, files, byte buffers."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import SerializationError
from repro.hnsw.index import HnswIndex, build_hnsw
from repro.hnsw.params import HnswParams
from repro.storage.manifest import hnsw_from_bytes, hnsw_to_bytes
from repro.utils import container
from tests.conftest import FAST_HNSW, assert_same_payload, member_table, restamped

NUMERIC_DTYPES = ["i1", "<i4", "<i8", "<f4", "<f8"]
MEMBERS = st.one_of(
    hnp.arrays(
        st.sampled_from([*NUMERIC_DTYPES, "<U3"]),
        st.sampled_from([(), (0,), (0, 4), (1, 1), (7,), (5, 3)]),
    ),
    hnp.arrays("<f4", hnp.array_shapes(min_dims=2, max_dims=2, max_side=40)),
)


def encode_table(table) -> bytes:
    return json.dumps(table, separators=(",", ":")).encode()


def with_table(segment: bytes, table, blobs: bytes) -> bytes:
    """``segment``'s magic over another member table, CRC re-stamped."""
    head = encode_table(table)
    return restamped(segment[:12] + len(head).to_bytes(4, "little") + head + blobs)


@pytest.fixture(scope="module")
def small_index(clustered_data):
    return build_hnsw(
        clustered_data[:200],
        ids=np.arange(200) * 3,
        params=FAST_HNSW,
    )


@pytest.fixture(scope="module")
def indices(small_index, clustered_data):
    """``small_index`` and its int8 / PQ twins (PQ: 4 subspaces of 200
    codewords)."""
    return {
        "float": small_index,
        **{
            kind: build_hnsw(
                clustered_data[:200],
                params=replace(FAST_HNSW, quantize=kind, pq_subspaces=4),
            )
            for kind in ("int8", "pq")
        },
    }


def recoded(payload, code: int) -> np.ndarray:
    """``payload``'s PQ codes with the first row's first code ``code``."""
    codes = payload["codec_codes"].copy()
    codes[0, 0] = code
    return codes


def slot_bases(payload) -> np.ndarray:
    """Table row of each node's level 0, as the loader derives it."""
    spans = payload["levels"].astype(np.int64) + 1
    return np.cumsum(spans) - spans


def upper_slot(payload) -> int:
    """The level-1 row of the first node that has one and links there."""
    slots = slot_bases(payload)[payload["levels"] >= 1] + 1
    return int(slots[payload["degrees"][slots] > 0][0])


def base_only_node(payload) -> int:
    """A node that is on level 0 only and not in :func:`upper_slot`'s row."""
    row = payload["table"][upper_slot(payload)]
    nodes = np.flatnonzero(payload["levels"] == 0)
    return int(nodes[~np.isin(nodes, row)][0])


def rewired(payload, *, slot: int, column: int, node: int) -> np.ndarray:
    """``table`` with one cell overwritten (``column`` -1: the padding end
    of a row that is not full)."""
    assert 1 <= payload["degrees"][slot] < payload["table"].shape[1]
    table = payload["table"].copy()
    assert table[slot, column] != node
    table[slot, column] = node
    return table


def bumped_degree(payload, *, level: int, degree: int) -> np.ndarray:
    """``degrees`` with the first row of ``level`` claiming ``degree`` links."""
    degrees = payload["degrees"].copy()
    degrees[0 if level == 0 else upper_slot(payload)] = degree
    return degrees


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

    def test_the_loaded_graph_is_the_built_one(self, small_index):
        built = small_index.graph
        payload = small_index.to_arrays()
        loaded = HnswIndex.from_arrays(payload).graph
        slots = sum(built.levels) + len(built)
        assert payload["table"].shape == (slots, built.table.shape[1])
        for name, rows in (("table", slots), ("degrees", slots), ("base", len(built))):
            want, got = getattr(built, name)[:rows], getattr(loaded, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        # Adopted, not copied or converted.
        assert loaded.table is payload["table"]
        assert not np.shares_memory(payload["table"], built.table)

    @pytest.mark.parametrize("quantize", ["none", "int8", "pq"])
    def test_a_second_trip_writes_the_same_bytes(self, clustered_data, quantize):
        index = build_hnsw(
            clustered_data[:150],
            params=replace(FAST_HNSW, quantize=quantize, pq_subspaces=4),
        )
        second = HnswIndex.from_arrays(index.to_arrays()).to_arrays()
        assert_same_payload(index.to_arrays(), second)

    def test_member_count_does_not_depend_on_the_number_of_levels(
        self, clustered_data
    ):
        flat = build_hnsw(clustered_data[:2], params=FAST_HNSW)
        tall = build_hnsw(clustered_data[:400], params=replace(FAST_HNSW, M=2))
        assert tall.max_level > flat.max_level
        assert list(flat.to_arrays()) == list(tall.to_arrays())

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
        """The adopted table is exactly full, so the first add reallocates
        it -- geometrically, like any other growth."""
        index = build_hnsw(clustered_data[:50], params=FAST_HNSW)
        payload = index.to_arrays()
        restored = HnswIndex.from_arrays(payload)
        slots = len(payload["table"])
        assert restored.graph.capacity == slots
        restored.add(clustered_data[50:60])
        assert len(restored) == 60
        assert restored.graph.capacity == 2 * slots
        assert len(payload["table"]) == slots  # the payload was not grown into
        restored.graph.check_invariants(
            restored.params.effective_max_m,
            restored.params.effective_max_m0,
        )


    def test_restored_index_numbers_new_rows_on(self, small_index, clustered_data):
        """Ids run to 597 (3 * 199); an id-less add continues at 598."""
        restored = HnswIndex.from_arrays(small_index.to_arrays())
        restored.add(clustered_data[200:202])
        assert restored.external_ids[-2:].tolist() == [598, 599]

    @pytest.mark.parametrize("version", [1, 3, 0, "2"])
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

    def test_a_format_1_payload_is_refused_not_converted(self, small_index):
        """The per-level CSR members of format 1 have no reader left."""
        payload = small_index.to_arrays()
        count = int(payload["count"])
        for name in ("table", "degrees"):
            del payload[name]
        payload["format_version"] = np.asarray(1)
        payload["indptr_0"] = np.zeros(count + 1, dtype=np.int64)
        payload["indices_0"] = np.zeros(0, dtype=np.int64)
        with pytest.raises(
            SerializationError, match="format_version is 1; this build reads 2"
        ):
            HnswIndex.from_arrays(payload)

    @pytest.mark.parametrize(
        "kind, member, value, named",
        [("float", *row) for row in [
            # The ten rows format 1 had, ``indptr_0`` / ``indices_0`` now
            # ``table`` / ``degrees``.
            ("levels", None, "'levels'"),
            ("table", None, "'table'"),
            ("degrees", None, "'degrees'"),
            ("max_level", lambda p: p["max_level"] + 1, "max_level"),
            ("vectors", lambda p: p["vectors"][:-1], "'vectors'"),
            ("external_ids", lambda p: p["external_ids"][:-1], "'external_ids'"),
            ("levels", lambda p: p["levels"][:-1], "'levels'"),
            ("entry_point", lambda p: p["count"], "entry_point"),
            ("entry_point", lambda p: np.asarray(-1), "entry_point"),
            ("table", lambda p: rewired(p, slot=0, column=0, node=-1), "'table'"),
            (
                "table",
                lambda p: rewired(p, slot=0, column=0, node=int(p["count"])),
                "'table'.*outside",
            ),
            # What the CSR reader could not see or never checked.
            ("table", lambda p: p["table"][:, :-1], "'table'"),
            (
                "table",
                lambda p: np.pad(p["table"], ((0, 0), (0, 1))),
                "'table'",
            ),
            ("table", lambda p: p["table"].astype(np.int64), "'table' is int64"),
            ("table", lambda p: p["table"][:-1], "'table'"),
            ("degrees", lambda p: p["degrees"][:-1], "'degrees'"),
            ("degrees", lambda p: p["degrees"].astype(np.int64), "'degrees' is int64"),
            ("levels", lambda p: p["levels"].astype(np.int64), "'levels' is int64"),
            ("levels", lambda p: -p["levels"] - 1, "'levels'"),
            (
                "degrees",
                lambda p: bumped_degree(p, level=0, degree=p["table"].shape[1] + 1),
                "'degrees'.*level 0",
            ),
            (
                "degrees",
                lambda p: bumped_degree(
                    p, level=1, degree=FAST_HNSW.effective_max_m + 1
                ),
                "'degrees'.*level 1",
            ),
            (
                "table",
                lambda p: rewired(
                    p, slot=upper_slot(p), column=0, node=base_only_node(p)
                ),
                "'table'.*above its top level",
            ),
            (
                "table",
                lambda p: rewired(p, slot=0, column=-1, node=1),
                "'table'.*padding",
            ),
            ("table", lambda p: rewired(p, slot=0, column=0, node=0), "self-loop"),
            (
                "table",
                lambda p: rewired(p, slot=0, column=0, node=int(p["table"][0, 1])),
                "duplicate",
            ),
        ]]
        + [
            # Codec members: but for the row counts, none used to be a
            # SerializationError -- a code past the codebook searched another
            # subspace's table; the rest raised numpy or KeyErrors.
            ("int8", "codec_codes", lambda p: p["codec_codes"][:-1], "has .*199"),
            ("pq", "codec_codes", lambda p: p["codec_codes"][:-1], "has .*199"),
            ("pq", "codec_codes", lambda p: recoded(p, 300), "code 300"),
            ("pq", "codec_codes", lambda p: recoded(p, 60000), "code 60000"),
            ("pq", "codec_codes", lambda p: p["codec_codes"][:, :-1], "'codec_codes'"),
            (
                "pq",
                "codec_codebooks",
                lambda p: p["codec_codebooks"][0],
                "'codec_codebooks'",
            ),
            ("pq", "codec_pq_seed", None, "'codec_pq_seed'"),
            ("int8", "codec_scale", lambda p: p["codec_scale"][:-1], "'codec_scale'"),
            ("int8", "codec_codes", lambda p: p["codec_codes"][:, :-1], "'codec_codes'"),
        ],
    )
    def test_a_payload_that_cannot_search_does_not_load(
        self, indices, kind, member, value, named
    ):
        """One payload member dropped (``value`` None) or replaced: each
        is refused by name, and none gets as far as a numpy broadcast or
        index error at load or at the first search."""
        payload = indices[kind].to_arrays()
        if value is None:
            del payload[member]
        else:
            payload[member] = value(payload)
        with pytest.raises(SerializationError, match=named):
            HnswIndex.from_arrays(payload)

    @pytest.mark.parametrize(
        "ids", [lambda e: e - 5, lambda e: np.where(e == e[-1], e[0], e)]
    )
    def test_external_ids_add_would_refuse_do_not_load(self, small_index, ids):
        """Negative ids (``-1`` is the batch padding) and repeated ids
        (they collapse ``_id_to_row``) are refused as ``add()`` refuses
        them."""
        payload = small_index.to_arrays()
        payload["external_ids"] = ids(payload["external_ids"])
        with pytest.raises(SerializationError, match="'external_ids'"):
            HnswIndex.from_arrays(payload)

    def test_a_refused_payload_built_nothing(self, small_index, monkeypatch):
        """Every check runs before the scorer adopts a row."""
        from repro.distance.scorer import Scorer

        adopted = []
        monkeypatch.setattr(
            Scorer, "adopt_rows", lambda self, rows: adopted.append(len(rows))
        )
        payload = small_index.to_arrays()
        payload["table"] = rewired(payload, slot=0, column=-1, node=1)
        with pytest.raises(SerializationError):
            HnswIndex.from_arrays(payload)
        assert not adopted
        HnswIndex.from_arrays(small_index.to_arrays())
        assert adopted == [200]

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
    def test_save_load(self, small_index, tmp_path):
        path = str(tmp_path / "index.hnsw")
        small_index.save(path)
        assert_same_payload(small_index.to_arrays(), HnswIndex.load(path).to_arrays())

    def test_loaded_arrays_are_writeable(self, small_index):
        payload = container.unpack(hnsw_to_bytes(small_index))
        assert all(array.flags.writeable for array in payload.values())


class TestContainer:
    @settings(max_examples=60, deadline=None)
    @given(members=st.dictionaries(
        st.text(min_size=1, max_size=8), MEMBERS, max_size=5
    ))
    def test_dtype_shape_and_bytes_round_trip(self, members):
        back = container.unpack(container.pack(members))
        assert list(back) == list(members)
        for name, array in members.items():
            assert back[name].dtype == array.dtype
            assert back[name].shape == array.shape
            assert back[name].tobytes() == array.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(
        dtype=st.sampled_from(NUMERIC_DTYPES),
        rows=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_an_incompressible_member_is_stored_raw(self, dtype, rows, seed):
        """Random bytes deflate to more than they are: every plane is
        stored raw, and the file is the raw bytes plus header and table."""
        raw = np.random.default_rng(seed).bytes(rows * 3 * np.dtype(dtype).itemsize)
        array = np.frombuffer(raw, dtype).reshape(rows, 3)
        data = container.pack({"random": array})
        table = member_table(data)
        assert all(not deflated for _, deflated in table[0]["planes"])
        assert len(data) == 16 + len(encode_table(table)) + array.nbytes

    def test_a_flat_plane_deflates(self):
        """The high bytes of small int32 ids are all zero: those planes
        deflate, the noisy low plane does not."""
        ids = np.random.default_rng(0).integers(0, 256, 4000, dtype=np.int32)
        planes = member_table(container.pack({"ids": ids}))[0]["planes"]
        assert [deflated for _, deflated in planes] == [0, 1, 1, 1]


class TestUnreadableBytes:
    """Empty, torn and bit-flipped files are a typed error naming what was
    read -- never a ``zlib`` / ``json`` / numpy traceback."""

    @pytest.fixture(scope="class")
    def segment(self, small_index):
        return hnsw_to_bytes(small_index)

    @pytest.fixture(scope="class")
    def damaged(self, segment):
        flipped = bytearray(segment)
        flipped[len(segment) // 3] ^= 0x10
        return {
            "empty": b"",
            "half": segment[: len(segment) // 2],
            "no_tail": segment[:-10],
            "flipped": bytes(flipped),
            "not_a_segment": b"segment=0.hnsw\n" * 9,
        }

    @pytest.mark.parametrize(
        "kind", ["empty", "half", "no_tail", "flipped", "not_a_segment"]
    )
    def test_bytes_and_files_alike(self, damaged, tmp_path, kind):
        with pytest.raises(SerializationError, match="HNSW index .* is not a readable"):
            hnsw_from_bytes(damaged[kind])
        path = tmp_path / "segment.hnsw"
        path.write_bytes(damaged[kind])
        with pytest.raises(SerializationError, match="segment.hnsw"):
            HnswIndex.load(str(path))

    def test_every_cut_and_a_flip_in_every_64_bytes(self, segment):
        """The CRC covers every byte after the magic, so no byte is left
        that nothing reads: every cut and every flip is refused."""
        cuts = [segment[:cut] for cut in range(0, len(segment), 97)]
        flips = []
        for position in range(0, len(segment), 64):
            flipped = bytearray(segment)
            flipped[position] ^= 1 << (position % 8)
            flips.append(bytes(flipped))
        for data in cuts + flips:
            with pytest.raises(SerializationError):
                hnsw_from_bytes(data)

    def test_a_checked_but_malformed_table_is_refused(self, segment):
        """A table the CRC vouches for can still be nonsense (another
        writer's bug): each kind is refused, never a traceback."""
        table = member_table(segment)
        blobs = segment[16 + len(encode_table(table)) :]
        entry = table[-1]
        for bad in (
            {**entry, "dtype": "O"},
            {**entry, "dtype": "not a dtype"},
            {**entry, "shape": [-1]},
            {**entry, "planes": entry["planes"] * 2},
            {**entry, "planes": [[10**9, 0]] * len(entry["planes"])},
            {key: value for key, value in entry.items() if key != "shape"},
        ):
            data = with_table(segment, table[:-1] + [bad], blobs)
            with pytest.raises(SerializationError, match="bad member table"):
                container.unpack(data)
        trailing = with_table(segment, table, blobs + b"\0")
        with pytest.raises(SerializationError, match="1 bytes past the last"):
            container.unpack(trailing)

    def test_a_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(SerializationError, match="absent.hnsw"):
            HnswIndex.load(str(tmp_path / "absent.hnsw"))

    def test_save_and_load_take_a_binary_file_object(self, small_index, tmp_path):
        with open(tmp_path / "index.bin", "wb") as handle:
            small_index.save(handle)
        with open(tmp_path / "index.bin", "rb") as handle:
            assert len(HnswIndex.load(handle)) == len(small_index)


class TestByteRoundtrip:
    def test_cosine_index_roundtrip(self, clustered_data):
        index = build_hnsw(
            clustered_data[:100], metric="cosine", params=FAST_HNSW
        )
        restored = hnsw_from_bytes(hnsw_to_bytes(index))
        assert restored.metric_name == "cosine"
        assert_same_payload(index.to_arrays(), restored.to_arrays())

    def test_params_survive(self, clustered_data):
        params = HnswParams(M=5, ef_construction=31, ef_search=17, seed=3)
        index = build_hnsw(clustered_data[:40], params=params)
        restored = hnsw_from_bytes(hnsw_to_bytes(index))
        assert restored.params == params
