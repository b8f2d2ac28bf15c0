"""Tests for the LocalHdfs filesystem abstraction."""

import json
import os
import stat
from pathlib import Path

import pytest

from repro.errors import StorageError


class TestReadWrite:
    def test_bytes_roundtrip(self, fs):
        fs.write_bytes("a/b/c.bin", b"\x00\x01\x02")
        assert fs.read_bytes("a/b/c.bin") == b"\x00\x01\x02"

    def test_text_roundtrip(self, fs):
        fs.write_text("notes.txt", "héllo wörld")
        assert fs.read_text("notes.txt") == "héllo wörld"

    def test_json_roundtrip(self, fs):
        payload = {"k": [1, 2, 3], "nested": {"x": "y"}}
        fs.write_json("doc.json", payload)
        assert json.loads(fs.read_text("doc.json")) == payload

    def test_overwrite(self, fs):
        fs.write_text("file", "one")
        fs.write_text("file", "two")
        assert fs.read_text("file") == "two"

    def test_missing_file(self, fs):
        with pytest.raises(StorageError, match="no such file"):
            fs.read_bytes("missing")

    def test_a_write_is_synced_then_renamed_then_its_directory_synced(
        self, fs, monkeypatch
    ):
        """The data reaches the disk before the rename publishes it, and
        the rename reaches the disk before the write returns."""
        calls = []
        fsync, replace = os.fsync, os.replace

        def recorded_fsync(descriptor):
            mode = os.fstat(descriptor).st_mode
            calls.append(("fsync", "dir" if stat.S_ISDIR(mode) else "file"))
            fsync(descriptor)

        def recorded_replace(source, target):
            calls.append(("replace", Path(source).read_bytes()))
            replace(source, target)

        monkeypatch.setattr(os, "fsync", recorded_fsync)
        monkeypatch.setattr(os, "replace", recorded_replace)
        fs.write_bytes("a/b/c.bin", b"payload")
        assert calls == [("fsync", "file"), ("replace", b"payload"), ("fsync", "dir")]
        assert fs.read_bytes("a/b/c.bin") == b"payload"

    def test_no_temp_files_left_behind(self, fs):
        """Atomic writes must not leak .part files."""
        for index in range(5):
            fs.write_bytes(f"dir/file{index}", b"data")
        leftovers = [
            name for name in fs.ls_recursive("dir") if ".part" in name
        ]
        assert leftovers == []


class TestNamespace:
    def test_exists(self, fs):
        assert not fs.exists("thing")
        fs.write_text("thing", "x")
        assert fs.exists("thing")

    def test_ls_recursive(self, fs):
        fs.write_text("tree/y/2", "b")
        fs.write_text("tree/x/1", "a")
        assert fs.ls_recursive("tree") == ["tree/x/1", "tree/y/2"]
        assert fs.ls_recursive("nowhere") == []

    def test_delete_file_and_tree(self, fs):
        fs.write_text("gone/file", "x")
        assert fs.delete("gone") is True
        assert not fs.exists("gone")
        assert fs.delete("gone") is False

    def test_delete_root_refused(self, fs):
        with pytest.raises(StorageError, match="root"):
            fs.delete("")

    def test_path_escape_rejected(self, fs):
        with pytest.raises(StorageError, match="escapes"):
            fs.write_text("../outside", "x")
        with pytest.raises(StorageError, match="escapes"):
            fs.read_bytes("a/../../outside")


class TestTempPaths:
    def test_make_temp_path_unique(self, fs):
        assert fs.make_temp_path() != fs.make_temp_path()
