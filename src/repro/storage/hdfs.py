"""A directory-backed stand-in for HDFS.

Gives the offline pipelines the same contract the paper relies on:

- namespaced paths (``jobs/my-job/part-00000``) under one root;
- *atomic* file writes (write temp + fsync + rename + fsync the
  directory), so a reader never observes a half-written file, even after
  a crash -- this is what makes executor-checkpointing safe in
  :mod:`repro.sparklite`;
- recursive listing and deletion for temp-path cleanup (Section 5.3.1:
  "As soon as our two-level merging finishes, this temporary directory is
  cleaned").
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
import uuid
from pathlib import Path

from repro.errors import StorageError


class LocalHdfs:
    """A tiny filesystem abstraction rooted at a local directory.

    Paths are POSIX-style strings relative to the root; escaping the root
    (``..``) is rejected.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).resolve()
        self.root.mkdir(parents=True, exist_ok=True)

    # -- path handling -------------------------------------------------------------
    def _resolve(self, path: str) -> Path:
        candidate = (self.root / path.lstrip("/")).resolve()
        if not candidate.is_relative_to(self.root):
            raise StorageError(f"path {path!r} escapes the filesystem root")
        return candidate

    # -- writes ----------------------------------------------------------------------
    def write_bytes(self, path: str, data: bytes) -> None:
        """Atomically and durably write ``data`` to ``path`` (parents
        auto-created): the temp file is synced before the rename, and the
        directory after it, so a crash leaves the old file or the new one."""
        target = self._resolve(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=target.parent, prefix=".tmp-", suffix=".part"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_name, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp_name)
            raise
        directory = os.open(target.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)

    def write_text(self, path: str, text: str) -> None:
        """Atomically write UTF-8 text."""
        self.write_bytes(path, text.encode())

    def write_json(self, path: str, payload) -> None:
        """Atomically write a JSON document."""
        self.write_text(path, json.dumps(payload, indent=2, sort_keys=True))

    # -- reads ------------------------------------------------------------------------
    def read_bytes(self, path: str) -> bytes:
        """Read a file's bytes; raises :class:`StorageError` if missing."""
        target = self._resolve(path)
        if not target.is_file():
            raise StorageError(f"no such file: {path!r}")
        return target.read_bytes()

    def read_text(self, path: str) -> str:
        """Read a file as UTF-8 text."""
        return self.read_bytes(path).decode("utf-8")

    # -- namespace operations ------------------------------------------------------------
    def exists(self, path: str) -> bool:
        """Whether a file or directory exists at ``path``."""
        return self._resolve(path).exists()

    def ls_recursive(self, path: str = "") -> list[str]:
        """Sorted relative paths of all *files* under ``path``."""
        target = self._resolve(path) if path else self.root
        if not target.exists():
            return []
        base = target if target.is_dir() else target.parent
        return sorted(
            str(found.relative_to(self.root))
            for found in base.rglob("*")
            if found.is_file()
        )

    def delete(self, path: str) -> bool:
        """Delete a file or directory tree; returns whether it existed."""
        target = self._resolve(path)
        if target == self.root:
            raise StorageError("refusing to delete the filesystem root")
        if target.is_dir():
            shutil.rmtree(target)
            return True
        if target.exists():
            target.unlink()
            return True
        return False

    # -- temp paths -------------------------------------------------------------------------
    def make_temp_path(self, prefix: str = "tmp") -> str:
        """A fresh path under ``_tmp/`` (not created yet)."""
        return f"_tmp/{prefix}-{uuid.uuid4().hex}"

    def __repr__(self) -> str:
        return f"LocalHdfs(root={str(self.root)!r})"
