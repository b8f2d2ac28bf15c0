"""Spawn and manage real searcher *subprocesses* over loopback.

The remote-serving benchmark and the failure-injection tests need actual
OS processes (so a kill is a kill, not a mock): this module wraps
``python -m repro.cli serve-searcher`` with readiness hand-shaking --
each server binds port 0 and prints a ``SEARCHER-READY shard=S port=P``
line that :func:`launch_searcher` blocks on -- and best-effort teardown.

Everything a child writes (stdout and stderr, merged) is persisted to a
per-searcher log file -- by default under ``$TMPDIR/repro-searcher-logs``
-- so a shard that dies mid-benchmark leaves its traceback somewhere
findable, and launch failures can point at the log instead of discarding
the child's last words.
"""

from __future__ import annotations

import contextlib
import os
import selectors
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.net.server import ServerOptions

#: Seconds a SIGTERMed searcher gets to exit before it is SIGKILLed.
_TERMINATE_GRACE_S = 5.0


def _src_path() -> str:
    """The ``src`` directory containing the ``repro`` package."""
    import repro

    return str(Path(repro.__file__).resolve().parent.parent)


def _default_log_dir() -> Path:
    """Where searcher logs land when the caller does not pick a spot."""
    return Path(tempfile.gettempdir()) / "repro-searcher-logs"


@dataclass
class SearcherProcess:
    """One spawned searcher: the OS process plus its serving address."""

    process: subprocess.Popen
    shard_id: int
    host: str
    port: int
    log_path: Path | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL the searcher (failure injection: no graceful anything)."""
        if self.alive():
            self.process.kill()
        self.process.wait(timeout=30)

    def terminate(self) -> None:
        """Polite stop: SIGTERM, then SIGKILL after ``_TERMINATE_GRACE_S``."""
        if not self.alive():
            self.process.wait(timeout=30)
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=_TERMINATE_GRACE_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)


def launch_searcher(
    shard_id: int,
    *,
    root: str | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_timeout_s: float = 120.0,
    command: list[str] | None = None,
    log_dir: str | Path | None = None,
    options: ServerOptions | None = None,
    **fields,
) -> SearcherProcess:
    """Spawn one ``serve-searcher`` subprocess and wait until it listens.

    The child inherits the current interpreter and gets this package's
    ``src`` directory prepended to ``PYTHONPATH``, so it works from a
    source checkout without installation.

    The child's merged stdout/stderr is persisted to
    ``<log_dir>/searcher-shard<S>-pid<P>.log`` (``log_dir`` defaults to
    ``repro-searcher-logs`` under the system temp directory; the pid
    suffix keeps replicas of one shard apart).  Launch failures name the
    log file, which holds whatever the child printed before dying.

    The readiness wait reads the child's pipe **non-blocking** against
    the absolute ``ready_timeout_s`` deadline (``os.set_blocking`` +
    :mod:`selectors`).  A blocking ``readline`` here would let a child
    that is alive but wedged -- or that simply stops printing -- stall
    the launcher indefinitely, because the deadline was only checked
    between lines.  On expiry the child is SIGKILLed and reaped, then
    :class:`TimeoutError` raises.

    ``options`` and / or its fields as keywords are the child's
    :class:`~repro.net.server.ServerOptions`: the argv carries one flag
    per field that differs from its default, so a bare launch spawns
    the bare command.  ``command`` overrides the spawned argv entirely
    (readiness-failure tests).
    """
    # Imported here, not at module level: the server module pulls in the
    # online package, which imports the service, which imports this
    # module's parse_fleet_spec -- a cycle at import time.
    from repro.net.server import ServerOptions

    options = replace(options or ServerOptions(), **fields)
    if command is None:
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve-searcher",
            "--shard-id",
            str(shard_id),
            "--host",
            host,
            "--port",
            str(port),
        ]
        if root is not None:
            command += ["--root", str(root)]
        command += options.argv()
    env = dict(os.environ)
    src = _src_path()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    # Binary pipe: non-blocking reads compose badly with the text-mode
    # buffering layer (``read`` may raise instead of returning None).
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
    )
    log_root = Path(log_dir) if log_dir is not None else _default_log_dir()
    log_root.mkdir(parents=True, exist_ok=True)
    log_path = log_root / f"searcher-shard{shard_id}-pid{process.pid}.log"
    log_file = open(log_path, "wb")
    try:
        port = _await_ready(
            process, shard_id, ready_timeout_s, log_path, log_file
        )
    except BaseException:
        if process.poll() is None:
            process.kill()
        # Always reap -- no zombie launchers -- but never let a child
        # that survives SIGKILL (uninterruptible I/O) replace the real
        # readiness failure with a TimeoutExpired.
        with contextlib.suppress(subprocess.TimeoutExpired):
            process.wait(timeout=30)
        # The child is dead: salvage whatever it printed after the last
        # readiness read (the traceback, usually) into the log.
        with contextlib.suppress(OSError, ValueError):
            while True:
                tail = process.stdout.read(65536)
                if not tail:
                    break
                log_file.write(tail)
        with contextlib.suppress(OSError, ValueError):
            log_file.close()
        raise
    _drain_output(process, log_file)
    return SearcherProcess(
        process=process,
        shard_id=shard_id,
        host=host,
        port=port,
        log_path=log_path,
    )


def _await_ready(
    process: subprocess.Popen,
    shard_id: int,
    ready_timeout_s: float,
    log_path: Path,
    log_file,
) -> int:
    """Wait for the ``SEARCHER-READY`` line; returns the announced port.

    Every chunk read while waiting is teed into ``log_file``, so the
    child's boot output survives a failed launch.  Raises
    :class:`TimeoutError` when the absolute deadline passes with the
    child still silent (hung, or looping without announcing) and
    :class:`RuntimeError` when the child exits or announces the wrong
    shard -- both name ``log_path``.  The caller kills/reaps on any
    raise.
    """
    from repro.net.server import parse_ready_line  # lazy: see launch_searcher

    assert process.stdout is not None
    deadline = time.monotonic() + ready_timeout_s
    os.set_blocking(process.stdout.fileno(), False)
    buffer = b""
    eof = False
    with selectors.DefaultSelector() as selector:
        selector.register(process.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"searcher shard {shard_id} not ready within "
                    f"{ready_timeout_s}s (searcher log: {log_path})"
                )
            # Bounded select even at EOF/exit races: poll() below makes
            # progress, and the deadline above always terminates.
            if not eof and not selector.select(timeout=min(remaining, 0.2)):
                continue
            chunk = process.stdout.read(65536) if not eof else b""
            if chunk:
                log_file.write(chunk)
                log_file.flush()
                buffer += chunk
                while b"\n" in buffer:
                    raw, _, buffer = buffer.partition(b"\n")
                    parsed = parse_ready_line(
                        raw.decode("utf-8", errors="replace")
                    )
                    if parsed is None:
                        continue
                    ready_shard, ready_port = parsed
                    if ready_shard != shard_id:
                        raise RuntimeError(
                            f"searcher announced shard {ready_shard}, "
                            f"expected {shard_id} "
                            f"(searcher log: {log_path})"
                        )
                    os.set_blocking(process.stdout.fileno(), True)
                    return ready_port
            elif chunk == b"":
                # EOF: the child closed its end.  If it also exited,
                # report that; if it lives on with a closed stdout it
                # can never announce readiness, so only the deadline
                # remains -- stop selecting on a dead pipe meanwhile.
                eof = True
                if process.poll() is not None:
                    raise RuntimeError(
                        f"searcher shard {shard_id} exited with code "
                        f"{process.returncode} before becoming ready "
                        f"(searcher log: {log_path})"
                    )
                time.sleep(0.05)
            # chunk is None: spurious wakeup on a non-blocking fd.


def _drain_output(process: subprocess.Popen, log_file) -> None:
    """Keep reading the child's merged stdout/stderr into its log file.

    Without a reader, a long-lived searcher that logs more than the OS
    pipe buffer (~64 KiB) would eventually block inside ``print``/
    logging and stop answering RPCs -- looking exactly like a dead
    shard.  A daemon thread per child keeps the pipe empty, persisting
    every line (flushed per line, so a crashed shard's log is current)
    and closing the log at EOF.
    """

    def drain() -> None:
        assert process.stdout is not None
        try:
            for line in process.stdout:
                log_file.write(line)
                log_file.flush()
        finally:
            with contextlib.suppress(OSError, ValueError):
                log_file.close()

    threading.Thread(target=drain, daemon=True).start()


def launch_fleet(num_shards: int, **launch) -> list[SearcherProcess]:
    """One searcher subprocess per shard, in shard order.

    :func:`launch_replicated_fleet` with groups of one, flattened; the
    keywords are its own.
    """
    return [
        group[0] for group in launch_replicated_fleet(num_shards, 1, **launch)
    ]


def shutdown_fleet(fleet: list[SearcherProcess]) -> None:
    """Best-effort stop of every fleet member (tolerates already-dead)."""
    for searcher in fleet:
        try:
            searcher.terminate()
        except (OSError, subprocess.SubprocessError):
            # Already-dead child (or one that ignored SIGKILL past the
            # wait timeout): nothing more a best-effort stop can do.
            pass


def fleet_addresses(fleet: list[SearcherProcess]) -> list[str]:
    """``host:port`` per fleet member, in shard order."""
    return [searcher.address for searcher in fleet]


def parse_fleet_spec(spec) -> list[list[str]]:
    """Normalise a searcher fleet spec into per-shard replica groups.

    Accepted shapes (shard order throughout):

    - ``"a:1,b:2"`` -- the legacy flat form: one searcher per shard;
    - ``"a:1,a:2;b:1,b:2"`` -- ``;`` separates shard groups, ``,``
      separates the interchangeable replicas inside one group;
    - ``["a:1", "b:2"]`` -- one searcher per shard;
    - ``[["a:1", "a:2"], ["b:1"]]`` -- explicit replica groups.

    Empty chunks (stray separators) are dropped; an explicitly empty
    group raises -- a shard served by nobody is a wiring bug, not a
    degraded fleet.
    """
    if isinstance(spec, str):
        if ";" in spec:
            groups = [
                [part.strip() for part in chunk.split(",") if part.strip()]
                for chunk in spec.split(";")
            ]
            return [group for group in groups if group]
        return [[part.strip()] for part in spec.split(",") if part.strip()]
    groups = []
    for entry in spec:
        if isinstance(entry, str):
            groups.append([entry])
        else:
            group = [str(address) for address in entry]
            if not group:
                raise ValueError("empty replica group in fleet spec")
            groups.append(group)
    return groups


def launch_replicated_fleet(
    num_shards: int,
    replicas: int,
    *,
    root: str | None = None,
    host: str = "127.0.0.1",
    ready_timeout_s: float = 120.0,
    chaos_shard: int | None = None,
    log_dir: str | Path | None = None,
    options: ServerOptions | None = None,
    **fields,
) -> list[list[SearcherProcess]]:
    """Spawn ``replicas`` searcher subprocesses per shard position.

    Every member of group ``s`` announces shard ``s`` -- they are
    interchangeable servers of the same shard, which is what the
    broker's replica groups expect.  Every member starts with the same
    ``options`` / ``fields`` (see :func:`launch_searcher`), except that
    a ``chaos_shard`` leaves the fault plan to that group alone (the
    slow-shard hedging benchmark's setup); ``None`` keeps it on every
    member.  Tears the whole fleet down on any launch failure.
    """
    from repro.net.server import ServerOptions  # lazy: see launch_searcher

    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    options = replace(options or ServerOptions(), **fields)
    groups: list[list[SearcherProcess]] = []
    try:
        for shard_id in range(num_shards):
            member = options
            if chaos_shard not in (None, shard_id):
                member = replace(options, chaos=None)
            # Listed before it fills: a replica that fails to launch must
            # not leak the ones of its group that are already running.
            group: list[SearcherProcess] = []
            groups.append(group)
            for _replica in range(replicas):
                group.append(
                    launch_searcher(
                        shard_id,
                        root=root,
                        host=host,
                        ready_timeout_s=ready_timeout_s,
                        log_dir=log_dir,
                        options=member,
                    )
                )
    except BaseException:
        shutdown_replicated_fleet(groups)
        raise
    return groups


def shutdown_replicated_fleet(groups: list[list[SearcherProcess]]) -> None:
    """Best-effort stop of every replica of every group."""
    for group in groups:
        shutdown_fleet(group)


def replicated_fleet_addresses(
    groups: list[list[SearcherProcess]],
) -> list[list[str]]:
    """Per-group ``host:port`` lists, in shard order (a fleet spec)."""
    return [[member.address for member in group] for group in groups]
