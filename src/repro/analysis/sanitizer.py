"""Runtime concurrency sanitizer.

``install()`` monkeypatches the ``threading.Lock`` / ``RLock`` /
``Condition`` factories so every lock created afterwards is a tracked
wrapper, keyed by its creation site (``file:line``).  Two properties
are checked continuously, per process:

- **lock-order inversions**: a global acquisition-order graph gains an
  edge ``A -> B`` whenever a thread acquires ``B`` while holding
  ``A``; a new edge that closes a cycle is a potential deadlock, even
  if the schedule that would actually deadlock never ran.
- **hold-while-blocking**: blocking primitives (``time.sleep``,
  ``concurrent.futures.Future.result``, ``socket.create_connection``,
  blocking ``socket.socket`` methods and a ``select.poll`` wait)
  called while the thread holds any tracked lock — the classic way one slow peer stalls every
  thread queued on that lock.

Violations are *recorded*, not raised, so a full test run reports all
of them; the tier-1 conftest installs the sanitizer when
``REPRO_SANITIZE=1`` and asserts ``violations()`` is empty at session
end.  Locks are identified by creation site rather than instance so
the order graph generalises across e.g. per-client lock instances;
edges between two locks from the *same* site are ignored (same-site
instances are siblings, not an ordering).
"""

from __future__ import annotations

import concurrent.futures
import select
import socket
import threading
import time
import traceback
from dataclasses import dataclass, field

_real_lock = threading.Lock
_real_rlock = threading.RLock
_real_condition = threading.Condition
_real_sleep = time.sleep
_real_future_result = concurrent.futures.Future.result
_real_create_connection = socket.create_connection
_real_poll = select.poll


@dataclass
class Violation:
    kind: str  # "lock-order" | "blocking-call"
    message: str
    stack: str = ""

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass
class _State:
    installed: bool = False
    # site -> set of sites acquired while holding it
    order_graph: dict[str, set[str]] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)
    # bookkeeping lock: a *raw* primitive so instrumentation never
    # recurses into itself
    guard: object = field(default_factory=_real_lock)
    seen_edges: set[tuple[str, str]] = field(default_factory=set)
    seen_blocking: set[tuple[str, str]] = field(default_factory=set)


_state = _State()
_tls = threading.local()


def _held() -> list:
    stack = getattr(_tls, "held", None)
    if stack is None:
        stack = []
        _tls.held = stack
    return stack


def _creation_site() -> str:
    # First frame outside this module (exact path match: a *caller*
    # file merely named ...sanitizer.py must still count as the site).
    for frame in reversed(traceback.extract_stack()):
        if frame.filename == __file__:
            continue
        return f"{frame.filename}:{frame.lineno}"
    return "<unknown>"


def _record_violation(kind: str, message: str) -> None:
    stack = "".join(traceback.format_stack(limit=12))
    with _state.guard:
        _state.violations.append(Violation(kind, message, stack))


def _note_acquired(lock: "_SanitizedLock | _SanitizedRLock") -> None:
    held = _held()
    if held:
        with _state.guard:
            for prior in held:
                if prior._site == lock._site:
                    continue
                edge = (prior._site, lock._site)
                if edge in _state.seen_edges:
                    continue
                _state.seen_edges.add(edge)
                _state.order_graph.setdefault(prior._site, set()).add(
                    lock._site
                )
                if _path_exists(lock._site, prior._site):
                    _state.violations.append(
                        Violation(
                            "lock-order",
                            f"lock-order inversion: acquiring lock from "
                            f"{lock._site} while holding lock from "
                            f"{prior._site}, but the opposite order was "
                            "also observed — potential deadlock cycle",
                            "".join(traceback.format_stack(limit=12)),
                        )
                    )
    held.append(lock)


def _path_exists(src: str, dst: str) -> bool:
    """DFS reachability in the order graph (guard held by caller)."""
    if src == dst:
        return True
    stack, seen = [src], {src}
    while stack:
        node = stack.pop()
        for nxt in _state.order_graph.get(node, ()):
            if nxt == dst:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _note_released(lock: object) -> None:
    held = _held()
    for i in range(len(held) - 1, -1, -1):
        if held[i] is lock:
            del held[i]
            return


def _check_blocking(what: str) -> None:
    held = _held()
    if not held:
        return
    sites = ", ".join(lock._site for lock in held)
    key = (what, sites)
    with _state.guard:
        if key in _state.seen_blocking:
            return
        _state.seen_blocking.add(key)
    _record_violation(
        "blocking-call",
        f"{what} called while holding lock(s) created at {sites}",
    )


class _SanitizedLock:
    """Tracked non-reentrant lock (wraps a raw ``threading.Lock``)."""

    def __init__(self) -> None:
        self._inner = _real_lock()
        self._site = _creation_site()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            _note_acquired(self)
        return got

    def release(self) -> None:
        _note_released(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def _at_fork_reinit(self) -> None:
        self._inner = _real_lock()

    def __repr__(self) -> str:
        return f"<SanitizedLock site={self._site} {self._inner!r}>"


class _SanitizedRLock:
    """Tracked reentrant lock.

    Exposes ``_is_owned`` / ``_acquire_restore`` / ``_release_save`` so
    ``threading.Condition`` built on top of it keeps full RLock
    semantics (recursive hold released wholesale across ``wait()``),
    with the tracking adjusted symmetrically.
    """

    def __init__(self) -> None:
        self._inner = _real_rlock()
        self._site = _creation_site()
        self._depth = 0  # touched only by the owning thread

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._depth += 1
            if self._depth == 1:
                _note_acquired(self)
        return got

    def release(self) -> None:
        if self._depth == 1:
            _note_released(self)
        self._depth -= 1
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    # Condition integration -------------------------------------------------
    def _is_owned(self) -> bool:
        return self._inner._is_owned()

    def _release_save(self):
        depth = self._depth
        self._depth = 0
        _note_released(self)
        return (self._inner._release_save(), depth)

    def _acquire_restore(self, state) -> None:
        inner_state, depth = state
        self._inner._acquire_restore(inner_state)
        self._depth = depth
        _note_acquired(self)

    def _at_fork_reinit(self) -> None:
        self._inner = _real_rlock()
        self._depth = 0

    def __repr__(self) -> str:
        return f"<SanitizedRLock site={self._site} {self._inner!r}>"


def _sanitized_condition(lock=None):
    """``threading.Condition`` over a tracked lock.

    The real Condition drives the wrapper's acquire/release (and, for
    RLocks, ``_release_save``/``_acquire_restore``), so held-tracking
    stays exact across ``wait()`` — the lock leaves the held set while
    the thread sleeps on the condition and re-enters it on wakeup.
    """
    if lock is None:
        lock = _SanitizedRLock()
    return _real_condition(lock)


def _patched_sleep(seconds: float) -> None:
    _check_blocking(f"time.sleep({seconds!r})")
    _real_sleep(seconds)


def _patched_future_result(self, timeout=None):
    _check_blocking("concurrent.futures.Future.result()")
    return _real_future_result(self, timeout)


def _patched_create_connection(*args, **kwargs):
    _check_blocking("socket.create_connection()")
    return _real_create_connection(*args, **kwargs)


class _SanitizedPoll:
    """``select.poll()`` whose wait is a blocking call -- unless its
    timeout is 0.  The remote fan-out and the client park the thread
    here, never in a socket call: their sockets are non-blocking."""

    __slots__ = ("_poll",)

    def __init__(self) -> None:
        self._poll = _real_poll()

    def __getattr__(self, name: str):
        return getattr(self._poll, name)

    def poll(self, timeout=None):
        if timeout != 0:
            _check_blocking("select.poll.poll()")
        return self._poll.poll(timeout)


_SOCKET_METHODS = ("recv", "recv_into", "recvfrom", "sendall", "accept")
_real_socket_methods = {
    name: getattr(socket.socket, name) for name in _SOCKET_METHODS
}


def _make_socket_patch(name: str, original):
    def patched(self, *args, **kwargs):
        # Non-blocking sockets never park the thread.
        if self.gettimeout() != 0:
            _check_blocking(f"socket.socket.{name}()")
        return original(self, *args, **kwargs)

    patched.__name__ = name
    return patched


def install() -> None:
    """Instrument lock factories and blocking primitives (idempotent)."""
    if _state.installed:
        return
    _state.installed = True
    threading.Lock = _SanitizedLock
    threading.RLock = _SanitizedRLock
    threading.Condition = _sanitized_condition
    time.sleep = _patched_sleep
    concurrent.futures.Future.result = _patched_future_result
    socket.create_connection = _patched_create_connection
    select.poll = _SanitizedPoll
    for name in _SOCKET_METHODS:
        setattr(
            socket.socket,
            name,
            _make_socket_patch(name, _real_socket_methods[name]),
        )


def uninstall() -> None:
    """Restore the original primitives.

    Wrappers created while installed keep working (they delegate to
    real locks) — only *new* locks stop being tracked.
    """
    if not _state.installed:
        return
    _state.installed = False
    threading.Lock = _real_lock
    threading.RLock = _real_rlock
    threading.Condition = _real_condition
    time.sleep = _real_sleep
    concurrent.futures.Future.result = _real_future_result
    socket.create_connection = _real_create_connection
    select.poll = _real_poll
    for name in _SOCKET_METHODS:
        setattr(socket.socket, name, _real_socket_methods[name])


def reset() -> None:
    """Clear the order graph and recorded violations."""
    with _state.guard:
        _state.order_graph.clear()
        _state.violations.clear()
        _state.seen_edges.clear()
        _state.seen_blocking.clear()


def violations() -> list[Violation]:
    with _state.guard:
        return list(_state.violations)


def format_violations() -> str:
    lines = []
    for i, v in enumerate(violations(), start=1):
        lines.append(f"--- sanitizer violation {i}: {v}")
        if v.stack:
            lines.append(v.stack.rstrip())
    return "\n".join(lines)
