"""The process's one event loop, and the one way to block on it.

The serving tier's public API is synchronous (``Broker.execute``
callers, the micro-batch flusher and the control plane are plain
threads) while every RPC is a coroutine of
:class:`~repro.net.client.AsyncRemoteSearcherClient`.  Every loop-venue
:class:`~repro.online.broker.Broker` fan-out and every blocking
:class:`~repro.net.client.RemoteSearcherClient` call hands its
coroutine to :func:`run`, which runs it on the one loop of the process
(:func:`process_loop`) and blocks the calling thread for the result.

The loop's daemon thread, ``process-async-loop``, starts on first use,
never at import, so a process that only serves in-process shards runs
none; it is never stopped, because brokers and clients come and go for
the life of the process.  A forked child inherits the loop but not its
thread: it starts its own on first use (see :func:`_forget_in_child`).
"""

from __future__ import annotations

import asyncio
import os
import threading

__all__ = ["THREAD_NAME", "on_process_loop", "process_loop", "run"]

THREAD_NAME = "process-async-loop"

_loop: asyncio.AbstractEventLoop | None = None
_lock = threading.Lock()
#: Loops a forked child inherited from its parents; see _forget_in_child.
_inherited: list[asyncio.AbstractEventLoop] = []


def process_loop() -> asyncio.AbstractEventLoop:
    """The process's event loop, started with its thread on first call."""
    global _loop
    with _lock:
        if _loop is None:
            loop = asyncio.new_event_loop()
            threading.Thread(
                target=loop.run_forever, name=THREAD_NAME, daemon=True
            ).start()
            _loop = loop
        return _loop


def on_process_loop() -> bool:
    """Whether the calling coroutine runs on the process loop."""
    return asyncio.get_running_loop() is _loop


def run(coro):
    """Run ``coro`` on the process loop and block for its result.

    Refuses with ``RuntimeError`` (closing ``coro`` unstarted) when the
    calling thread runs an event loop: blocking it would stall every
    task of that loop, and deadlock outright on the process loop itself.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run_coroutine_threadsafe(coro, process_loop()).result()
    name = coro.__qualname__
    coro.close()
    raise RuntimeError(
        f"blocking on {name}() from a running event loop would stall "
        f"it; await {name}() in a coroutine, or block from a plain "
        "thread (asyncio.to_thread)"
    )


def _forget_in_child() -> None:
    """Fork hook: the parent's loop has no thread in the child.

    It is kept, never closed or collected: its selector, self-pipe and
    the sockets registered with it are shared with the parent, and
    closing them here would unregister them from under the parent's
    loop.  The child starts a fresh loop on first use.
    """
    global _loop, _lock
    if _loop is not None:
        _inherited.append(_loop)
    _loop = None
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_in_child)
