"""``LoopThread``: one daemon thread running an asyncio event loop.

The serving tier's public API is synchronous (``Broker.execute`` callers,
the micro-batch flusher and the control plane are plain threads) while
every RPC is a coroutine of
:class:`~repro.net.client.AsyncRemoteSearcherClient`.  A ``LoopThread``
is the bridge: :meth:`LoopThread.submit` schedules a coroutine on the
loop from any thread and hands back a ``concurrent.futures.Future``.

Two kinds exist in a process: each loop-venue
:class:`~repro.online.broker.Broker` owns a private ``broker-async-loop``
and closes it with itself; every blocking
:class:`~repro.net.client.RemoteSearcherClient` shares the one
``client-async-loop`` that :func:`client_loop` starts on first use.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading

__all__ = ["LoopThread", "client_loop"]


class LoopThread:
    """One background thread running an asyncio loop until :meth:`close`.

    One thread total, regardless of how many coroutines are in flight.
    """

    def __init__(self, name: str) -> None:
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._lock = threading.Lock()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._thread.start()
        self._started.wait()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(self._started.set)
        try:
            self.loop.run_forever()
        finally:
            # Cancel whatever close() interrupted, then let the
            # cancellations unwind so client connections get discarded.
            pending = asyncio.all_tasks(self.loop)
            for task in pending:
                task.cancel()
            if pending:
                self.loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self.loop.close()

    def submit(self, coro):
        """Schedule ``coro`` on the loop; returns a concurrent Future.

        Raises ``RuntimeError`` after :meth:`close` began.  The lock
        orders submission against shutdown: a submit that wins the lock
        queues its task-creation callback *before* close() queues
        ``loop.stop`` (``call_soon_threadsafe`` is FIFO), so the task
        exists by the time the loop stops and the shutdown sweep
        resolves its future with a cancellation -- never a silent
        forever-pending future.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{self._thread.name} is closed")
            return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def close(self, timeout: float = 30.0) -> None:
        with self._lock:
            self._closed = True
        with contextlib.suppress(RuntimeError):
            self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout)
        if self._thread.is_alive():
            # A silent return here would leak a live loop thread still
            # running RPCs against an owner the caller believes is gone.
            raise TimeoutError(
                f"{self._thread.name} thread still alive after {timeout}s "
                "(an in-flight RPC is wedged past every deadline)"
            )


_client_loop: LoopThread | None = None
_client_loop_lock = threading.Lock()


def client_loop() -> LoopThread:
    """The process-wide loop every blocking client submits to.

    Started on the first call, never at import, so a process that only
    serves in-process shards runs no such thread; a daemon that is never
    closed, because clients come and go for the life of the process.
    """
    global _client_loop
    with _client_loop_lock:
        if _client_loop is None:
            _client_loop = LoopThread("client-async-loop")
        return _client_loop
