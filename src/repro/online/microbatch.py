"""Opportunistic micro-batching: the broker's cache misses, coalesced.

Under multi-client load, single-query requests arriving on many threads
would each pay a full shard fan-out.  The broker's micro-batcher instead
collects concurrently arriving requests into *micro-batches* and executes
them through the existing lockstep batch path, so concurrent singles get
batched QPS instead of queueing behind each other.

A batch flushes when it reaches ``max_batch`` rows or when its oldest
request has waited ``max_wait_ms`` -- whichever comes first.  The wait is
self-regulating: while one batch executes, the next one accumulates, so
under sustained load the oldest pending request has usually already aged
past ``max_wait_ms`` by the time the flusher is free and the flush is
immediate.  Under light load a lone request waits at most ``max_wait_ms``.

Requests are grouped by an *admission key* (:func:`admission_key`)
because only requests with identical search parameters can share a
lockstep batch.  Correctness rests on the batch kernels being
batch-composition invariant -- a row's result never depends on which
other rows share the batch -- which the ``micro`` cells of
``tests/test_path_matrix.py`` pin down.  This is the one coalescing
layer: a searcher searches each SEARCH it receives as it arrives.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Hashable
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.obs.clock import now
from repro.obs.metrics import Tally, get_registry

#: What a micro-batcher counts, by :class:`~repro.obs.metrics.Tally` name.
_COUNTERS = get_registry().counters(
    "lanns_microbatch",
    blocks_admitted="Query blocks admitted to a micro-batcher.",
    rows_admitted="Query rows admitted to a micro-batcher.",
    rows_executed="Query rows a micro-batcher's flushes executed.",
    flushes="Micro-batch flushes, labelled by reason (size/timeout/close).",
    inline_after_close="Blocks a closed micro-batcher ran on the caller's thread.",
)


class AdmissionKey(NamedTuple):
    """What must match for two requests to share one lockstep batch."""

    index_name: str
    top_k: int
    ef: int | None
    dim: int


def admission_key(
    index_name: str, top_k: int, ef: int | None, queries: np.ndarray
) -> AdmissionKey:
    """The admission key of one ``(B, d)`` block.

    The index, the requested ``top_k`` (hence the per-shard budget), the
    beam width, and the dimensionality -- so a malformed request cannot
    poison a well-formed one it happens to coalesce with.
    """
    return AdmissionKey(index_name, int(top_k), ef, int(queries.shape[1]))


#: ``execute(key, queries)`` -> a tuple of per-row arrays, each with one
#: entry per query row (e.g. ``(ids, dists)`` or, with the fan-out
#: annotation, ``(ids, dists, shards_answered, shards_routed)``).  The
#: batcher slices every element of the tuple back out per submitted
#: block, so the executor can grow its result without the admission
#: layer changing.
ExecuteFn = Callable[[Hashable, np.ndarray], tuple[np.ndarray, ...]]


@dataclass
class _Pending:
    """One admitted request: a (B, d) query block awaiting execution."""

    queries: np.ndarray
    future: Future
    enqueued_at: float = field(default_factory=now)


class MicroBatcher:
    """Collects concurrent query blocks into opportunistic micro-batches.

    Parameters
    ----------
    execute:
        ``execute(key, queries)`` running one coalesced ``(B, d)`` batch;
        called on the flusher thread (or inline after :meth:`close`).
    max_batch:
        Flush as soon as a group holds this many rows.
    max_wait_ms:
        Flush a group once its oldest request has waited this long, even
        if the batch is not full.
    on_queue_wait:
        Optional callback receiving each block's admission-to-flush wait
        in seconds, measured on :data:`repro.obs.clock.now` (the broker
        passes its stage clock's ``queue_wait`` window).

    Notes
    -----
    Blocks are never split: a multi-row request's block stays
    contiguous inside the coalesced batch (a block larger than
    ``max_batch`` simply flushes alone), which keeps result slicing
    trivial and preserves the caller's one-request-one-fan-out latency
    model.  :meth:`close` drains every in-flight request before
    returning, is idempotent, and later submissions fall back to direct
    inline execution -- so no caller can deadlock on a closed batcher.
    """

    def __init__(
        self,
        execute: ExecuteFn,
        *,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        on_queue_wait: Callable[[float], None] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self._execute = execute
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_ms) / 1e3
        self._on_queue_wait = on_queue_wait
        self._cond = threading.Condition()
        self._groups: dict[Hashable, deque[_Pending]] = {}
        self._stopped = False
        #: Admitted blocks / rows, executed rows, flushes by reason and
        #: blocks served inline after close.
        self.tally = Tally(_COUNTERS)
        #: Rows of the largest flush so far (a maximum, not a count).
        self.largest_batch = 0
        self._flusher = threading.Thread(
            target=self._run, name="broker-microbatch", daemon=True
        )
        self._flusher.start()

    # -- client side -----------------------------------------------------------------
    def submit(self, key: Hashable, queries: np.ndarray) -> Future:
        """Admit one ``(B, d)`` block; resolve to its ``(ids, dists)``.

        The returned future yields arrays covering exactly the submitted
        rows, in order, regardless of how the block was coalesced.
        """
        future: Future = Future()
        with self._cond:
            admitted = not self._stopped
            if admitted:
                pending = _Pending(queries=queries, future=future)
                self._groups.setdefault(key, deque()).append(pending)
                self._cond.notify_all()
        if admitted:
            self.tally.count("blocks_admitted")
            self.tally.count("rows_admitted", int(queries.shape[0]))
            return future
        self.tally.count("inline_after_close")
        # Closed: serve the caller inline rather than failing or hanging.
        try:
            future.set_result(self._execute(key, queries))
        except BaseException as exc:  # propagate to the caller, not the thread
            future.set_exception(exc)
        return future

    def close(self) -> None:
        """Drain pending requests, stop the flusher, and join it.

        Safe to call concurrently with in-flight :meth:`submit` calls
        (their futures complete -- drained by the flusher or served
        inline) and safe to call more than once.
        """
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        self._flusher.join()

    # -- flusher side ----------------------------------------------------------------
    def _run(self) -> None:
        try:
            while True:
                batch = self._next_batch()
                if batch is None:
                    return
                self._run_batch(*batch)
        finally:
            # Reached normally only after a drain; on an unexpected
            # flusher death, stop admitting (so submit() falls back to
            # inline execution instead of queueing forever) and fail
            # whatever is still queued.
            with self._cond:
                self._stopped = True
            self._fail_remaining()

    def _next_batch(
        self,
    ) -> tuple[Hashable, list[_Pending], str] | None:
        """Block until a group is ready to flush (or drained + stopped)."""
        with self._cond:
            while True:
                if self._stopped and not self._groups:
                    return None
                key, reason, timeout = self._select_locked()
                if key is not None:
                    return key, self._pop_locked(key), reason
                self._cond.wait(timeout)

    def _select_locked(
        self,
    ) -> tuple[Hashable | None, str | None, float | None]:
        """Pick a flush-ready group (with *why* it flushed: ``size`` --
        the batch filled, ``timeout`` -- its oldest request aged out,
        ``close`` -- the batcher is closing), else the wait until one
        ripens."""
        tick = now()
        ready: Hashable | None = None
        ready_reason: str | None = None
        ready_age = -1.0
        timeout: float | None = None
        for key, pending in self._groups.items():
            rows = sum(block.queries.shape[0] for block in pending)
            age = tick - pending[0].enqueued_at
            if rows >= self.max_batch:
                reason = "size"
            elif age >= self.max_wait_s:
                reason = "timeout"
            elif self._stopped:
                reason = "close"
            else:
                remaining = self.max_wait_s - age
                timeout = remaining if timeout is None else min(timeout, remaining)
                continue
            if age > ready_age:
                ready, ready_reason, ready_age = key, reason, age
        return ready, ready_reason, timeout

    def _pop_locked(self, key: Hashable) -> list[_Pending]:
        """Take whole blocks until the flush reaches ``max_batch`` rows."""
        pending = self._groups[key]
        taken: list[_Pending] = [pending.popleft()]
        rows = taken[0].queries.shape[0]
        while pending and rows + pending[0].queries.shape[0] <= self.max_batch:
            block = pending.popleft()
            rows += block.queries.shape[0]
            taken.append(block)
        if not pending:
            del self._groups[key]
        return taken

    def _run_batch(
        self, key: Hashable, blocks: list[_Pending], reason: str
    ) -> None:
        # Everything after popping the blocks runs under one try: once a
        # block leaves the queue, _fail_remaining can no longer see it,
        # so ANY failure here (even in stacking/slicing, not just in the
        # execute call) must reach the waiting futures, never the thread.
        try:
            flushed_at = now()
            if self._on_queue_wait is not None:
                for block in blocks:
                    self._on_queue_wait(flushed_at - block.enqueued_at)
            stacked = (
                blocks[0].queries
                if len(blocks) == 1
                else np.concatenate(
                    [block.queries for block in blocks], axis=0
                )
            )
            rows = int(stacked.shape[0])
            with self._cond:
                self.largest_batch = max(self.largest_batch, rows)
            self.tally.count("flushes", reason=reason)
            self.tally.count("rows_executed", rows)
            parts = self._execute(key, stacked)
            start = 0
            for block in blocks:
                stop = start + block.queries.shape[0]
                block.future.set_result(
                    tuple(part[start:stop] for part in parts)
                )
                start = stop
        except BaseException as exc:
            for block in blocks:
                if not block.future.done():
                    block.future.set_exception(exc)

    def _fail_remaining(self) -> None:
        """Backstop: never leave a caller blocked if the flusher dies."""
        with self._cond:
            groups, self._groups = self._groups, {}
        for pending in groups.values():
            for block in pending:
                if not block.future.done():
                    block.future.set_exception(
                        RuntimeError("micro-batch flusher exited unexpectedly")
                    )
