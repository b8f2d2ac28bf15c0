"""The sparklite cluster: executor pools, failure injection, checkpoints.

Execution model
---------------
A *stage* is a list of zero-argument task callables run together.  Tasks
are distributed round-robin over ``num_executors`` virtual executors and
executed inline (deterministic, default) or on a process pool
(``mode="processes"`` -- real GIL-free parallelism for Python-heavy tasks
such as per-partition HNSW builds; tasks and results must be picklable).

Failure injection (Section 5.3.1)
---------------------------------
With ``failure_rate > 0``, each task attempt may kill its virtual
executor.  Without checkpointing, an executor death also *loses the
results of every task that executor completed in the current round* --
exactly the Spark behaviour the paper describes: "While waiting for these
recomputed results, some other executors may die, and so on.  This leads
to cascading failures".  When all retry rounds are exhausted the stage
raises :class:`~repro.errors.StageTimeoutError`.

With ``checkpoint=True`` (and an attached filesystem), every completed
task's output is immediately persisted, so executor deaths can only delay
-- never undo -- progress, and the stage completes whenever each task
succeeds at least once.  This reproduces the paper's fix of writing
partial results to a temporary HDFS path after each phase.
"""

from __future__ import annotations

import pickle
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.errors import ClusterError, StageTimeoutError
from repro.sparklite.metrics import StageMetrics, TaskRecord
from repro.storage.hdfs import LocalHdfs

#: Execution modes.  ``"processes"`` escapes the GIL (one OS process per
#: worker) and is what makes multi-partition HNSW builds run in parallel;
#: the build hot loop is Python-bound, so a thread pool would cost more
#: than it gives.  Tasks and their results must be picklable under
#: ``"processes"`` (module-level callables / ``functools.partial``, not
#: closures).
EXECUTION_MODES = ("inline", "processes")


def _timed_call(fn: Callable[[], object]) -> tuple[object, float]:
    """Run one task, timing it where it runs.

    Module-level so the process pool can pickle it; the in-worker
    duration keeps per-task timings comparable across modes
    (parent-side timing would fold in queueing and IPC).
    """
    begin = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - begin


class ExecutorDeathError(ClusterError):
    """Raised inside a task attempt when its executor is killed."""


@dataclass
class StageResult:
    """Results plus metrics for one completed stage."""

    results: list
    metrics: StageMetrics


@dataclass
class _TaskState:
    index: int
    fn: Callable[[], object]
    attempts: int = 0
    done: bool = False
    checkpointed: bool = False
    result: object = None
    duration: float = 0.0
    executor: int = -1


class LocalCluster:
    """A small deterministic stand-in for a Spark cluster.

    Parameters
    ----------
    num_executors:
        Virtual executor count; tasks are assigned round-robin.  Also the
        default executor count for simulated makespans.
    mode:
        ``"inline"`` (sequential, deterministic timing -- default) or
        ``"processes"`` (process pool; escapes the GIL -- tasks and
        results must be picklable).  Failure injection draws the same
        deterministic fate stream in both modes and settles it in task
        order before any task runs, so results (including
        retry/checkpoint behavior) are mode-independent for
        deterministic tasks.
    failure_rate:
        Probability that a task attempt kills its executor.
    max_rounds:
        Retry rounds per stage before declaring a time-out.
    seed:
        Seed of the failure-injection stream.
    fs:
        Optional :class:`~repro.storage.hdfs.LocalHdfs` used for
        checkpointing.
    """

    def __init__(
        self,
        num_executors: int = 2,
        *,
        mode: str = "inline",
        failure_rate: float = 0.0,
        max_rounds: int = 4,
        seed: int | None = 0,
        fs: LocalHdfs | None = None,
    ) -> None:
        if num_executors < 1:
            raise ValueError(f"num_executors must be >= 1, got {num_executors}")
        if mode not in EXECUTION_MODES:
            raise ValueError(
                f"mode must be one of {EXECUTION_MODES}, got {mode!r}"
            )
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError(
                f"failure_rate must be in [0, 1), got {failure_rate}"
            )
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self.num_executors = int(num_executors)
        self.mode = mode
        self.failure_rate = float(failure_rate)
        self.max_rounds = int(max_rounds)
        self.fs = fs
        self._rng = np.random.default_rng(seed)
        #: StageMetrics of every stage run, in order.
        self.stages: list[StageMetrics] = []

    # -- public API -----------------------------------------------------------------
    def run_tasks(
        self,
        tasks: Sequence[Callable[[], object]],
        *,
        stage: str = "stage",
        checkpoint: bool = False,
    ) -> StageResult:
        """Run a task set to completion; returns results in task order.

        See the module docstring for the failure/checkpoint semantics.
        """
        states = [_TaskState(index, fn) for index, fn in enumerate(tasks)]
        metrics = StageMetrics(stage=stage)
        checkpoint_path = None
        if checkpoint:
            if self.fs is None:
                raise ClusterError(
                    "checkpointing requires a cluster filesystem (fs=...)"
                )
            checkpoint_path = self.fs.make_temp_path(f"checkpoint-{stage}")
        started = time.perf_counter()

        # One process pool per stage (not per retry round): worker
        # startup is paid once however many failure-injection rounds
        # the stage takes.  Created lazily by the first round that has
        # more than one runnable task.
        pool: ProcessPoolExecutor | None = None
        try:
            rounds = 0
            while any(not state.done for state in states):
                rounds += 1
                if rounds > self.max_rounds:
                    raise StageTimeoutError(
                        f"stage {stage!r} did not finish within "
                        f"{self.max_rounds} rounds ({metrics.failures} "
                        "executor failures); enable checkpointing or lower "
                        "failure_rate"
                    )
                pending = [state for state in states if not state.done]
                if (
                    self.mode == "processes"
                    and pool is None
                    and len(pending) > 1
                ):
                    pool = ProcessPoolExecutor(
                        max_workers=min(self.num_executors, len(pending))
                    )
                dead_executors = self._run_round(pending, metrics, pool)
                if checkpoint_path is not None:
                    # "As soon as an executor finishes processing its task
                    # ... it can write to the HDFS": persist before any
                    # invalidation can touch the result.
                    for state in states:
                        if state.done and not state.checkpointed:
                            self.fs.write_bytes(
                                f"{checkpoint_path}/"
                                f"task-{state.index:05d}.pkl",
                                pickle.dumps(state.result, protocol=4),
                            )
                            state.checkpointed = True
                if dead_executors:
                    # Spark semantics: results held only by a dead executor
                    # are lost and must be recomputed.  Checkpointed results
                    # are durable on the filesystem and survive.
                    for state in states:
                        if (
                            state.done
                            and not state.checkpointed
                            and state.executor in dead_executors
                        ):
                            state.done = False
                            state.result = None
                            metrics.failures += 1
        finally:
            if pool is not None:
                pool.shutdown(wait=True)

        metrics.wall_time = time.perf_counter() - started
        metrics.rounds = rounds
        metrics.tasks = [
            TaskRecord(
                task_id=state.index,
                duration=state.duration,
                executor=state.executor,
                attempts=state.attempts,
            )
            for state in states
        ]
        self.stages.append(metrics)
        if checkpoint_path is not None:
            # Final results are safely in memory; clean the temp path the
            # way the paper cleans its temporary HDFS directory.
            self.fs.delete(checkpoint_path)
        return StageResult(
            results=[state.result for state in states], metrics=metrics
        )

    # -- internals ---------------------------------------------------------------------
    def _run_round(
        self,
        pending: list[_TaskState],
        metrics: StageMetrics,
        pool: ProcessPoolExecutor | None = None,
    ) -> set[int]:
        """Attempt every pending task once; returns executors that died.

        ``pool`` is the stage's shared process pool (``"processes"``
        mode with more than one pending task; ``None`` otherwise).
        """
        # Draw failure fates up-front and settle them in task order: a
        # task whose executor was killed earlier this round fails too.
        # Only surviving attempts run, inline or on the pool.
        fates = (
            self._rng.random(len(pending)) < self.failure_rate
            if self.failure_rate > 0.0
            else np.zeros(len(pending), dtype=bool)
        )
        dead: set[int] = set()
        runnable: list[_TaskState] = []
        for position, state in enumerate(pending):
            executor = state.index % self.num_executors
            state.attempts += 1
            if executor in dead or fates[position]:
                dead.add(executor)
                metrics.failures += 1
                continue
            runnable.append(state)
        if pool is not None:
            futures = [pool.submit(_timed_call, state.fn) for state in runnable]
            outcomes = (future.result() for future in futures)
        else:
            outcomes = (_timed_call(state.fn) for state in runnable)
        for state, (result, duration) in zip(runnable, outcomes):
            state.result, state.duration = result, duration
            state.executor = state.index % self.num_executors
            state.done = True
        return dead

    def last_stage(self) -> StageMetrics:
        """Metrics of the most recent stage (raises if none ran)."""
        if not self.stages:
            raise ClusterError("no stages have run on this cluster")
        return self.stages[-1]

    def __repr__(self) -> str:
        return (
            f"LocalCluster(num_executors={self.num_executors}, "
            f"mode={self.mode!r}, failure_rate={self.failure_rate})"
        )
