"""Tests for the sparklite cluster: execution, failures, checkpoints."""

import operator
from functools import partial

import pytest

from repro.errors import ClusterError, StageTimeoutError
from repro.sparklite.cluster import LocalCluster
from repro.storage.hdfs import LocalHdfs


def make_tasks(n):
    return [lambda value=i: value * 10 for i in range(n)]


class TestBasicExecution:
    def test_results_in_task_order(self):
        cluster = LocalCluster(num_executors=3)
        outcome = cluster.run_tasks(make_tasks(7), stage="simple")
        assert outcome.results == [0, 10, 20, 30, 40, 50, 60]

    def test_empty_task_list(self):
        cluster = LocalCluster()
        outcome = cluster.run_tasks([], stage="empty")
        assert outcome.results == []
        assert outcome.metrics.tasks == []

    def test_metrics_recorded(self):
        cluster = LocalCluster(num_executors=2)
        outcome = cluster.run_tasks(make_tasks(5), stage="metered")
        metrics = outcome.metrics
        assert metrics.stage == "metered"
        assert len(metrics.tasks) == 5
        assert metrics.wall_time > 0
        assert metrics.total_task_time >= 0
        assert metrics.failures == 0
        assert all(task.attempts == 1 for task in metrics.tasks)

    def test_stage_history_accumulates(self):
        cluster = LocalCluster()
        cluster.run_tasks(make_tasks(2), stage="first")
        cluster.run_tasks(make_tasks(2), stage="second")
        assert [stage.stage for stage in cluster.stages] == ["first", "second"]
        assert cluster.last_stage().stage == "second"

    def test_last_stage_requires_history(self):
        with pytest.raises(ClusterError):
            LocalCluster().last_stage()

    def test_processes_mode_same_results(self):
        inline = LocalCluster(num_executors=4, mode="inline")
        pooled = LocalCluster(num_executors=4, mode="processes")
        tasks = [partial(operator.mul, value, 10) for value in range(9)]
        assert (
            inline.run_tasks(tasks, stage="a").results
            == pooled.run_tasks(tasks, stage="b").results
        )

    def test_makespan_available_per_stage(self):
        cluster = LocalCluster(num_executors=2)
        outcome = cluster.run_tasks(make_tasks(6), stage="spanned")
        assert outcome.metrics.makespan(1) >= outcome.metrics.makespan(4)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_executors": 0},
            {"mode": "spark"},
            {"mode": "threads"},
            {"failure_rate": 1.0},
            {"failure_rate": -0.1},
            {"max_rounds": 0},
        ],
    )
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError):
            LocalCluster(**kwargs)

    def test_checkpoint_requires_fs(self):
        cluster = LocalCluster()
        with pytest.raises(ClusterError, match="filesystem"):
            cluster.run_tasks(make_tasks(2), stage="x", checkpoint=True)


class TestFailureInjection:
    def test_zero_failure_rate_single_round(self):
        cluster = LocalCluster(num_executors=2, failure_rate=0.0)
        outcome = cluster.run_tasks(make_tasks(8), stage="clean")
        assert outcome.metrics.rounds == 1

    def test_retries_eventually_succeed_at_low_rate(self):
        cluster = LocalCluster(
            num_executors=4, failure_rate=0.05, max_rounds=20, seed=3
        )
        outcome = cluster.run_tasks(make_tasks(20), stage="flaky")
        assert outcome.results == [i * 10 for i in range(20)]

    def test_deterministic_failures_with_seed(self):
        a = LocalCluster(num_executors=4, failure_rate=0.3, max_rounds=30, seed=9)
        b = LocalCluster(num_executors=4, failure_rate=0.3, max_rounds=30, seed=9)
        out_a = a.run_tasks(make_tasks(12), stage="det")
        out_b = b.run_tasks(make_tasks(12), stage="det")
        assert out_a.metrics.failures == out_b.metrics.failures
        assert out_a.metrics.rounds == out_b.metrics.rounds

    def test_cascading_failures_time_out_without_checkpoint(self):
        """Section 5.3.1: high failure rates + few retry rounds + no
        checkpointing -> the stage never stabilises."""
        cluster = LocalCluster(
            num_executors=4, failure_rate=0.6, max_rounds=3, seed=11
        )
        with pytest.raises(StageTimeoutError, match="checkpoint"):
            cluster.run_tasks(make_tasks(24), stage="doomed")

    def test_checkpointing_prevents_cascade(self, tmp_path):
        """Same failure stream, checkpointing on: progress is durable and
        the stage completes."""
        fs = LocalHdfs(tmp_path / "hdfs")
        cluster = LocalCluster(
            num_executors=4,
            failure_rate=0.6,
            max_rounds=30,
            seed=11,
            fs=fs,
        )
        outcome = cluster.run_tasks(
            make_tasks(24), stage="saved", checkpoint=True
        )
        assert outcome.results == [i * 10 for i in range(24)]
        assert outcome.metrics.failures > 0  # failures happened but were absorbed

    def test_checkpoint_temp_path_cleaned_after_stage(self, tmp_path):
        fs = LocalHdfs(tmp_path / "hdfs")
        cluster = LocalCluster(
            num_executors=2, failure_rate=0.2, max_rounds=20, seed=1, fs=fs
        )
        cluster.run_tasks(make_tasks(6), stage="tidy", checkpoint=True)
        assert fs.ls_recursive("_tmp") == []

    def test_attempts_counted(self):
        cluster = LocalCluster(
            num_executors=2, failure_rate=0.4, max_rounds=40, seed=5
        )
        outcome = cluster.run_tasks(make_tasks(10), stage="attempts")
        assert max(task.attempts for task in outcome.metrics.tasks) > 1


def square_task(value):
    """Module-level (picklable) task body for processes-mode tests."""
    return value * value


def make_picklable_tasks(n):
    from functools import partial

    return [partial(square_task, i) for i in range(n)]


class TestProcessesMode:
    def test_results_match_inline(self):
        inline = LocalCluster(num_executors=3, mode="inline")
        procs = LocalCluster(num_executors=3, mode="processes")
        tasks = make_picklable_tasks(9)
        assert (
            procs.run_tasks(tasks, stage="p").results
            == inline.run_tasks(tasks, stage="i").results
        )

    def test_failure_injection_parity_with_inline(self):
        """Same seed => same fates, retries, failure counts and results."""
        outcomes = {}
        for mode in ("inline", "processes"):
            cluster = LocalCluster(
                num_executors=4,
                mode=mode,
                failure_rate=0.3,
                max_rounds=40,
                seed=11,
            )
            outcomes[mode] = cluster.run_tasks(
                make_picklable_tasks(12), stage=mode
            )
        inline, procs = outcomes["inline"], outcomes["processes"]
        assert procs.results == inline.results
        assert procs.metrics.failures == inline.metrics.failures
        assert procs.metrics.rounds == inline.metrics.rounds
        assert [t.attempts for t in procs.metrics.tasks] == [
            t.attempts for t in inline.metrics.tasks
        ]

    def test_checkpointing_under_processes(self, tmp_path):
        fs = LocalHdfs(tmp_path / "hdfs")
        cluster = LocalCluster(
            num_executors=4,
            mode="processes",
            failure_rate=0.6,
            max_rounds=30,
            seed=11,
            fs=fs,
        )
        outcome = cluster.run_tasks(
            make_picklable_tasks(16), stage="saved", checkpoint=True
        )
        assert outcome.results == [i * i for i in range(16)]
        assert outcome.metrics.failures > 0
        assert fs.ls_recursive("_tmp") == []

    def test_cascade_times_out_like_inline(self):
        for mode in ("inline", "processes"):
            cluster = LocalCluster(
                num_executors=2,
                mode=mode,
                failure_rate=0.9,
                max_rounds=3,
                seed=0,
            )
            with pytest.raises(StageTimeoutError):
                cluster.run_tasks(make_picklable_tasks(8), stage="doomed")

    def test_single_task_runs_inline(self):
        # The pool is only spun up for len(pending) > 1; a single task
        # (even an unpicklable closure) executes in-process.
        cluster = LocalCluster(num_executors=2, mode="processes")
        outcome = cluster.run_tasks([lambda: 42], stage="one")
        assert outcome.results == [42]
