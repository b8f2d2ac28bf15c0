"""Tests of the ledger's own machinery.

Not collected by the tier-1 run (``testpaths`` stays ``tests``); run
explicitly::

    PYTHONPATH=src python -m pytest -q benchmarks/ledger/test_ledger.py
"""

from __future__ import annotations

import ast
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.ledger import estimator, tracing
from benchmarks.ledger.calibrate import REFERENCE_S
from benchmarks.ledger.workloads import (
    SPECS,
    make_corpus,
    make_queries,
    zipf_ranks,
)

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
DECLARED = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- estimator -------------------------------------------------------------------
def _speed(when: np.ndarray) -> np.ndarray:
    """Machine slowness over time: 1.5x and 2x episodes of 1-6 s."""
    slow = np.ones_like(when)
    for start, length, factor in (
        (2.0, 3.0, 1.5), (7.0, 1.0, 2.0), (11.0, 6.0, 1.5), (19.0, 2.5, 2.0),
    ):
        slow[(when >= start) & (when < start + length)] = factor
    return slow


def _synthetic_run(passes: int = 5, requests: int = 300):
    """A replay whose true per-request cost is known exactly."""
    rng = np.random.default_rng(5)
    truth = rng.uniform(0.002, 0.012, size=requests)
    clock = 0.0
    calib_t, calib_d = [], []
    request_s = np.zeros((passes, requests))
    request_mid = np.zeros((passes, requests))

    def calibrate() -> None:
        nonlocal clock
        took = REFERENCE_S * float(_speed(np.asarray([clock]))[0])
        took *= 1.0 + 0.01 * rng.random()
        calib_t.append(clock + took / 2)
        calib_d.append(took)
        clock += took

    for _ in range(estimator.NEAREST):
        calibrate()
    for run in range(passes):
        for position in range(requests):
            slow = float(_speed(np.asarray([clock]))[0])
            # One-sided interference on top of the machine's speed.
            measured = truth[position] * slow * (1.0 + rng.exponential(0.03))
            request_s[run, position] = measured
            request_mid[run, position] = clock + measured / 2
            clock += measured
            calibrate()
    replay = estimator.Replay(
        request_s=request_s,
        request_mid=request_mid,
        request_ops=np.ones(requests),
    )
    return replay, np.asarray(calib_t), np.asarray(calib_d), truth


def test_estimator_recovers_series_with_slow_episodes():
    replay, calib_t, calib_d, truth = _synthetic_run()
    scored = estimator.score(replay, calib_t, calib_d, "min")
    true_throughput = truth.size / truth.sum()
    true_p50 = np.percentile(truth, 50) * 1e3
    true_p95 = np.percentile(truth, 95) * 1e3
    got = scored["replay"]
    assert got["throughput_per_s"] == pytest.approx(true_throughput, rel=0.03)
    assert got["latency_p50_ms"] == pytest.approx(true_p50, rel=0.03)
    assert got["latency_p95_ms"] == pytest.approx(true_p95, rel=0.03)
    # The uncorrected estimate is what the episodes ruin.
    raw_error = abs(scored["raw"]["throughput_per_s"] / true_throughput - 1)
    assert raw_error > 0.10


def test_median_statistic_and_repeat_scoring():
    replay, calib_t, calib_d, truth = _synthetic_run()
    scored = estimator.score(replay, calib_t, calib_d, "median")
    assert scored["replay"]["throughput_per_s"] == pytest.approx(
        truth.size / truth.sum(), rel=0.06
    )
    when = np.asarray([1.0, 2.5, 4.0, 7.2])
    slow = _speed(when)
    reference, raw = estimator.score_repeats(
        0.5 * slow, when, calib_t, calib_d, "median"
    )
    assert reference == pytest.approx(0.5, rel=0.03)
    assert raw > 0.6


def test_local_level_uses_nearest_samples():
    times = np.arange(40, dtype=np.float64)
    levels = np.where(times < 20, 0.010, 0.020)
    got = estimator.local_levels(times, levels, np.asarray([0.0, 5.2, 33.0, 39.5]))
    assert got.tolist() == [0.010, 0.010, 0.020, 0.020]
    # Brute force agrees everywhere, edges included.
    rng = np.random.default_rng(3)
    noisy = rng.uniform(0.01, 0.02, size=40)
    when = rng.uniform(-2, 42, size=50)
    want = [
        np.median(noisy[np.argsort(np.abs(times - t), kind="stable")[: estimator.NEAREST]])
        for t in when
    ]
    assert np.allclose(estimator.local_levels(times, noisy, when), want)


# -- seeded inputs ----------------------------------------------------------------
def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


#: Digests of (corpus, queries, ranks) at seed 1: a change here silently
#: changes every workload, so it must be deliberate.
PINNED = ("4ef590761522301c", "ce06c0078de6194e", "17bfca64e07ee903")


def test_inputs_are_a_pure_function_of_the_seed():
    corpus = make_corpus(1, 200, 16)
    queries = make_queries(1, corpus, 20)
    ranks = zipf_ranks(1, 300, 50, 0.6)
    assert _digest(corpus) == _digest(make_corpus(1, 200, 16))
    assert _digest(queries) == _digest(make_queries(1, corpus, 20))
    assert _digest(ranks) == _digest(zipf_ranks(1, 300, 50, 0.6))
    assert _digest(corpus) != _digest(make_corpus(2, 200, 16))
    assert _digest(ranks) != _digest(zipf_ranks(2, 300, 50, 0.6))
    assert (_digest(corpus), _digest(queries), _digest(ranks)) == PINNED


def test_zipf_stream_has_exact_frequencies():
    first, second = zipf_ranks(1, 800, 500, 0.6), zipf_ranks(9, 800, 500, 0.6)
    assert first.size == second.size == 800
    assert np.array_equal(np.bincount(first), np.bincount(second))
    assert np.bincount(first)[0] == np.bincount(first).max()


# -- isolation and span arithmetic ---------------------------------------------------
def test_calibration_kernel_imports_nothing_from_repro():
    tree = ast.parse((LEDGER_DIR / "calibrate.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "heapq", "time", "numpy"}


def test_self_time_subtracts_the_union_of_children():
    parent = ["online.broker", 0.0, 10.0, None, 1]
    spans = [
        parent,
        ["net.transport", 1.0, 4.0, parent, 1],
        ["net.transport", 3.0, 6.0, parent, 1],
    ]
    selves = tracing.self_times(spans)[1]
    assert selves["online.broker"] == pytest.approx(5.0)
    assert selves["net.transport"] == pytest.approx(6.0)
    assert tracing.durations(spans, "net.transport")[1] == pytest.approx(5.0)


def test_tracer_wraps_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = tracing.Tracer()
    original = Layer.outer
    tracer.wrap(Layer, "outer", "a.outer")
    tracer.wrap(Layer, "inner", "b.inner")
    assert Layer().outer() == 2 and not tracer.spans
    tracer.enabled = True
    assert Layer().outer() == 2
    tracer.enabled = False
    outer, inner = tracer.spans
    assert inner[tracing.PARENT] is outer and outer[tracing.PARENT] is None
    tracer.uninstall()
    assert Layer.outer is original


# -- the command, end to end ------------------------------------------------------------
def _run(*arguments: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), *arguments],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _check(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        got = result["metrics"][entry["name"]]
        assert got["unit"] == entry["unit"]
        assert np.isfinite(got["value"])


def test_smoke_runs_every_workload_under_a_minute():
    assert sorted(SPECS) == sorted(w["name"] for w in DECLARED["workloads"])
    started = time.perf_counter()
    for name in SPECS:
        result = _run("--workload", name, "--seed", "3", "--smoke")
        _check(result, DECLARED["end_to_end"])
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert time.perf_counter() - started < 60


@pytest.mark.parametrize("name", sorted(SPECS))
def test_traced_smoke_reports_every_layer_metric(name):
    result = _run("--workload", name, "--seed", "3", "--smoke", "--trace", "1")
    _check(result, DECLARED["per_layer"])
