"""One ledger run: prepare, set up S times, replay passes, check, report.

Hygiene that every timed section shares: BLAS pinned to one thread
before numpy is imported (searcher subprocesses inherit it), one load
generator thread, garbage collection frozen and disabled, and
``time.perf_counter`` as the only clock.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from benchmarks.ledger import estimator
from benchmarks.ledger.calibrate import Calibrator
from benchmarks.ledger.workloads import MIN_RECALL, make_workload

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
RESULTS_DIR = LEDGER_DIR / "results"

#: Deploy cycles per run; ``setup_s`` is an order statistic over them.
SETUP_CYCLES = 10
#: Share of the stream served before measuring, so lazily built state
#: exists.
WARM_SHARE = 0.1
#: Fewest passes a run may score, however slow the box is.
MIN_PASSES = 3

#: BLAS thread pins (set in the package's ``__init__``), reported with
#: every run.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Gated metrics, in the order ``BENCHMARK.json`` declares them.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "recall_at_10": "ratio",
    "peak_rss_mb": "MiB",
    "index_bytes_per_vector": "B",
}


def pin_to_one_cpu() -> int:
    """Confine this process -- and the searcher processes it will launch,
    which inherit the mask -- to one CPU; returns it.

    With a closed loop and one client at most one of them has work at any
    moment, so one CPU loses nothing.  What it buys: the calibration kernel
    then runs on the very CPU the searchers run on.  Spread over both
    vCPUs, a remote run slowed by up to 40 % whenever the hypervisor was
    short of a second CPU, and the client's calibration never saw it.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@contextlib.contextmanager
def quiet_gc():
    """No collector pauses inside timed sections."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


@contextlib.contextmanager
def scratch_dir():
    """A private directory under ``results/`` (inside the checkout)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def time_setups(workload, calibrator: Calibrator, cycles: int) -> tuple[float, float]:
    """``setup_s`` as ``(reference, raw)``: median over ``cycles`` set-ups."""
    durations, when = [], []
    calibrator.burst(estimator.NEAREST)
    for _ in range(cycles):
        tick = time.perf_counter()
        durations.append(workload.setup_once())
        when.append(0.5 * (tick + time.perf_counter()))
        calibrator.burst(estimator.NEAREST)
    return estimator.score_repeats(
        durations, when, calibrator.times, calibrator.durations, "median"
    )


def replay_passes(
    workload, calibrator: Calibrator, seconds: float, min_passes: int
) -> estimator.Replay:
    """Replay the workload's requests, whole passes, for ``seconds``.

    Calibration samples sit between every two requests.  The correctness
    gate of each pass runs between passes, untimed.
    """
    burst = workload.spec.calibration_burst
    count = workload.num_requests
    request_s: list[list[float]] = []
    request_mid: list[list[float]] = []
    calibrator.burst(estimator.NEAREST)
    started = time.perf_counter()
    while True:
        workload.begin_pass()
        durations, mids, responses = [], [], []
        for position in range(count):
            tick = time.perf_counter()
            response = workload.run_request(position)
            tock = time.perf_counter()
            calibrator.burst(burst)
            durations.append(tock - tick)
            mids.append(0.5 * (tick + tock))
            responses.append(response)
        workload.end_pass(responses)
        request_s.append(durations)
        request_mid.append(mids)
        elapsed = time.perf_counter() - started
        # Stop at the pass boundary nearest the budget.
        if len(request_s) >= min_passes and (
            elapsed + 0.5 * elapsed / len(request_s) >= seconds
        ):
            break
    return estimator.Replay(
        request_s=np.asarray(request_s),
        request_mid=np.asarray(request_mid),
        request_ops=np.asarray(workload.request_ops),
    )


def environment(seed: int, workload, passes: int) -> dict:
    """Everything needed to read the numbers next to another run's."""
    blas = {}
    with contextlib.suppress(KeyError, TypeError):  # numpy's layout varies
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    commit = None
    if (REPO_ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_PINS},
        "git_commit": commit,
        "seed": seed,
        "passes": passes,
        "spec": vars(workload.spec),
    }


def warm_up(workload) -> None:
    """Serve the head of the stream once, unmeasured."""
    for position in range(max(int(workload.num_requests * WARM_SHARE), 1)):
        workload.run_request(position)


def run_ledger(
    name: str, seed: int, seconds: float, *, smoke: bool = False
) -> dict:
    """One untraced run of one workload; returns the full report."""
    calibrator = Calibrator()
    pin_to_one_cpu()
    with scratch_dir() as workdir:
        workload = make_workload(name, seed, workdir, smoke=smoke)
        try:
            raw = workload.prepare()
            with quiet_gc():
                setup_ref, setup_raw = time_setups(
                    workload, calibrator, 2 if smoke else SETUP_CYCLES
                )
                workload.open()
                warm_up(workload)
                replay = replay_passes(
                    workload,
                    calibrator,
                    seconds,
                    2 if smoke else MIN_PASSES,
                )
            workload.parity_probe()
            recall = workload.recall()
            rss = workload.peak_rss_mib()
            bytes_per_vector = workload.index_bytes_per_vector()
        finally:
            workload.close()
    scored = estimator.score(
        replay, calibrator.times, calibrator.durations, workload.spec.statistic
    )
    metrics = {
        "setup_s": setup_ref,
        **scored["replay"],
        "recall_at_10": recall,
        "peak_rss_mb": rss,
        "index_bytes_per_vector": bytes_per_vector,
    }
    raw.update({"raw.setup_s": setup_raw})
    raw.update({f"raw.{key}": value for key, value in scored["raw"].items()})
    raw.update(
        {f"normalised.{key}": value for key, value in scored["normalised"].items()}
    )
    passes = int(replay.request_s.shape[0])
    if recall < MIN_RECALL:
        workload.notes.append(f"recall {recall:.4f} below floor {MIN_RECALL}")
    return {
        "workload": name,
        "correct": workload.failed == 0 and recall >= MIN_RECALL,
        "attempted": int(workload.attempted),
        "failed": int(workload.failed),
        "metrics": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in END_TO_END.items()
        },
        "ungated": raw,
        "counts": {
            "passes": passes,
            "requests_per_pass": int(replay.request_s.shape[1]),
            "operations_per_pass": int(replay.request_ops.sum()),
            "calibration_samples": len(calibrator.durations),
            "cache": workload.counters,
        },
        "estimator": {
            "statistic": workload.spec.statistic,
            "setup_statistic": "median",
            "reference_ms": estimator.REFERENCE_S * 1e3,
            "trace.calib_ms": calibrator.level_ms(),
        },
        "notes": workload.notes,
        "environment": environment(seed, workload, passes),
        # Enough to re-score the run with another estimator offline.
        "recorded": {
            "request_s": replay.request_s.tolist(),
            "request_mid": replay.request_mid.tolist(),
            "request_ops": replay.request_ops.tolist(),
            "calib_times": calibrator.times,
            "calib_durations": calibrator.durations,
        },
    }


def print_report(report: dict) -> None:
    """Every metric by name with its unit, then the driver's JSON line."""
    print(f"# workload {report['workload']}")
    for key, entry in report["metrics"].items():
        print(f"{key} {entry['value']!r} {entry['unit']}")
    for key, value in report["ungated"].items():
        print(f"{key} {value!r}")
    for section in ("counts", "estimator", "environment"):
        if section in report:
            print(f"# {section} {json.dumps(report[section], default=str)}")
    for note in report["notes"]:
        print(f"# note {note}")
    print(
        json.dumps(
            {
                key: report[key]
                for key in ("correct", "attempted", "failed", "metrics")
            }
        )
    )
