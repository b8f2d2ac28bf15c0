"""Calibrated pass-replay estimator.

Two ideas, both needed on a box whose speed changes under the benchmark:

*Calibration.*  Every measured request sits between samples of the
frozen kernel in :mod:`benchmarks.ledger.calibrate`.  A request's *local
level* is the median of the calibration samples nearest to it in time,
and every duration is reported in **reference time**
``measured * REFERENCE_S / local level``.

*Pass replay.*  The workload's request stream is fixed by the seed and
replayed for several identical passes.  Each request is scored by an
order statistic of its reference-time duration across passes, which
discards what calibration cannot see (interference that hits the
searcher processes and not the client, and the calibration samples' own
scatter).  Throughput is operations over the sum of the request scores;
the latency percentiles are taken over the request scores.

This module is pure numpy on recorded arrays so it can be tested against
synthetic series with injected slow episodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from benchmarks.ledger.calibrate import REFERENCE_S

#: Calibration samples that vote on a request's local level.
NEAREST = 8

#: Order statistics a workload may score its passes with.
STATISTICS = {"min": np.min, "median": np.median}


@dataclass
class Replay:
    """What one run recorded: ``R`` passes over the same ``N`` requests."""

    #: ``(R, N)`` wall-clock duration of each request, seconds.
    request_s: np.ndarray
    #: ``(R, N)`` ``perf_counter`` midpoint of each request.
    request_mid: np.ndarray
    #: ``(N,)`` operations (queries or vectors) each request completes.
    request_ops: np.ndarray


def local_levels(
    calib_times: np.ndarray, calib_durations: np.ndarray, when: np.ndarray
) -> np.ndarray:
    """Median of the :data:`NEAREST` calibration samples around each time."""
    calib_times = np.asarray(calib_times, dtype=np.float64)
    calib_durations = np.asarray(calib_durations, dtype=np.float64)
    if calib_times.size == 0:
        raise ValueError("no calibration samples recorded")
    keep = min(NEAREST, calib_times.size)
    flat = np.asarray(when, dtype=np.float64).ravel()
    # Samples are recorded in time order: the nearest ones sit in a
    # window around the insertion point.
    centre = np.searchsorted(calib_times, flat)
    offsets = np.arange(-keep, keep)
    window = np.clip(
        centre[:, np.newaxis] + offsets, 0, calib_times.size - 1
    )
    gaps = np.abs(calib_times[window] - flat[:, np.newaxis])
    # Clipping repeats edge samples; push the repeats out of the vote.
    repeat = np.zeros_like(gaps, dtype=bool)
    repeat[:, 1:] = window[:, 1:] == window[:, :-1]
    gaps[repeat] = np.inf
    nearest = np.take_along_axis(
        window, np.argpartition(gaps, keep - 1, axis=1)[:, :keep], axis=1
    )
    return np.median(calib_durations[nearest], axis=1).reshape(
        np.shape(when)
    )


def to_reference(
    durations: np.ndarray, levels: np.ndarray
) -> np.ndarray:
    """Wall-clock seconds -> seconds on the reference machine."""
    return np.asarray(durations) * (REFERENCE_S / np.asarray(levels))


def _timing(ops: float, request_s: np.ndarray) -> dict:
    """Throughput and latency percentiles from scored durations."""
    return {
        "throughput_per_s": float(ops / request_s.sum()),
        "latency_p50_ms": float(np.percentile(request_s, 50) * 1e3),
        "latency_p95_ms": float(np.percentile(request_s, 95) * 1e3),
    }


def score(
    replay: Replay,
    calib_times: np.ndarray,
    calib_durations: np.ndarray,
    statistic: str,
) -> dict[str, dict]:
    """Score one run three ways; ``"replay"`` is the gated estimate.

    ``"raw"`` pools every pass with no correction, ``"normalised"`` pools
    every pass in reference time, ``"replay"`` scores each request by
    ``statistic`` of its reference time across passes.  The first two
    exist so the noise study can show what each idea buys.
    """
    reduce = STATISTICS[statistic]
    passes = replay.request_s.shape[0]
    ops = float(replay.request_ops.sum())
    levels = local_levels(calib_times, calib_durations, replay.request_mid)
    reference = to_reference(replay.request_s, levels)
    return {
        "raw": _timing(ops * passes, replay.request_s.ravel()),
        "normalised": _timing(ops * passes, reference.ravel()),
        "replay": _timing(ops, reduce(reference, axis=0)),
    }


def score_repeats(
    durations: np.ndarray,
    when: np.ndarray,
    calib_times: np.ndarray,
    calib_durations: np.ndarray,
    statistic: str,
) -> tuple[float, float]:
    """``(reference, raw)`` seconds of one operation repeated several times.

    Used for ``setup_s`` and the layer probes: the same operation timed
    ``S`` times, each repeat normalised by its own local level.
    """
    reduce = STATISTICS[statistic]
    durations = np.asarray(durations, dtype=np.float64)
    levels = local_levels(calib_times, calib_durations, when)
    return (
        float(reduce(to_reference(durations, levels))),
        float(reduce(durations)),
    )
