"""Frozen calibration kernel: the ledger's unit of "machine speed".

The target box (2 vCPUs, KVM guest) drifts between speed levels over
minutes (the same code takes 10, 15 or 20 ms) and, on top of that,
wanders by +-15 % with a correlation time of only 50-100 ms.  A
wall-clock duration therefore only means something next to a measurement
of how fast the machine was *at that moment*.  This module is that
measurement: a fixed ~1 ms mix of the operations the system under test
is made of (fancy-index gather, matvec, a Python ``heapq`` loop), timed
between every two measured requests.  It is that short because the
noise is that fast: a sample taken 100 ms away says little about the
request being normalised (measured: 4 samples within +-8 ms halve the
per-request scatter, 64 samples within +-150 ms barely dent it).

It must never change and must never import anything from ``repro``:
every number in the ledger is expressed in units of it.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Reference duration of one kernel call.  A duration reported in
#: "reference time" is ``measured * REFERENCE_S / local_calibration``:
#: what it would have taken on a machine where the kernel takes exactly
#: this long.
REFERENCE_S = 0.001

_ROWS, _DIM, _ROUNDS, _GATHER, _TOP = 30_000, 64, 7, 1500, 64


class Calibrator:
    """Owns the kernel's private arrays and the samples taken so far."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20210816)
        self._data = rng.standard_normal((_ROWS, _DIM), dtype=np.float32)
        self._query = rng.standard_normal(_DIM, dtype=np.float32)
        self._ids = rng.integers(0, _ROWS, size=(_ROUNDS, _GATHER))
        #: ``perf_counter`` midpoint of each sample.
        self.times: list[float] = []
        #: Duration of each sample, seconds.
        self.durations: list[float] = []

    def kernel(self) -> float:
        """One frozen unit of work; returns a checksum so nothing is elided."""
        data, query = self._data, self._query
        total = 0.0
        for ids in self._ids:
            scores = (data[ids] @ query).tolist()
            heap = scores[:_TOP]
            heapq.heapify(heap)
            for score in scores[_TOP:]:
                if score > heap[0]:
                    heapq.heapreplace(heap, score)
            total += heap[0]
        return total

    def sample(self) -> float:
        """Time one kernel call and record it; returns the duration."""
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.times.append(0.5 * (start + end))
        self.durations.append(end - start)
        return end - start

    def burst(self, count: int) -> None:
        """``count`` samples back to back."""
        for _ in range(count):
            self.sample()

    def level_ms(self) -> float:
        """Median calibration level so far (ms): how fast this box is."""
        return float(np.median(self.durations)) * 1e3
