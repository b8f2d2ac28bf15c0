"""What ``src/`` itself measures with: the qps definitions behind
``OnlineService.measure_qps`` (:mod:`repro.eval.timing`) and the two
serving load tests behind ``repro.cli bench`` (:mod:`repro.eval.serving`).
The benchmark harness lives with the benchmarks (``benchmarks/harness.py``)."""

from repro.eval.serving import concurrent_serving_throughput, serving_throughput
from repro.eval.timing import measure_batch_qps, measure_qps

__all__ = [
    "measure_qps",
    "measure_batch_qps",
    "serving_throughput",
    "concurrent_serving_throughput",
]
