"""Evaluation: timing, table formatting, and the shared experiment harness
behind every benchmark in ``benchmarks/``."""

from repro.eval.timing import (
    Timer,
    measure_concurrent_qps,
    measure_latency,
    measure_qps,
)
from repro.eval.tables import format_table, write_result_table
from repro.eval.harness import (
    SegmentedExperiment,
    build_partitioned,
    concurrent_serving_throughput,
    evaluate_recall,
    query_experiment,
    swap_segmenter,
)

__all__ = [
    "Timer",
    "measure_qps",
    "measure_concurrent_qps",
    "measure_latency",
    "concurrent_serving_throughput",
    "format_table",
    "write_result_table",
    "SegmentedExperiment",
    "build_partitioned",
    "evaluate_recall",
    "query_experiment",
    "swap_segmenter",
]
