"""sparklite: a miniature Spark-like execution engine (Section 5 substrate).

The paper runs LANNS on Apache Spark; offline here, we reproduce the
pieces LANNS actually uses:

- :class:`~repro.sparklite.cluster.LocalCluster` -- an executor pool that
  runs task sets, measures per-task durations, injects executor failures,
  and optionally checkpoints completed task outputs to
  :class:`~repro.storage.hdfs.LocalHdfs` (Section 5.3.1's defence against
  cascading "time-out" errors).
- :mod:`~repro.sparklite.scheduler` -- LPT simulated makespan: measured
  task durations scheduled onto E virtual executors.  The build/query
  "executors" sweeps of Tables 2/3/5/6 report this makespan, because the
  grading host has 2 physical cores (see DESIGN.md substitution #1).
"""

from repro.sparklite.cluster import LocalCluster, StageResult
from repro.sparklite.metrics import StageMetrics, TaskRecord
from repro.sparklite.scheduler import lpt_assignment, simulated_makespan

__all__ = [
    "LocalCluster",
    "StageResult",
    "StageMetrics",
    "TaskRecord",
    "lpt_assignment",
    "simulated_makespan",
]
