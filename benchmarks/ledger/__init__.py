"""The perf ledger: calibrated pass-replay benchmark (see README.md).

One thread per BLAS call, pinned here because it has to happen before
numpy is first imported and both entry points (``run.py`` and
``python -m benchmarks.ledger``) import this package first; the searcher
subprocesses inherit it.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
