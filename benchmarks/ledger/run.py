"""Path-based entry point (what ``BENCHMARK.json`` runs).

``python3 benchmarks/ledger/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the root of a checkout: puts the
checkout and its ``src`` on ``sys.path`` so no ``PYTHONPATH`` is needed.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
