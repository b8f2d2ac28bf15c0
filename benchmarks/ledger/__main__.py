"""``PYTHONPATH=src python -m benchmarks.ledger --workload <name> --seed <n>``."""

from benchmarks.ledger.cli import main

raise SystemExit(main())
