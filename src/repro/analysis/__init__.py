"""Repo-specific static analysis + runtime concurrency sanitizer.

Two halves:

- an AST invariant linter (``python -m repro.analysis`` /
  ``repro.cli lint``) with four checkers tuned to this codebase:
  lock-discipline, asyncio-hygiene, determinism and error-discipline,
  filtered through a justified suppression baseline
  (``baseline.toml``);
- a runtime concurrency sanitizer (:mod:`repro.analysis.sanitizer`)
  enabled by ``REPRO_SANITIZE=1`` that instruments every lock created
  after install, detects lock-order inversions and blocking calls made
  while holding a lock, and is wired into tier-1 via a conftest
  fixture.
"""

from .baseline import BaselineError, Suppression, load_baseline, parse_baseline
from .diagnostics import Finding, ModuleSource
from .linter import main, run_lint

__all__ = [
    "BaselineError",
    "Finding",
    "ModuleSource",
    "Suppression",
    "load_baseline",
    "main",
    "parse_baseline",
    "run_lint",
]
