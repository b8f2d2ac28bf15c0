"""Driver for the repo-specific invariant linter.

Usage (equivalent)::

    python -m repro.cli lint [--format github] [paths...]
    python -m repro.analysis [--format github] [paths...]

Walks ``src/repro``, dispatches each module to the checkers whose
scope covers it, filters findings against ``analysis/baseline.toml``
and exits non-zero when anything unsuppressed remains.  See
``README.md`` ("Static analysis & sanitizers") for how to read a
diagnostic and when a baseline entry is acceptable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import check_async, check_determinism, check_errors, check_locks
from .baseline import BaselineError, apply_baseline, load_baseline
from .diagnostics import Finding, ModuleSource

#: Kernel modules whose outputs are pinned bit-identical.
DETERMINISM_SCOPE = ("repro/hnsw/", "repro/distance/", "repro/segmenters/")
#: Modules that rank candidates: equal keys must order the same everywhere.
ORDER_SCOPE = (
    "repro/hnsw/",
    "repro/distance/",
    "repro/core/topk.py",
    "repro/core/merge.py",
)
#: Event-loop modules where a blocking call stalls the fan-out.
ASYNC_SCOPE = ("repro/net/", "repro/online/")
#: Modules whose exceptions are routed on by type.
ERROR_SCOPE = ("repro/net/", "repro/online/", "repro/cli.py")


def _rel(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _in_scope(rel_path: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        rel_path.endswith(p) if p.endswith(".py") else p in rel_path
        for p in prefixes
    )


def default_repo_root() -> Path:
    # .../src/repro/analysis/linter.py -> repo root three levels up from src
    return Path(__file__).resolve().parents[3]


def collect_files(root: Path, paths: list[Path] | None = None) -> list[Path]:
    if paths:
        out: list[Path] = []
        for p in paths:
            if p.is_dir():
                out.extend(sorted(p.rglob("*.py")))
            else:
                out.append(p)
        return out
    src = root / "src" / "repro"
    return sorted(src.rglob("*.py"))


def run_lint(
    root: Path, paths: list[Path] | None = None
) -> tuple[list[Finding], list[str]]:
    """Returns (findings, parse_errors); the baseline is *not* applied."""
    findings: list[Finding] = []
    errors: list[str] = []
    taxonomy: set[str] = set()
    errors_py = root / "src" / "repro" / "errors.py"
    if errors_py.exists():
        taxonomy = check_errors.load_taxonomy(errors_py)

    for path in collect_files(root, paths):
        rel = _rel(path, root)
        try:
            module = ModuleSource.parse(rel, path.read_text())
        except (OSError, SyntaxError) as exc:
            errors.append(f"{rel}: {exc}")
            continue
        findings.extend(check_locks.run(module))
        if _in_scope(rel, ASYNC_SCOPE):
            findings.extend(check_async.run(module))
        if _in_scope(rel, DETERMINISM_SCOPE):
            findings.extend(check_determinism.run(module))
        if _in_scope(rel, ORDER_SCOPE):
            findings.extend(check_determinism.run_order(module))
        if _in_scope(rel, ERROR_SCOPE):
            findings.extend(check_errors.run(module, taxonomy))

    findings.sort(key=Finding.sort_key)
    return findings, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli lint",
        description="Repo-specific invariant linter "
        "(lock discipline, asyncio hygiene, determinism, "
        "error discipline).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="diagnostic format: human text or GitHub ::error annotations",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="suppression baseline (default: src/repro/analysis/baseline.toml)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    args = parser.parse_args(argv)

    root = default_repo_root()
    baseline_path = args.baseline or Path(__file__).parent / "baseline.toml"

    findings, errors = run_lint(root, args.paths or None)
    for err in errors:
        print(f"lint: cannot analyse {err}", file=sys.stderr)

    stale = []
    if not args.no_baseline:
        try:
            suppressions = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"lint: invalid baseline: {exc}", file=sys.stderr)
            return 2
        findings, stale = apply_baseline(findings, suppressions)

    for finding in findings:
        print(
            finding.format_github()
            if args.format == "github"
            else finding.format_text()
        )
    for supp in stale:
        print(
            f"lint: stale baseline entry at "
            f"{baseline_path.name}:{supp.lineno} "
            f"({supp.checker}/{supp.file}) matched nothing — remove it",
            file=sys.stderr,
        )

    if findings or errors:
        total = len(findings)
        print(
            f"lint: {total} finding{'s' if total != 1 else ''}"
            + (f", {len(errors)} unparseable file(s)" if errors else ""),
            file=sys.stderr,
        )
        return 1
    print("lint: clean", file=sys.stderr)
    return 0
