"""Shared diagnostic types for the invariant linter.

Every checker emits :class:`Finding` records; the driver sorts them,
filters them against the suppression baseline, and renders them in one
of two formats: human-oriented ``file:line: [checker/rule] message``
lines, or GitHub workflow commands (``::error ...``) that turn into
inline PR annotations.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a checker.

    ``symbol`` is the dotted in-file location (``Class.method`` or a
    function name) when the checker can attribute the finding to one;
    baselines can match on it so entries survive line drift.
    """

    checker: str
    rule: str
    path: str
    line: int
    message: str
    col: int = 0
    symbol: str = ""

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.checker, self.rule)

    def format_text(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"[{self.checker}/{self.rule}] {self.message}"
        )

    def format_github(self) -> str:
        # Workflow-command escaping: %, CR and LF are significant.
        msg = (
            f"[{self.checker}/{self.rule}] {self.message}"
            .replace("%", "%25")
            .replace("\r", "%0D")
            .replace("\n", "%0A")
        )
        return (
            f"::error file={self.path},line={self.line},"
            f"col={self.col},title={self.checker}::{msg}"
        )


@dataclass
class ModuleSource:
    """A parsed module handed to each checker: path, text and AST."""

    path: str  # repo-relative, forward slashes
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleSource":
        return cls(
            path=path,
            source=source,
            tree=ast.parse(source, filename=path),
            lines=source.splitlines(),
        )


def enclosing_symbol(tree: ast.Module, lineno: int) -> str:
    """Best-effort dotted symbol containing ``lineno``."""

    best = ""
    best_span = None

    def visit(node: ast.AST, prefix: str) -> None:
        nonlocal best, best_span
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                end = getattr(child, "end_lineno", child.lineno)
                if child.lineno <= lineno <= end:
                    span = end - child.lineno
                    if best_span is None or span <= best_span:
                        best, best_span = qual, span
                    visit(child, qual)
            else:
                visit(child, prefix)

    visit(tree, "")
    return best
