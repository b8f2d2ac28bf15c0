"""Error-discipline checker for the serving tier.

``net/`` and ``online/`` surface failures to callers that route on
exception type (retry vs fail vs degrade), so every exception raised
there must come from the ``repro.errors`` taxonomy or a small builtin
whitelist.  Silent swallows — ``except Exception: pass`` (or bare
``except``, or ``contextlib.suppress(Exception)``) — are banned: catch
the specific exception, or log and re-raise.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .diagnostics import Finding, ModuleSource, enclosing_symbol

CHECKER = "error-discipline"

BUILTIN_WHITELIST = {
    "ValueError",
    "TypeError",
    "KeyError",
    "IndexError",
    "RuntimeError",
    "NotImplementedError",
    "TimeoutError",
    "OSError",
    "FileNotFoundError",
    "FileExistsError",
    "InterruptedError",
    "StopIteration",
    "StopAsyncIteration",
    "AssertionError",
    "SystemExit",
    "KeyboardInterrupt",
}

# Dotted constructors that are fine to raise (stdlib error types with
# established contracts).
DOTTED_WHITELIST = {
    ("argparse", "ArgumentTypeError"),
}

BROAD_HANDLERS = {"Exception", "BaseException"}


def load_taxonomy(errors_path: Path) -> set[str]:
    """Class names defined in ``repro/errors.py`` (parsed, not imported)."""
    tree = ast.parse(errors_path.read_text(), filename=str(errors_path))
    return {
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }


def _is_silent_body(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or `...`
        if isinstance(stmt, ast.Continue):
            continue
        return False
    return True


def _handler_is_broad(handler: ast.ExceptHandler) -> str | None:
    if handler.type is None:
        return "bare except"
    names = []
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for t in types:
        if isinstance(t, ast.Name):
            names.append(t.id)
    for name in names:
        if name in BROAD_HANDLERS:
            return f"except {name}"
    return None


def run(module: ModuleSource, taxonomy: set[str] | None = None) -> list[Finding]:
    taxonomy = taxonomy or set()
    findings: list[Finding] = []

    def flag(node: ast.AST, rule: str, message: str) -> None:
        findings.append(
            Finding(
                checker=CHECKER,
                rule=rule,
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                symbol=enclosing_symbol(module.tree, node.lineno),
                message=message,
            )
        )

    # Locally defined exception classes are part of the module's contract.
    local_classes = {
        node.name
        for node in ast.walk(module.tree)
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(base, ast.Name)
            and (
                base.id in taxonomy
                or base.id.endswith("Error")
                or base.id in ("Exception", "BaseException")
            )
            or isinstance(base, ast.Attribute)
            for base in node.bases
        )
    }

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            ctor = node.exc
            if isinstance(ctor, ast.Call):
                ctor = ctor.func
            if isinstance(ctor, ast.Name):
                name = ctor.id
                if name[:1].isupper() and not (
                    name in taxonomy
                    or name in BUILTIN_WHITELIST
                    or name in local_classes
                ):
                    flag(
                        node,
                        "off-taxonomy-raise",
                        f"raising '{name}', which is neither a "
                        "repro.errors taxonomy class nor a whitelisted "
                        "builtin; callers route on exception type",
                    )
            elif isinstance(ctor, ast.Attribute):
                dotted_parts: list[str] = []
                cur: ast.expr = ctor
                while isinstance(cur, ast.Attribute):
                    dotted_parts.append(cur.attr)
                    cur = cur.value
                if isinstance(cur, ast.Name):
                    dotted_parts.append(cur.id)
                dotted = tuple(reversed(dotted_parts))
                # Lowercase tails (`failures.get(...)`) re-raise a stored
                # exception *instance*; only class-looking constructors
                # (Capitalised final attribute) answer to the taxonomy.
                if (
                    len(dotted) >= 2
                    and dotted[-1][:1].isupper()
                    and dotted not in DOTTED_WHITELIST
                ):
                    flag(
                        node,
                        "off-taxonomy-raise",
                        f"raising '{'.'.join(dotted)}', which is not a "
                        "whitelisted dotted exception constructor",
                    )
        elif isinstance(node, ast.ExceptHandler):
            broad = _handler_is_broad(node)
            if broad and _is_silent_body(node.body):
                flag(
                    node,
                    "silent-swallow",
                    f"'{broad}: pass' silently swallows every failure; "
                    "catch the specific exception or log and re-raise",
                )
        elif isinstance(node, ast.withitem):
            expr = node.context_expr
            if isinstance(expr, ast.Call):
                func = expr.func
                fname = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id
                    if isinstance(func, ast.Name)
                    else ""
                )
                if fname == "suppress" and any(
                    isinstance(arg, ast.Name) and arg.id in BROAD_HANDLERS
                    for arg in expr.args
                ):
                    flag(
                        expr,
                        "silent-swallow",
                        "'contextlib.suppress(Exception)' silently swallows "
                        "every failure; suppress the specific exception "
                        "types instead",
                    )
    return findings
