"""Asyncio-hygiene checker.

The fan-out hot path (``net/``, ``online/fanout.py`` and the hedge race
in ``online/hedging.py``) runs on a single event-loop thread; one
blocking call stalls every in-flight shard RPC.  Inside ``async def``
bodies this checker bans:

- ``time.sleep(...)`` (use ``asyncio.sleep``)
- synchronous socket operations (``sock.recv``/``sendall``/``accept``,
  ``socket.create_connection``)
- ``.result()`` on futures — blocking when called on a
  ``concurrent.futures.Future``; calls on names bound to
  ``asyncio.create_task``/``ensure_future`` in the same function are
  recognised as non-blocking and skipped
- constructing or naming the blocking ``RemoteSearcherClient`` facade
  (it refuses to run inside a loop; await ``AsyncRemoteSearcherClient``)

Bodies of ``def``/``lambda`` nested inside an ``async def`` (executor
thunks) run on worker threads and are deliberately out of scope.
"""

from __future__ import annotations

import ast

from .diagnostics import Finding, ModuleSource

CHECKER = "asyncio-hygiene"

BLOCKING_SOCKET_METHODS = {"recv", "recv_into", "recvfrom", "sendall", "accept"}
BLOCKING_MODULE_CALLS = {
    ("time", "sleep"): ("blocking-sleep", "time.sleep() blocks the event loop"),
    ("socket", "create_connection"): (
        "sync-socket",
        "socket.create_connection() is a blocking dial",
    ),
}
SYNC_CLIENT = "RemoteSearcherClient"


def _dotted(node: ast.expr) -> tuple[str, ...]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _asyncio_task_names(fn: ast.AsyncFunctionDef) -> set[str]:
    """Names assigned from asyncio.create_task / ensure_future."""
    names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            dotted = _dotted(node.value.func)
            if dotted in (
                ("asyncio", "create_task"),
                ("asyncio", "ensure_future"),
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


class _AsyncBodyWalker(ast.NodeVisitor):
    def __init__(
        self, module: ModuleSource, fn: ast.AsyncFunctionDef, symbol: str
    ) -> None:
        self.module = module
        self.symbol = symbol
        self.task_names = _asyncio_task_names(fn)
        self.findings: list[Finding] = []

    # Executor thunks and nested coroutines get their own analysis scope.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                checker=CHECKER,
                rule=rule,
                path=self.module.path,
                line=node.lineno,
                col=node.col_offset,
                symbol=self.symbol,
                message=f"{message} (inside 'async def')",
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted in BLOCKING_MODULE_CALLS:
            rule, msg = BLOCKING_MODULE_CALLS[dotted]
            self._flag(node, rule, msg)
        elif isinstance(node.func, ast.Name) and node.func.id == SYNC_CLIENT:
            self._flag(
                node,
                "sync-client",
                f"constructing sync '{SYNC_CLIENT}'; use Async{SYNC_CLIENT}",
            )
        elif isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in BLOCKING_SOCKET_METHODS:
                self._flag(
                    node,
                    "sync-socket",
                    f"blocking socket op '.{attr}()'",
                )
            elif attr == "result" and not node.args and not node.keywords:
                receiver = node.func.value
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id in self.task_names
                ):
                    pass  # .result() on a completed asyncio.Task is sync-safe
                else:
                    self._flag(
                        node,
                        "future-result",
                        "'.result()' blocks when the receiver is a "
                        "concurrent.futures.Future; await it instead",
                    )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == SYNC_CLIENT:
            self._flag(
                node,
                "sync-client",
                f"reference to sync '{SYNC_CLIENT}'",
            )
        self.generic_visit(node)


def run(module: ModuleSource) -> list[Finding]:
    findings: list[Finding] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.AsyncFunctionDef):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                walker = _AsyncBodyWalker(module, child, qual)
                for stmt in child.body:
                    walker.visit(stmt)
                findings.extend(walker.findings)
                visit(child, qual)  # nested defs inside the coroutine
            elif isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                visit(child, qual)
            else:
                visit(child, prefix)

    visit(module.tree, "")
    return findings
