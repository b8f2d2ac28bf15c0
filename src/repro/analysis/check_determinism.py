"""Determinism checker for the bit-identical kernel modules.

``hnsw/``, ``distance/`` and ``segmenters/`` outputs are pinned
byte-identical by parity tests and benchmarks (same-seed builds, batch
composition invariance, wire-boundary parity).  Any nondeterministic
source inside them is a latent parity break, so this checker bans:

- the legacy ``np.random.*`` global-state API (``np.random.seed``,
  ``np.random.rand``, ``np.random.shuffle``, ...) — all randomness must
  flow through an explicitly seeded ``np.random.default_rng(seed)`` /
  ``Generator`` threaded from the caller
- ``default_rng()`` with no seed argument (fresh OS entropy per call)
- stdlib ``random`` module-level calls and unseeded ``random.Random()``
- wall-clock reads (``time.time``, ``time.time_ns``,
  ``datetime.now/utcnow/today``) — ``perf_counter``/``monotonic`` are
  allowed for instrumentation because they never feed results

and, in the modules that rank candidates (:func:`run_order`; ``hnsw/``,
``distance/``, ``core/topk.py``, ``core/merge.py``), orderings that
leave the place of equal keys to the sorting algorithm:

- ``sort`` / ``argsort`` without ``kind="stable"``
- any ``partition`` / ``argpartition``: which of several equal keys
  lands on which side of the pivot is unspecified, so it is only sound
  when a total-order fix-up follows, argued in ``baseline.toml``
"""

from __future__ import annotations

import ast

from .diagnostics import Finding, ModuleSource, enclosing_symbol

CHECKER = "determinism"

# np.random attributes that are legitimate under the Generator API.
NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

WALL_CLOCKS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
    ("datetime", "datetime", "now"),
    ("datetime", "datetime", "utcnow"),
    ("datetime", "datetime", "today"),
    ("datetime", "date", "today"),
}


def _dotted(node: ast.expr) -> tuple[str, ...]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _finding(
    module: ModuleSource, node: ast.AST, rule: str, message: str
) -> Finding:
    return Finding(
        checker=CHECKER,
        rule=rule,
        path=module.path,
        line=node.lineno,
        col=node.col_offset,
        symbol=enclosing_symbol(module.tree, node.lineno),
        message=message,
    )


def run_order(module: ModuleSource) -> list[Finding]:
    """The ``unstable-order`` rule (see the module docstring)."""
    findings: list[Finding] = []
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name = node.func.attr
        stable = any(
            keyword.arg == "kind"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value == "stable"
            for keyword in node.keywords
        )
        if name in ("partition", "argpartition"):
            message = (
                f"'{name}()' leaves the choice among equal keys "
                "unspecified; sort with kind=\"stable\", or follow it with "
                "a total-order fix-up and justify that in baseline.toml"
            )
        elif name in ("sort", "argsort") and not stable:
            message = (
                f"'{name}()' without kind=\"stable\" orders equal keys "
                "differently from one algorithm or numpy build to the "
                "next; pass kind=\"stable\" (the builtin sorted() is stable)"
            )
        else:
            continue
        findings.append(_finding(module, node, "unstable-order", message))
    return findings


def run(module: ModuleSource) -> list[Finding]:
    findings: list[Finding] = []

    def flag(node: ast.AST, rule: str, message: str) -> None:
        findings.append(_finding(module, node, rule, message))

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if len(dotted) >= 3 and dotted[-3:-1] == ("np", "random") or (
            len(dotted) == 3 and dotted[:2] == ("numpy", "random")
        ):
            attr = dotted[-1]
            if attr not in NP_RANDOM_ALLOWED:
                flag(
                    node,
                    "legacy-np-random",
                    f"legacy global-state 'np.random.{attr}()' in a "
                    "kernel module; use an explicitly seeded "
                    "np.random.default_rng(seed) threaded from the caller",
                )
            elif attr == "default_rng" and not node.args and not node.keywords:
                flag(
                    node,
                    "unseeded-rng",
                    "'default_rng()' with no seed draws OS entropy; pass "
                    "an explicit seed",
                )
        elif dotted == ("default_rng",) or (
            dotted and dotted[-1] == "default_rng"
        ):
            if not node.args and not node.keywords:
                flag(
                    node,
                    "unseeded-rng",
                    "'default_rng()' with no seed draws OS entropy; pass "
                    "an explicit seed",
                )
        elif len(dotted) == 2 and dotted[0] == "random":
            if dotted[1] == "Random":
                if not node.args and not node.keywords:
                    flag(
                        node,
                        "unseeded-rng",
                        "'random.Random()' with no seed; pass one",
                    )
            elif dotted[1][0].islower():
                flag(
                    node,
                    "stdlib-random",
                    f"module-level 'random.{dotted[1]}()' uses hidden "
                    "global state; use a seeded random.Random or "
                    "np.random.default_rng(seed)",
                )
        if dotted in WALL_CLOCKS:
            flag(
                node,
                "wall-clock",
                f"wall-clock read '{'.'.join(dotted)}()' in a kernel "
                "module; kernels must be a pure function of their "
                "inputs (perf_counter/monotonic are fine for timing)",
            )
    return findings
