"""Tests for the repo-specific invariant linter (``repro.analysis``).

Each checker gets a must-flag fixture (a seeded violation it has to
catch) and a must-pass fixture (idiomatic code it must not flag),
including the known false-positive traps: lock-free initialisation in
``__init__`` and ``*_locked`` helper methods.
"""

import ast
import functools
import inspect
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import pytest

from repro.analysis import check_determinism, check_errors, check_locks
from repro.analysis.baseline import (
    BaselineError,
    Suppression,
    apply_baseline,
    parse_baseline,
)
from repro.analysis.diagnostics import Finding, ModuleSource, enclosing_symbol
from repro.analysis.linter import default_repo_root, main, run_lint


def _mod(source: str, path: str = "src/repro/net/example.py") -> ModuleSource:
    return ModuleSource.parse(path, textwrap.dedent(source))


def _rules(findings) -> set:
    return {(f.checker, f.rule) for f in findings}


# -- the code the pins read: one parse, one reference index -------------------------

ROOT = default_repo_root()
SRC = ROOT / "src" / "repro"


@functools.cache
def parsed() -> dict:
    """``{path: tree}``, each file parsed once: ``src/repro``,
    ``examples/`` and the benchmarks that are not tests."""
    paths = [*SRC.rglob("*.py"), *(ROOT / "examples").glob("*.py")]
    paths += (ROOT / "benchmarks").rglob("*.py")
    tests = ("test_", "conftest")
    return {p: ast.parse(p.read_text()) for p in sorted(paths) if not p.name.startswith(tests)}


def code(pattern: str, under: Path = SRC) -> dict:
    """``{path: tree}`` of the parsed files under ``under`` matching ``pattern``."""
    return {path: parsed()[path] for path in sorted(under.glob(pattern)) if path in parsed()}


def module_name(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def parameters(fn) -> set:
    spec = fn.args
    return {arg.arg for arg in (*spec.posonlyargs, *spec.args, *spec.kwonlyargs)}


@functools.cache
def references() -> tuple:
    """One walk of every parsed file: ``defs``, the ``(path, qualified name,
    node)`` of each def and class under ``src/repro``; ``sites``, ``word ->
    [(path, line, kind)]``, ``kind`` one of ``def``, ``arg``, ``keyword``,
    ``name`` / ``attribute`` (loaded), ``store``, ``string`` and ``key`` (a
    dict key, also a ``string``); ``imports``, ``path -> [(module, alias or None)]``."""
    defs, sites, imports = [], {}, {}

    def walk(node, path, owner):
        for child in ast.iter_child_nodes(node):
            word, kind, inner = None, None, owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}" if owner else child.name
                if SRC in path.parents:
                    defs.append((path, inner, child))
                word, kind = child.name, "def"
            elif isinstance(child, (ast.Name, ast.Attribute)):
                word = getattr(child, "id", None) or child.attr
                loaded = isinstance(child.ctx, ast.Load)
                kind = type(child).__name__.lower() if loaded else "store"
            elif isinstance(child, (ast.arg, ast.keyword)) and child.arg:
                word, kind = child.arg, type(child).__name__
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                word, kind = child.value, "string"
                if isinstance(node, ast.Dict) and child in node.keys:
                    sites.setdefault(word, []).append((path, child.lineno, "key"))
            elif isinstance(child, ast.Import):
                imports.setdefault(path, []).extend((a.name, None) for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = child.module or ""
                if child.level:  # relative: resolve against the package
                    package = module_name(path).split(".")
                    package = package if path.name == "__init__.py" else package[:-1]
                    package = package[: len(package) - child.level + 1]
                    base = ".".join([*package, base] if base else package)
                imports.setdefault(path, []).extend((base, a.name) for a in child.names)
            if kind:
                sites.setdefault(word, []).append((path, child.lineno, kind))
            walk(child, path, inner)

    for path, tree in parsed().items():
        walk(tree, path, "")
    return defs, sites, imports


def within(path: Path, line: int, *qualified: str) -> bool:
    """Whether ``line`` of ``path`` is in the body of a def ``qualified`` names."""
    return any(
        where == path and node.lineno <= line <= node.end_lineno
        for where, name, node in references()[0]
        if name in qualified
    )


def words(kind: str, *names: str) -> set:
    """The words with a ``kind`` site in ``src/repro/<name>.py``."""
    files = {SRC / f"{name}.py" for name in names}
    return {
        word
        for word, found in references()[1].items()
        if any(site == kind and path in files for path, _, site in found)
    }


# -- lock-discipline ----------------------------------------------------------------


class TestLockDiscipline:

    GUARDED = """
        import threading

        class Ledger:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []
                self.total = 0

            def add(self, item):
                with self._lock:
                    self._items.append(item)
                    self.total += 1
        """

    ROGUE = GUARDED + """
            def rogue(self, item):
                self._items.append(item)
        """

    def test_unguarded_write_flagged(self):
        findings = check_locks.run(_mod(self.ROGUE))
        assert ("lock-discipline", "unguarded-access") in _rules(findings)
        (finding,) = [f for f in findings if f.rule == "unguarded-access"]
        assert "Ledger.rogue" in finding.symbol
        assert "_items" in finding.message

    def test_guarded_class_clean(self):
        assert check_locks.run(_mod(self.GUARDED)) == []

    def test_init_lockfree_setup_not_flagged(self):
        # __init__ builds state before the object escapes; requiring the
        # lock there is the classic guarded-by false positive.
        source = """
            import threading

            class Cache:
                def __init__(self, seed):
                    self._lock = threading.Lock()
                    self._entries = {}
                    self._entries.update(seed)

                def put(self, key, value):
                    with self._lock:
                        self._entries[key] = value
            """
        assert check_locks.run(_mod(source)) == []

    def test_locked_suffix_helper_exempt(self):
        # *_locked helpers document "caller holds the lock" — the checker
        # must trust that convention instead of flagging every call.
        source = """
            import threading

            class Queue:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._pending = []

                def push(self, item):
                    with self._lock:
                        self._pending.append(item)

                def _drain_locked(self):
                    drained = list(self._pending)
                    self._pending.clear()
                    return drained
            """
        assert check_locks.run(_mod(source)) == []

    def test_unlocked_class_ignored(self):
        # No lock attribute -> no guarded-by inference at all.
        source = """
            class Plain:
                def __init__(self):
                    self.items = []

                def add(self, item):
                    self.items.append(item)
            """
        assert check_locks.run(_mod(source)) == []


# -- determinism --------------------------------------------------------------------


class TestDeterminism:

    PATH = "src/repro/hnsw/example.py"

    @pytest.mark.parametrize(
        "module, call, rule",
        [
            ("numpy as np", "np.random.rand(n)", "legacy-np-random"),
            ("numpy as np", "np.random.default_rng()", "unseeded-rng"),
            ("numpy as np", "np.random.default_rng(n)", None),
            ("random", "random.choice(n)", "stdlib-random"),
            ("time", "time.time()", "wall-clock"),
            # Monotonic timers are fine -- only wall clocks leak real time
            # into kernel outputs.
            ("time", "time.perf_counter()", None),
        ],
    )
    def test_randomness_and_clocks(self, module, call, rule):
        source = f"import {module}\n\ndef f(n):\n    return {call}\n"
        findings = check_determinism.run(_mod(source, self.PATH))
        assert _rules(findings) == ({("determinism", rule)} if rule else set())

    @pytest.mark.parametrize(
        "call, unstable",
        [
            ("np.argsort(scores)", True),
            ("np.argsort(scores, axis=1)", True),
            ("np.sort(keys, axis=1)", True),
            ("keys.sort(axis=1)", True),
            ("scores[rows].argsort()", True),
            ('np.argsort(scores, kind="quicksort")', True),
            ("np.argpartition(scores, k)[:k]", True),
            ("scores.partition(k)", True),
            # Stability does not rescue a partition.
            ('np.argpartition(scores, k, kind="stable")', True),
            ('np.argsort(scores, kind="stable")', False),
            ('np.argsort(scores, axis=1, kind="stable")[:, :k]', False),
            ('keys.sort(axis=1, kind="stable")', False),
            ("np.lexsort((rows, scores), axis=-1)", False),
            ("sorted(zip(scores, rows))", False),
        ],
    )
    def test_unstable_order(self, call, unstable):
        source = f"""
            import numpy as np

            def rank(scores, keys, rows, k):
                return {call}
            """
        findings = check_determinism.run_order(_mod(source, self.PATH))
        found = [(f.checker, f.rule, f.symbol) for f in findings]
        assert found == [("determinism", "unstable-order", "rank")] * unstable

    def test_unstable_order_scope(self, tmp_path):
        """The rule follows the modules that rank candidates, which is
        not the scope of the rules above: the merge and top-k modules of
        ``core/`` are in, ``segmenters/`` (k-means, never a ranking a
        caller sees) is out."""
        source = "import numpy as np\n\ndef f(x):\n    return np.argsort(x)\n"
        expected = {
            "src/repro/hnsw/a.py": True,
            "src/repro/distance/b.py": True,
            "src/repro/core/topk.py": True,
            "src/repro/core/merge.py": True,
            "src/repro/core/index.py": False,
            "src/repro/segmenters/c.py": False,
        }
        for rel in expected:
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        findings, errors = run_lint(tmp_path, [tmp_path / "src"])
        assert errors == []
        flagged = {finding.path for finding in findings}
        assert flagged == {rel for rel, want in expected.items() if want}
        assert {finding.rule for finding in findings} == {"unstable-order"}


# -- error-discipline ---------------------------------------------------------------


class TestErrorDiscipline:

    TAXONOMY = {"LannsError", "ConfigError", "TransportError"}

    @pytest.mark.parametrize(
        "rule, source",
        [
            ("off-taxonomy-raise", """
                def connect(address):
                    raise MadeUpNetworkError(address)
                """),
            (None, """
                def connect(address, retries):
                    if retries < 0:
                        raise ValueError(f"retries must be >= 0, got {retries}")
                    raise TransportError(address)
                """),
            (None, """
                class HandshakeError(Exception):
                    pass

                def connect(address):
                    raise HandshakeError(address)
                """),
            (None, """
                def forward(primary, failures):
                    try:
                        return primary()
                    except Exception:
                        raise
                """),
            ("silent-swallow", """
                def cleanup(resource):
                    try:
                        resource.close()
                    except Exception:
                        pass
                """),
            ("silent-swallow", """
                from contextlib import suppress

                def cleanup(resource):
                    with suppress(Exception):
                        resource.close()
                """),
            (None, """
                from contextlib import suppress

                def cleanup(resource):
                    with suppress(OSError):
                        resource.close()
                """),
            # Broad catches are fine when the error is *used* (logged,
            # recorded, re-raised) -- only silent drops are flagged.
            (None, """
                import sys

                def cleanup(resource):
                    try:
                        resource.close()
                    except Exception as exc:
                        print(f"close failed: {exc}", file=sys.stderr)
                """),
        ],
        ids=["off-taxonomy", "taxonomy-and-builtin", "locally-defined", "bare-reraise",
             "silent-swallow", "suppress-exception", "narrow-suppress", "handled-broad"],
    )
    def test_raises_and_catches(self, rule, source):
        findings = check_errors.run(_mod(source), self.TAXONOMY)
        assert _rules(findings) == ({("error-discipline", rule)} if rule else set())


# -- baseline -----------------------------------------------------------------------


class TestBaseline:

    def test_justified_entry_parses(self):
        text = textwrap.dedent(
            """
            [[suppression]]
            checker = "lock-discipline"
            file = "src/repro/online/broker.py"
            rule = "unguarded-access"
            symbol = "Broker.search"
            justification = "copy-on-write table; locking would serialize reads"
            """
        )
        (supp,) = parse_baseline(text)
        assert supp.checker == "lock-discipline"
        assert supp.symbol == "Broker.search"

    def test_missing_justification_rejected(self):
        text = textwrap.dedent(
            """
            [[suppression]]
            checker = "lock-discipline"
            file = "src/repro/online/broker.py"
            """
        )
        with pytest.raises(BaselineError):
            parse_baseline(text)

    def test_apply_filters_and_reports_stale(self):
        hit = Finding(
            checker="lock-discipline",
            rule="unguarded-access",
            path="src/repro/online/broker.py",
            line=10,
            message="m",
            symbol="Broker.search",
        )
        other = Finding(
            checker="determinism",
            rule="wall-clock",
            path="src/repro/hnsw/index.py",
            line=5,
            message="m",
        )
        matching = Suppression(
            checker="lock-discipline",
            file="src/repro/online/broker.py",
            justification="why",
            symbol="Broker.search",
        )
        stale_supp = Suppression(
            checker="determinism",
            file="src/repro/net/client.py",
            justification="why",
        )
        kept, stale = apply_baseline([hit, other], [matching, stale_supp])
        assert kept == [other]
        assert stale == [stale_supp]


# -- driver / diagnostics -----------------------------------------------------------


def flags_declared(trees) -> set:
    """The ``--`` flags the ``add_argument`` calls in ``trees`` declare."""
    return {
        arg.value
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        for arg in node.args
        if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
    }


def test_hnsw_index_has_one_search_body():
    """The float / quantized / flat-scan fork must not quietly regrow."""
    from repro.hnsw.index import HnswIndex

    bodies = [name for name in vars(HnswIndex) if name.startswith("_search_many")]
    assert bodies == ["_search_many"]


def test_the_one_row_scoring_branch_is_written_once():
    """A group of one row is a branch inside the existing seam: one
    helper holds the ``"nd,d->n"`` reduction every dot-product scorer
    shares, and no one-row twin sits beside the two beam and two descend
    kernels."""
    from repro.hnsw import search

    holders = [
        (path.name, node.name)
        for path, _, node in references()[0]
        if not isinstance(node, ast.ClassDef)
        and any(getattr(leaf, "value", None) == "nd,d->n" for leaf in ast.walk(node))
    ]
    assert holders == [("scorer.py", "_gather_dot")]

    kernels = sorted(
        name
        for name, value in vars(search).items()
        if callable(value)
        and getattr(value, "__module__", None) == search.__name__
        and name.startswith(("search_", "descend_"))
    )
    assert kernels == [
        "descend_arrays",
        "descend_to_levels_batch",
        "search_arrays",
        "search_layer_batch",
    ]


def test_hnsw_graph_has_one_adjacency():
    """The table is the graph: a list-of-lists twin, a frozen padded
    copy or a cached CSR must not quietly regrow beside it.  On a built
    index exactly one ``HnswGraph`` / ``HnswIndex`` attribute holds a
    neighbor id per edge -- anything else that large is an adjacency."""
    import numpy as np

    from repro.hnsw.graph import HnswGraph
    from repro.hnsw.index import build_hnsw
    from repro.hnsw.params import HnswParams

    rng = np.random.default_rng(0)
    index = build_hnsw(
        rng.standard_normal((300, 8)).astype(np.float32),
        params=HnswParams(M=4, ef_construction=16),
    )
    index.search_batch(index.vector(0)[np.newaxis].repeat(16, axis=0), 3)
    graph = index.graph
    edges = int(graph.degrees[: sum(graph.levels) + len(graph)].sum())
    assert edges > 4 * len(graph)

    def elements(value) -> int:
        if isinstance(value, np.ndarray):
            return value.size
        if isinstance(value, (list, tuple, dict)):
            items = value.values() if isinstance(value, dict) else value
            return sum(max(elements(item), 1) for item in items)
        return 0

    held = {name: elements(getattr(graph, name)) for name in HnswGraph.__slots__}
    assert [name for name, size in held.items() if size >= edges] == ["table"]
    assert graph.table.ndim == 2 and graph.table.dtype == np.int32
    # ... and the index keeps no graph-sized integer array of its own.
    beside = [
        name
        for name, value in vars(index).items()
        if isinstance(value, np.ndarray) and value.dtype.kind == "i" and value.size >= edges
    ]
    assert beside == []


def test_both_venues_speak_one_candidate_currency():
    """A heap kernel and its array twin are interchangeable: apart from
    the visited scratch each brings, the signatures are one -- so no
    adapter has a place to grow between them and their one caller."""
    from repro.hnsw import search

    def signature(kernel):
        parameters = inspect.signature(kernel).parameters.values()
        return [
            (p.name, p.annotation, p.default) for p in parameters if p.name != "visited"
        ], inspect.signature(kernel).return_annotation

    assert signature(search.search_layer_batch) == signature(search.search_arrays)
    assert "visited" in inspect.signature(search.search_arrays).parameters
    assert signature(search.descend_to_levels_batch) == signature(search.descend_arrays)
    assert "visited" not in inspect.signature(search.descend_arrays).parameters


def test_construction_keeps_candidates_in_arrays():
    """From beam kernel to adjacency table a candidate set is ``(ids,
    dists)`` arrays: the ``(dist, node)`` tuple lists and the adapter
    that fed them must not quietly regrow."""
    for name in ("index.py", "heuristic.py"):
        source = (SRC / "hnsw" / name).read_text()
        assert "tuple[float, int]" not in source and "beams_as_arrays" not in source, name


def place(kinds: set, where):
    """Whether a word has a ``kinds`` site at a ``(path, line)`` ``where`` holds."""
    return lambda word: any(
        kind in kinds and where(path, line)
        for path, line, kind in references()[1].get(word, ())
    )


SPELLED = {"name", "attribute", "store", "keyword"}
#: Where a retired name must not come back: ``src/`` is ``src/repro``,
#: "net" its ``net/`` package and a script a top-level ``examples/*.py``
#: or ``benchmarks/*.py``; a "src string" is matched by prefix.
PLACES = {
    "src def": place({"def"}, lambda path, _: SRC in path.parents),
    "src parameter": place({"arg"}, lambda path, _: SRC in path.parents),
    "server parameter": place({"arg"}, lambda *site: within(*site, "SearcherServer")),
    "net name": place(SPELLED | {"def"}, lambda path, _: path.parent == SRC / "net"),
    "src name": place(SPELLED, lambda path, _: SRC in path.parents),
    "script name": place(
        SPELLED, lambda path, _: path.parent in (ROOT / "examples", ROOT / "benchmarks")
    ),
    "bench def": place({"def"}, lambda path, _: path.match("benchmarks/bench_*.py")),
    "src string": lambda name: any(
        word.startswith(name) and place({"string"}, lambda path, _: SRC in path.parents)(word)
        for word in references()[1]
    ),
    "readme": lambda name: name in re.findall(r"\w+", (ROOT / "README.md").read_text()),
}
#: Names deleted on purpose: ``name -> (where it must not come back, the
#: commit that retired it)``.  A def or class that comes back is the
#: reachability pin's to catch: nothing names it.
RETIRED = {
    # One adjacency: format 1's per-level member family (f-string heads too).
    **dict.fromkeys(["indptr_", "indices_"], (("src string",), "c9e3740")),
    # The wire on asyncio streams, its helpers and per-RPC ``wait_for``.
    **dict.fromkeys(
        ["StreamReader", "StreamWriter", "open_connection", "start_server",
         "wait_for", "readexactly", "read_frame_async", "write_frame",
         "write_frame_async", "_handle_connection", "_dispatch_watched"],
        (("net name",), "470cfea"),
    ),
    # Serving keywords that became constants (zero call sites at their parent).
    **dict.fromkeys(["rpc_timeout_s", "rpc_pool_size"], (("src parameter", "readme"), "4d7059d")),
    "max_frame": (("server parameter", "readme"), "4d7059d"),
    # Scaffolding every bench script carried before the shared harness.
    **dict.fromkeys(
        ["export_index", "build_parser", "main", "min_ms", "best_us",
         "_timed_pass", "measure_closed_loop"],
        (("bench def",), "b863b1d"),
    ),
    # A request carries only what changes its answer: per-request policy
    # overrides, routing hints and scale-folded cosine cache keys went
    # (``SearchRequest``'s fields are pinned below).  Recorded against
    # the parent: the retiring commit's own id was not known yet.
    **dict.fromkeys(
        ["INHERIT", "overrides_policy", "routing_hints", "cache_quantize_decimals",
         "quantize_decimals", "_canonical_query_bytes"],
        (("src parameter", "src name", "script name", "readme"), "4eb3f8c"),
    ),
    # A count is written once: the hand-built STATS nesting went (the
    # parent's id, as above).
    **dict.fromkeys(
        ["searches_shed", "searches_expired", "searches_abandoned",
         "fleet_queries_served", "server_microbatch", "flush_reasons",
         "batches_executed"],
        (("src name", "src string", "script name", "readme"), "2b563c3"),
    ),
    # A stall is a fault: the straggler's counter and launcher keyword (the
    # parent's id; ``cli_golden.json`` / ``test_chaos.py`` pin the rest).
    **dict.fromkeys(
        ["searches_seen", "slow_shard"],
        (("src parameter", "src name", "script name", "readme"), "78ecee3"),
    ),
    # The library's second stopwatch (``repro.eval``): requests are timed
    # by the broker's stage clock, bench timing is the harness's (the
    # parent's id, as above).
    **dict.fromkeys(
        ["measure_qps", "measure_batch_qps", "serving_throughput",
         "concurrent_serving_throughput"],
        (("bench def", "script name"), "721308d"),
    ),
    # A shard is one object per side of the wire: the class that forwarded
    # to the client (its ledger names are aliases now, so a class that came
    # back would be reached) and a tuple nothing read (the parent's id, as
    # above).
    "RemoteSearcherTransport": (("src def",), "ddef7c8"),
    "CONNECTIVITY_FAILURES": (("src name", "readme"), "ddef7c8"),
    # The broker owns its cache and micro-batcher: five keywords no caller
    # set, now constants (the parent's id, as above).
    **dict.fromkeys(
        ["backoff_max_s", "announce", "grace_s", "drain_timeout_s", "verify_timeout_s"],
        (("src parameter",), "c122a3e"),
    ),
}


def test_retired_names_stay_retired():
    back = {
        (name, where)
        for name, (places, _) in RETIRED.items()
        for where in places
        if PLACES[where](name)
    }
    assert back == set()


def test_a_request_carries_only_what_changes_its_answer():
    """``deadline_s`` / ``hedging`` are too generic to retire as bare
    names (``hedging`` is also a module): the field list pins them."""
    from repro.online.types import SearchRequest

    assert [field.name for field in fields(SearchRequest)] == [
        "queries", "top_k", "index_name", "ef",
    ]


def test_the_index_reaches_its_scorer_through_public_names():
    """``from_arrays`` used to write four private fields of ``Scorer``;
    loading goes through ``Scorer.adopt_rows`` and nothing in
    ``hnsw/index.py`` reads or writes a ``_``-prefixed scorer attribute."""
    private = [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(parsed()[SRC / "hnsw" / "index.py"])
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and "scorer" in ast.unparse(node.value).rsplit(".", 1)[-1]
    ]
    assert private == []


#: What may stand unreached, ``{name: why}``: a module (dotted), a def or
#: class (qualified name) or a knob field (``Class.field``).
UNREACHED = {
    "repro.cli": "the entry point: `python -m repro.cli`, fleet children",
    **dict.fromkeys(["repro.analysis.sanitizer", "format_violations"], "tests/conftest.py "
                    "installs it, and prints its report, under REPRO_SANITIZE=1"),
    **dict.fromkeys(["repro.segmenters.kmeans_segmenter", "KMeansSegmenter"],
                    "segmenter kind 'kmeans' (the paper's 'built to be extensible' "
                    "demonstration), registered on import and reached by kind"),
    **dict.fromkeys([f"_MethodWalker.visit_{node}" for node in
                     ("With", "FunctionDef", "AsyncFunctionDef", "Lambda", "Attribute")],
                    "ast.NodeVisitor calls it by the node's class"),
    **dict.fromkeys(["_SanitizedLock.locked", "_SanitizedLock._at_fork_reinit",
                     "_SanitizedRLock._is_owned", "_SanitizedRLock._release_save",
                     "_SanitizedRLock._acquire_restore", "_SanitizedRLock._at_fork_reinit"],
                    "the lock protocol threading.Condition and the fork hooks call"),
    "RemoteSearcherClient.search_batch_async": "the frozen ledger patches it by name",
    "HashSharder.shard_of": "the tests' placement reference",
    **dict.fromkeys(["read_ivecs", "write_fvecs", "write_ivecs"],
                    "the SIFT/GIST formats, kept as a set with read_fvecs"),
    "failure_bound_knn": "theory.py's bounds: ROADMAP 3(b) calls them",
    **dict.fromkeys(["HnswGraph.set_neighbors", "HnswGraph.add_link",
                     "HnswGraph.check_invariants"],
                    "the tests' hand-built graphs and structural check"),
    **dict.fromkeys(["Segmenter.route_data", "LocalCluster.last_stage", "Counter.inc",
                     "LocalHdfs.read_json", "LocalHdfs.ls", "LocalHdfs.temp_path",
                     "RemoteSearcherClient.open_connections"], "library API a test calls"),
}


PLUMBING = ("to_dict", "from_dict", "__post_init__")


@functools.cache
def unreached() -> dict:
    """What nothing but its own tests reaches, by question: (a) a ``src/repro``
    module no other ``src`` module, benchmark or example imports, by its name
    or its package's re-export; (b) a def or class under ``src/repro`` nothing
    loads by name outside its own body; (c) a knob field no ``src`` attribute
    reads outside its class's validation and (de)serialization or, in ``HnswParams``
    / ``LannsConfig``, a non-flag one no keyword or dict key outside it sets."""
    from repro.core.config import LannsConfig
    from repro.hnsw.params import HnswParams
    from repro.net.server import ServerOptions
    from repro.online.broker import BrokerPolicy

    defs, sites, imports = references()
    modules = {module_name(path): path for path in code("**/*.py")}
    exported = {
        (module_name(path), alias): module
        for path in code("**/__init__.py")
        for module, alias in imports.get(path, ())
        if alias
    }
    reached = set()
    for path, pairs in imports.items():
        me = module_name(path) if SRC in path.parents else ""
        for module, alias in pairs:
            targets = {module, f"{module}.{alias}", exported.get((module, alias))}
            if path.name == "__init__.py":  # re-exporting its own modules is no call
                targets = {t for t in targets if t and not t.startswith(me + ".")}
            reached |= targets - {me}
    assert len(modules) > 70 and len(defs) > 800
    return {
        "module": {
            name
            for name, path in modules.items()
            if name not in reached and path.name not in ("__init__.py", "__main__.py")
        },
        "def": {
            qualified
            for path, qualified, node in defs
            if not re.fullmatch(r"__\w+__", node.name)
            and not any(
                kind in ("name", "attribute") and not within(*site, qualified)
                for *site, kind in sites.get(node.name, ())
            )
        },
        "field": {
            f"{cls.__name__}.{field.name}"
            for cls in (HnswParams, LannsConfig, ServerOptions, BrokerPolicy)
            for field in fields(cls)
            if not any(
                kind == "attribute" and SRC in site[0].parents
                and not within(*site, *(f"{cls.__name__}.{m}" for m in PLUMBING))
                for *site, kind in sites.get(field.name, ())
            )
            or cls in (HnswParams, LannsConfig) and "help" not in field.metadata
            and not any(kind in ("keyword", "key") and not within(*site, cls.__name__)
                        for *site, kind in sites.get(field.name, ()))
        },
    }


@pytest.mark.parametrize("question", ["module", "def", "field"])
def test_everything_under_src_is_reached(question):
    """What only its own tests reach has an ``UNREACHED`` reason: at 4d7059d
    ``storage/records.py`` (an Avro-like container nothing wrote) had no
    importer; a retired def that comes back is named by nothing."""
    assert unreached()[question] - set(UNREACHED) == set()


def test_no_unreached_entry_is_stale():
    """An ``UNREACHED`` entry that is reached, or names nothing, fails."""
    assert set(UNREACHED) - set().union(*unreached().values()) == set()


class TestServingKnobSurface:
    """A serving knob is one field of ``ServerOptions`` / ``BrokerPolicy``
    (ROADMAP 5(c), constructor keywords): everything downstream is a
    loop over the fields, so none is dead and none is spelled twice."""

    #: Leaf components that take single fields under their own names --
    #: and two parameters that only share a name with a knob.
    LEAVES = {
        "online/replicas.py:__init__": {"breaker_threshold", "breaker_cooldown_s"},
        "online/microbatch.py:__init__": {"max_batch", "max_wait_ms"},
        "online/fanout.py:__init__": {"partial_policy"},
        "online/fanout.py:assemble": {"partial_policy", "collect_cost"},
        "online/failover.py:degrades": {"partial_policy"},
        # The hint an OVERLOADED error carries, not the server's setting.
        "errors.py:__init__": {"retry_after_s"},
    }
    @staticmethod
    def knobs() -> dict:
        from repro.net.server import ServerOptions
        from repro.online.broker import BrokerPolicy

        return {
            cls.__name__: {field.name for field in fields(cls)}
            for cls in (ServerOptions, BrokerPolicy)
        }

    def test_no_function_respells_a_field_as_a_parameter(self):
        """Fails at b863b1d with the six spellings: ``SearcherServer``,
        ``launch_searcher``, ``launch_fleet``, ``Broker`` and
        ``OnlineService`` each listed the knobs as keywords."""
        knobs = self.knobs()
        every = set().union(*knobs.values())
        respelled = {
            f"{path.relative_to(SRC).as_posix()}:{node.name}": parameters(node) & every
            for path, qualified, node in references()[0]
            if not isinstance(node, ast.ClassDef)
            and qualified.split(".")[0] not in knobs
            and parameters(node) & every
        }
        assert respelled == self.LEAVES

    def test_a_new_server_field_needs_no_edit_in_cli_or_fleet(self):
        """``cli.py`` generates the flags and ``net/fleet.py`` the child
        argv from the field list; neither names a field -- as identifier,
        string or flag, comments and docstrings included -- but for the
        ``chaos=None`` that calms the groups ``chaos_shard`` did not pick."""
        names = self.knobs()["ServerOptions"]
        names |= {name.replace("_", "-") for name in names}
        spelled = re.compile(r"\b(" + "|".join(sorted(names)) + r")\b")
        assert spelled.findall((SRC / "cli.py").read_text()) == []
        assert spelled.findall((SRC / "net" / "fleet.py").read_text()) == ["chaos"]

    def test_readme_knob_table_names_every_field(self):
        readme = (ROOT / "README.md").read_text()
        table = readme.split("Useful knobs", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"`(?:--)?([\w-]+)`", table))
        named |= {name.replace("-", "_") for name in named}
        missing = set().union(*self.knobs().values()) - named
        assert missing == set()


class TestIndexKnobSurface:
    """The index-side twin: a ``LannsConfig`` / ``HnswParams`` /
    ``BrokerPolicy`` knob a user can type is written once, on its field
    (``repro.utils.flags.knob``), and ``cli.py`` generates the rest."""

    #: The seven sets of values a knob may take, and each one's home.
    CHOICES = {
        "SEGMENTER_KINDS": "core/config.py",
        "METRICS": "core/config.py",
        "SHARDING_MODES": "core/config.py",
        "SPILL_MODES": "segmenters/base.py",
        "QUANTIZE_KINDS": "distance/scorer.py",
        "PARTIAL_POLICIES": "online/failover.py",
        "EXECUTION_MODES": "sparklite/cluster.py",
    }

    def test_cli_names_no_flagged_field(self):
        """At 4d7059d ``cli.py`` hand-wrote these flags 26 times (15 on
        ``build``, 8 on ``bench``, 3 on ``query``) and handed each parsed
        value to a constructor by keyword.  (``--max-batch`` /
        ``--max-wait-ms`` of ``bench`` are the load test's own sizes, and
        no knob of ``BrokerPolicy``.)"""
        from repro.core.config import LannsConfig
        from repro.online.broker import BrokerPolicy

        flags = {**LannsConfig.flags(), **BrokerPolicy.flags()}
        tree = parsed()[SRC / "cli.py"]
        literals = {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        read_off_args = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "args"
        }
        assert len(flags) == 18 and literals & set(flags) == set()
        assert read_off_args & {spec.name for spec in flags.values()} == set()
        handed = {
            node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert handed & {"LannsConfig", "HnswParams", "BrokerPolicy"} == set()

    def test_readme_knob_table_names_every_flagged_field(self):
        """The serving-side README check's twin (that one, in
        ``TestServingKnobSurface``, stays as PR 28 wrote it): a row per
        field a user can type, naming its flag and each value it may
        take -- read off the field, as argparse and ``__post_init__`` do."""
        from repro.core.config import LannsConfig

        readme = (ROOT / "README.md").read_text()
        table = readme.split("Useful knobs", 1)[1].split("\n## ", 1)[0]
        for flag, spec in LannsConfig.flags().items():
            rows = [line for line in table.splitlines() if f"`{spec.name}`" in line]
            assert len(rows) == 1, spec.name
            assert f"`{flag}`" in rows[0], flag
            for choice in spec.metadata["choices"] or ():
                assert f"`{choice}`" in rows[0], (flag, choice)

    def test_each_choices_tuple_is_typed_once(self):
        """A second literal with the same members -- tuple, list or set,
        named or inline -- is a second place to forget a new value."""
        import importlib

        members = {}
        for name, home in self.CHOICES.items():
            module = "repro." + home.removesuffix(".py").replace("/", ".")
            members[name] = frozenset(getattr(importlib.import_module(module), name))
        typed = {name: [] for name in self.CHOICES}
        for path, tree in code("**/*.py").items():
            for node in ast.walk(tree):
                if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and all(
                    isinstance(item, ast.Constant) for item in node.elts
                ):
                    literal = frozenset(item.value for item in node.elts)
                    for name, values in members.items():
                        if literal == values:
                            typed[name].append(path.relative_to(SRC).as_posix())
        assert typed == {name: [home] for name, home in self.CHOICES.items()}


def fresh_process(program: str) -> list[str]:
    """What ``program`` prints in a fresh interpreter on this checkout, split."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", program],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.split()


def test_a_serving_process_loads_no_heavy_library():
    """A searcher is one process per shard, many to a host, so what its
    imports keep resident is paid per shard: ``scipy.stats``, loaded
    for one probit until 3816ffb, was ~67 of a searcher's ~107 MiB.
    The CLI (every fleet child's entry point) and the server import
    numpy and the package, never an analysis, plotting or test library."""
    heavy = {"scipy", "pandas", "sklearn", "matplotlib", "hypothesis", "pytest"}
    loaded = fresh_process(
        "import sys, repro.cli, repro.net.server\n"
        "print(' '.join(sorted({name.split('.')[0] for name in sys.modules})))"
    )
    assert "numpy" in loaded
    assert heavy.intersection(loaded) == set()


def test_tally_count_is_the_only_way_to_count():
    """No serving module bumps a registry counter itself: an ``.inc(``
    under ``online/`` or ``net/`` is a second count of an event some
    owner's ``Tally.count`` should write once (and its ``stats()`` read
    back from that tally's snapshot)."""
    bumps = [
        f"{path.relative_to(SRC)}:{line}"
        for path, line, kind in references()[1].get("inc", ())
        if kind == "attribute" and path.parent in (SRC / "online", SRC / "net")
    ]
    assert bumps == []


def test_the_readme_metrics_table_names_every_registered_series():
    """README's Metrics table lists exactly the series a serving process
    registers (``{a,b}`` in a row expands; ``x`` / ``y`` is two)."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Metrics", 1)[1].split("\n### ", 1)[0]
    listed = set()
    for row in re.findall(r"^\| (`lanns_.*?) \|", section, flags=re.M):
        for name in re.findall(r"`([^`]+)`", row):
            head, _, rest = name.partition("{")
            choices, _, tail = rest.partition("}")
            listed |= {head + choice + tail for choice in choices.split(",")}
    registered = fresh_process(
        "import repro.net.server, repro.online.service\n"
        "from repro.obs.metrics import get_registry\n"
        "print(' '.join(m.name for m in get_registry().metrics()))"
    )
    assert len(registered) > 20
    assert listed == set(registered)


def test_every_frame_field_is_written_and_read():
    """A ``FRAME_FIELDS`` name that no sender passes to ``pack`` (as a
    keyword) or no receiver reads off an unpacked message (as an
    attribute) is a dead wire field.  SEARCH is written and RESULT read
    field for field through :class:`ShardCall` / :class:`ShardReply`
    (next test), so their dataclass fields count as the keyword; the
    searcher reads a call's ``ef`` and ``cost`` in ``observed_search``."""
    from repro.net.protocol import FRAME_FIELDS, ShardCall, ShardReply

    files = ("net/client", "net/server", "net/protocol", "online/searcher")
    written = {field.name for field in (*fields(ShardCall), *fields(ShardReply))}
    written |= words("keyword", *files)
    read = words("attribute", *files)
    declared = {
        field.rstrip("?")
        for versions in FRAME_FIELDS.values()
        for names in versions.values()
        for field in names
    }
    assert declared - (written & read) == set()


def test_the_shard_call_is_the_search_message():
    """``ShardCall`` / ``ShardReply`` are the newest SEARCH / RESULT
    table entries as values -- payload arrays aside, ``deadline`` for
    ``deadline_ms``, RESULT's echo of ``index`` dropped -- and the far
    side reads every field: the searcher off the call, the fan-out off
    the reply."""
    from repro.net.protocol import FRAME_FIELDS, ShardCall, ShardReply

    def newest(message):
        versions = FRAME_FIELDS[message]
        return {field.rstrip("?") for field in versions[max(versions)]}

    call = {field.name for field in fields(ShardCall)}
    reply = {field.name for field in fields(ShardReply)}
    assert call - {"queries", "deadline"} == newest("SEARCH") - {"deadline_ms"}
    assert {"queries", "deadline"} <= call
    assert reply - {"ids", "dists"} == newest("RESULT") - {"index"}
    assert call - words("attribute", "net/server", "online/searcher") == set()
    assert reply - words("attribute", "online/fanout") == set()


def test_the_shard_call_field_list_is_spelled_once():
    """No out-parameter and no re-spelled keyword list: nothing under
    ``src/`` takes ``info_out``, and nothing on the wire side of the
    broker (``net/``, ``online/searcher.py``) takes the two extras the
    call carries (``collect_cost`` stays the ``Broker`` /
    ``OnlineService`` policy keyword)."""
    offenders = []
    for path, _, node in references()[0]:
        banned = {"info_out"}
        if path.parent.name == "net" or path == SRC / "online" / "searcher.py":
            banned |= {"trace_ctx", "collect_cost"}
        if not isinstance(node, ast.ClassDef):
            offenders += [f"{path.name}:{node.name}({n})" for n in parameters(node) & banned]
    assert offenders == []
    # The abstract set is what the fleet path calls: the fan-out's
    # start_search, taking just the call, and the service's control plane.
    from repro.net.transport import SearcherTransport

    assert SearcherTransport.__abstractmethods__ == {
        "start_search", "verify", "deploy", "undeploy", "stats"
    }
    assert list(
        inspect.signature(SearcherTransport.start_search).parameters
    ) == ["self", "call"]


class TestServingTierShape:
    """The broker stays a pipeline over three modules and one clock."""

    seams = ("fanout", "failover", "hedging")

    def test_no_online_module_over_700_lines(self):
        sizes = {
            path.name: len(path.read_text().splitlines())
            for path in (SRC / "online").glob("*.py")
        }
        assert {name: n for name, n in sizes.items() if n > 700} == {}

    def test_seams_never_import_the_broker(self):
        for seam in self.seams:
            pairs = references()[2][SRC / "online" / f"{seam}.py"]
            imported = {module for module, _ in pairs}
            imported |= {f"{module}.{alias}" for module, alias in pairs if alias}
            assert "repro.online.broker" not in imported, seam

    def test_headers_are_only_read_through_the_schema(self):
        """``FRAME_FIELDS`` names the header fields; no net module
        subscripts or ``.get``s a raw header with a string key."""
        raw_read = re.compile(r"""\b(result_)?header(\.get\(|\[)["']""")
        for name in ("client", "server", "transport"):
            source = (SRC / "net" / f"{name}.py").read_text()
            assert raw_read.search(source) is None, name

    def test_the_wire_runs_on_one_frame_reader(self):
        """Exactly one function besides ``decode_frame`` (the sans-IO
        reader's ``feed``) parses a frame off a buffer (``RETIRED``'s
        "net name" rows keep out the asyncio-streams code it replaced)."""
        parsers = {
            node.name
            for path, _, node in references()[0]
            if path.parent == SRC / "net"
            and not isinstance(node, ast.ClassDef)
            and any(
                getattr(call.func, "id", None) in ("parse_prefix", "decode_body")
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
            )
        }
        assert parsers == {"decode_frame", "feed"}

    def test_one_clock(self):
        """No second stage recorder anywhere, and nothing under
        ``online/`` reads ``perf_counter`` behind the obs clock's back."""
        for path in SRC.rglob("*.py"):
            assert "StageLatencyRecorder" not in path.read_text(), path
        for path in (SRC / "online").glob("*.py"):
            assert "perf_counter" not in path.read_text(), path

    def test_execute_is_the_one_way_to_ask_a_fleet(self):
        """``execute(SearchRequest)`` is the broker's and the service's
        only serving entry point: no public method takes query arrays."""
        from repro.online.broker import Broker
        from repro.online.service import OnlineService

        for owner in (Broker, OnlineService):
            assert list(inspect.signature(owner.execute).parameters) == [
                "self", "request"
            ]
            takes_queries = {
                name
                for name, method in inspect.getmembers(owner, inspect.isfunction)
                if not name.startswith("_")
                and {"query", "queries"} & set(inspect.signature(method).parameters)
            }
            assert takes_queries == set(), owner.__name__


class TestBenchSurface:
    """Docs and CI never claim a gate that does not run, and the bench
    scripts have no knob nobody turns (ROADMAP 1(d) + 5(c))."""

    #: Bench files no ``ci.yml`` step runs -- say so here, on purpose.
    NOT_IN_CI: set = set()
    #: "in CI" / "bench-smoke", but not "not in CI" / "never in CI".
    CLAIM = re.compile(r"(?<!not )(?<!never )in CI\b|bench-smoke")

    def ci(self) -> str:
        return (ROOT / ".github" / "workflows" / "ci.yml").read_text()

    def benches_ci_runs(self) -> set:
        return {
            path.name
            for pattern in re.findall(r"benchmarks/(bench_[\w*]+\.py)", self.ci())
            for path in (ROOT / "benchmarks").glob(pattern)
        }

    def test_every_bench_is_in_ci_or_listed_as_not(self):
        benches = {path.name for path in (ROOT / "benchmarks").glob("bench_*.py")}
        assert len(benches) >= 18  # 7 scripts + 11 table / figure / ablation files
        assert benches - self.benches_ci_runs() == self.NOT_IN_CI

    def test_every_bench_a_doc_calls_in_ci_is_in_ci(self):
        """A paragraph of README / ROADMAP / a bench README, or one of
        the last five CHANGES.md entries, that says "in CI" or
        "bench-smoke" names only bench files a ``ci.yml`` step runs
        (PR 10's phantom ``bench_overload`` gate went four PRs unseen)."""
        docs = [ROOT / "README.md", ROOT / "ROADMAP.md"]
        docs += sorted((ROOT / "benchmarks").rglob("README.md"))
        units = [para for doc in docs for para in doc.read_text().split("\n\n")]
        changes = (ROOT / "CHANGES.md").read_text()
        units += re.split(r"(?m)^(?=- PR )", changes)[-5:]
        claimed = {
            name
            for unit in units
            if self.CLAIM.search(unit)
            for name in re.findall(r"bench_\w+\.py", unit)
        }
        assert claimed - self.benches_ci_runs() == set()

    def test_every_cited_test_exists(self):
        """A ``tests/<file>.py`` or ``tests/<file>.py::<name>`` cited by
        ``src/``, the README, a bench script or the verify skill names a
        test file, and a ``def`` / ``class`` of that name in it."""
        docs = [*(ROOT / "src").rglob("*.py"), ROOT / "README.md"]
        docs += [*(ROOT / "benchmarks").glob("*.py")]
        docs += [ROOT / ".claude/skills/verify/SKILL.md"]
        dangling = set()
        for doc in docs:
            for stem, name in re.findall(
                r"tests/(\w+)\.py(?:::\s*(\w+))?", doc.read_text()
            ):
                test = ROOT / "tests" / f"{stem}.py"
                if not test.exists() or (
                    name
                    and not re.search(
                        rf"^\s*(def|class) {name}\b", test.read_text(), re.M
                    )
                ):
                    dangling.add(f"{doc.name}: tests/{stem}.py::{name}")
        assert dangling == set()

    def test_every_bench_flag_is_set_by_ci_or_readme(self):
        """An ``add_argument`` flag of a ``benchmarks/*.py`` parser that no
        ``ci.yml`` step and no README command line passes to a bench
        script is a dead knob (101 of them at c9e3740)."""
        declared = flags_declared(code("*.py", ROOT / "benchmarks").values())
        assert "--smoke" in declared  # the walk sees the harness's parser
        commands = self.ci() + (ROOT / "README.md").read_text()
        dead = {
            flag
            for flag in declared
            if not re.search(
                rf"(?:bench_\w+|trajectory)\.py[^\n|]* {flag}\b", commands
            )
        }
        assert dead == set()

    def test_every_cli_flag_is_generated_or_driven(self):
        """The same rule for ``repro.cli``'s own flags (ROADMAP 5(c)):
        a hand-written ``add_argument`` flag of ``cli.py`` is named by
        the README, ``ci.yml`` or the verify skill, or passed by a test
        that calls ``repro.cli.main`` (12 were not at b863b1d; they are
        ``tests/test_cli.py::TestEveryFlagReachesItsConsumer``).  The
        ``serve-searcher`` knob flags are not in this walk at all:
        ``ServerOptions.add_flags`` generates them from fields that
        ``test_everything_under_src_is_reached`` holds to a reader."""
        declared = flags_declared([parsed()[SRC / "cli.py"]])
        assert {"--root", "--shard-id"} <= declared
        assert "--max-in-flight" not in declared
        docs = self.ci() + (ROOT / "README.md").read_text()
        docs += (ROOT / ".claude/skills/verify/SKILL.md").read_text()
        driven = set(re.findall(r"--[a-z][\w-]*", docs))
        for path in (ROOT / "tests").glob("*.py"):
            text = path.read_text()
            if "from repro.cli import" in text:
                driven |= set(re.findall(r'"(--[a-z][\w-]*)"', text))
        assert declared - driven == set()

    def test_bench_scripts_carry_no_scaffolding_of_their_own(self):
        """Corpus, export, fleet, timing, report and ``main`` exist once,
        in ``benchmarks/harness.py``: no script parses arguments, opens
        a temp dir, launches a fleet or defines a timer again: no import
        of those tools, and no def under a ``RETIRED`` bench name."""
        retired = [name for name, (places, _) in RETIRED.items() if "bench def" in places]
        assert [name for name in retired if PLACES["bench def"](name)] == []
        own = {"argparse", "tempfile", "launch_fleet", "launch_searcher"}
        own |= {"perf_counter", "timeit", "save_lanns_index"}
        for path in code("bench_*.py", ROOT / "benchmarks"):
            pairs = references()[2].get(path, ())
            imported = {alias or module for module, alias in pairs}
            assert imported & own == set(), path.name


class TestDriver:

    def test_enclosing_symbol(self):
        module = _mod(
            """
            class Outer:
                def method(self):
                    return 1

            def free():
                return 2
            """
        )
        assert enclosing_symbol(module.tree, 4) == "Outer.method"
        assert enclosing_symbol(module.tree, 7) == "free"

    def test_github_format_escapes(self):
        finding = Finding(
            checker="determinism",
            rule="wall-clock",
            path="src/repro/hnsw/index.py",
            line=3,
            message="100% wrong\nsecond line",
        )
        rendered = finding.format_github()
        assert rendered.startswith("::error file=src/repro/hnsw/index.py,")
        assert "%25" in rendered and "%0A" in rendered
        assert "\n" not in rendered

    def test_repo_lints_clean_under_baseline(self):
        # The acceptance bar for the whole PR: the real tree, with the
        # checked-in baseline, has zero unsuppressed findings.
        assert main([]) == 0

    def test_repo_has_no_parse_errors(self):
        _, errors = run_lint(ROOT)
        assert errors == []
