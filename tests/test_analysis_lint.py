"""Tests for the repo-specific invariant linter (``repro.analysis``).

Each checker gets a must-flag fixture (a seeded violation it has to
catch) and a must-pass fixture (idiomatic code it must not flag),
including the known false-positive traps: lock-free initialisation in
``__init__`` and ``*_locked`` helper methods.
"""

import ast
import os
import re
import subprocess
import sys
import textwrap

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

    def test_legacy_np_random_flagged(self):
        source = """
            import numpy as np

            def jitter(n):
                return np.random.rand(n)
            """
        findings = check_determinism.run(_mod(source, self.PATH))
        assert ("determinism", "legacy-np-random") in _rules(findings)

    def test_unseeded_default_rng_flagged(self):
        source = """
            import numpy as np

            def make_rng():
                return np.random.default_rng()
            """
        findings = check_determinism.run(_mod(source, self.PATH))
        assert ("determinism", "unseeded-rng") in _rules(findings)

    def test_seeded_default_rng_clean(self):
        source = """
            import numpy as np

            def make_rng(seed):
                return np.random.default_rng(seed)
            """
        assert check_determinism.run(_mod(source, self.PATH)) == []

    def test_stdlib_random_flagged(self):
        source = """
            import random

            def pick(items):
                return random.choice(items)
            """
        findings = check_determinism.run(_mod(source, self.PATH))
        assert ("determinism", "stdlib-random") in _rules(findings)

    def test_wall_clock_flagged(self):
        source = """
            import time

            def stamp():
                return time.time()
            """
        findings = check_determinism.run(_mod(source, self.PATH))
        assert ("determinism", "wall-clock") in _rules(findings)

    def test_perf_counter_clean(self):
        # Monotonic timers are fine — only wall clocks leak real time
        # into kernel outputs.
        source = """
            import time

            def stamp():
                return time.perf_counter()
            """
        assert check_determinism.run(_mod(source, self.PATH)) == []

    @pytest.mark.parametrize(
        "call",
        [
            "np.argsort(scores)",
            "np.argsort(scores, axis=1)",
            "np.sort(keys, axis=1)",
            "keys.sort(axis=1)",
            "scores[rows].argsort()",
            'np.argsort(scores, kind="quicksort")',
            "np.argpartition(scores, k)[:k]",
            "scores.partition(k)",
            # Stability does not rescue a partition.
            'np.argpartition(scores, k, kind="stable")',
        ],
    )
    def test_unstable_order_flagged(self, call):
        source = f"""
            import numpy as np

            def rank(scores, keys, rows, k):
                return {call}
            """
        findings = check_determinism.run_order(_mod(source, self.PATH))
        assert _rules(findings) == {("determinism", "unstable-order")}
        assert len(findings) == 1
        assert findings[0].symbol == "rank"

    @pytest.mark.parametrize(
        "call",
        [
            'np.argsort(scores, kind="stable")',
            'np.argsort(scores, axis=1, kind="stable")[:, :k]',
            'keys.sort(axis=1, kind="stable")',
            "np.lexsort((rows, scores), axis=-1)",
            "sorted(zip(scores, rows))",
        ],
    )
    def test_stable_order_clean(self, call):
        source = f"""
            import numpy as np

            def rank(scores, keys, rows, k):
                return {call}
            """
        assert check_determinism.run_order(_mod(source, self.PATH)) == []

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

    def _run(self, source: str):
        return check_errors.run(_mod(source), self.TAXONOMY)

    def test_off_taxonomy_raise_flagged(self):
        source = """
            def connect(address):
                raise MadeUpNetworkError(address)
            """
        findings = self._run(source)
        assert ("error-discipline", "off-taxonomy-raise") in _rules(findings)

    def test_taxonomy_and_builtin_raises_clean(self):
        source = """
            def connect(address, retries):
                if retries < 0:
                    raise ValueError(f"retries must be >= 0, got {retries}")
                raise TransportError(address)
            """
        assert self._run(source) == []

    def test_locally_defined_error_clean(self):
        source = """
            class HandshakeError(Exception):
                pass

            def connect(address):
                raise HandshakeError(address)
            """
        assert self._run(source) == []

    def test_bare_reraise_clean(self):
        source = """
            def forward(primary, failures):
                try:
                    return primary()
                except Exception:
                    raise
            """
        assert self._run(source) == []

    def test_silent_swallow_flagged(self):
        source = """
            def cleanup(resource):
                try:
                    resource.close()
                except Exception:
                    pass
            """
        findings = self._run(source)
        assert ("error-discipline", "silent-swallow") in _rules(findings)

    def test_suppress_exception_flagged(self):
        source = """
            from contextlib import suppress

            def cleanup(resource):
                with suppress(Exception):
                    resource.close()
            """
        findings = self._run(source)
        assert ("error-discipline", "silent-swallow") in _rules(findings)

    def test_narrow_suppress_clean(self):
        source = """
            from contextlib import suppress

            def cleanup(resource):
                with suppress(OSError):
                    resource.close()
            """
        assert self._run(source) == []

    def test_handled_broad_except_clean(self):
        # Broad catches are fine when the error is *used* (logged,
        # recorded, re-raised) — only silent drops are flagged.
        source = """
            import sys

            def cleanup(resource):
                try:
                    resource.close()
                except Exception as exc:
                    print(f"close failed: {exc}", file=sys.stderr)
            """
        assert self._run(source) == []


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
    import ast
    from pathlib import Path

    import repro
    from repro.hnsw import search

    holders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(leaf, ast.Constant) and leaf.value == "nd,d->n"
                for leaf in ast.walk(node)
            ):
                holders.append((path.name, node.name))
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
    beside = {
        name: value
        for name, value in vars(index).items()
        if isinstance(value, np.ndarray)
        and value.dtype.kind == "i"
        and value.size >= edges
    }
    assert beside == {}


def test_both_venues_speak_one_candidate_currency():
    """A heap kernel and its array twin are interchangeable: apart from
    the visited scratch each brings, the signatures are one -- so no
    adapter has a place to grow between them and their one caller."""
    import inspect

    from repro.hnsw import search

    def signature(kernel):
        parameters = inspect.signature(kernel).parameters.values()
        return [
            (p.name, p.annotation, p.default) for p in parameters if p.name != "visited"
        ], inspect.signature(kernel).return_annotation

    assert signature(search.search_layer_batch) == signature(search.search_arrays)
    assert "visited" in inspect.signature(search.search_arrays).parameters
    assert signature(search.descend_to_levels_batch) == signature(
        search.descend_arrays
    )
    assert "visited" not in inspect.signature(search.descend_arrays).parameters


def test_construction_keeps_candidates_in_arrays():
    """From beam kernel to adjacency table a candidate set is ``(ids,
    dists)`` arrays: the ``(dist, node)`` tuple lists and the adapter
    that fed them must not quietly regrow."""
    hnsw = default_repo_root() / "src" / "repro" / "hnsw"
    for name in ("index.py", "heuristic.py"):
        source = (hnsw / name).read_text()
        assert "tuple[float, int]" not in source, name
        assert "beams_as_arrays" not in source, name


#: Names deleted on purpose: ``name -> (where it must not come back, the
#: commit that retired it)``.  The places are name sets one walk collects:
#: defs under ``src/`` ("src def"); parameters under ``src/`` ("src
#: parameter") and of ``SearcherServer`` ("server parameter"); every
#: name, attribute and def under ``src/repro/net`` ("net name"); every
#: name, attribute and keyword under ``src/`` ("src name") and in
#: ``examples/*.py`` / ``benchmarks/*.py`` ("script name"); string
#: constants under ``src/``, by prefix ("src string"); the words of
#: README.md ("readme"); defs of ``benchmarks/bench_*.py`` ("bench def").
RETIRED = {
    # One construction path and one merge: the sequential insert, its
    # private kernels (two more are the kernel pin's) and the tuple merge.
    **dict.fromkeys(
        ["_insert_row", "_link_back", "greedy_descent", "score_ids", "merge_top_k",
         "TopKHeap"], (("src def",), "b7a06f6"),
    ),
    # One adjacency: the graph's second and third representations, and
    # format 1's per-level member family (f-string heads too).
    **dict.fromkeys(["padded", "PaddedAdjacency", "set_level_csr"], (("src def",), "a219e4e")),
    "beams_as_arrays": (("src def",), "5cf6190"),
    **dict.fromkeys(["fill_info_out", "observed_search_batch"], (("src def",), "6145b78")),
    **dict.fromkeys(["level_csr", "load_level_csr"], (("src def",), "c9e3740")),
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
        (("src def", "src parameter", "src name", "script name", "readme"), "4eb3f8c"),
    ),
    # A count is written once: the private twins of tallied counters and
    # the hand-built STATS nesting went (the parent's id, as above).
    "_count_request": (("src def",), "2b563c3"),
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
        (("src def", "bench def", "script name"), "721308d"),
    ),
}


def test_retired_names_stay_retired():
    root = default_repo_root()
    seen = {place: set() for places, _ in RETIRED.values() for place in places}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def names(node) -> set:
        """The identifier a name, an attribute or a keyword spells."""
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.Attribute):
            return {node.attr}
        return {node.arg} if isinstance(node, ast.keyword) else set()

    for path in (root / "src").rglob("*.py"):
        in_net = path.parent.name == "net"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, defs):
                seen["src def"].add(node.name)
                if in_net:
                    seen["net name"].add(node.name)
                if node.name == "SearcherServer":
                    seen["server parameter"] |= {
                        arg.arg for fn in ast.walk(node) if isinstance(fn, ast.arguments)
                        for arg in (*fn.args, *fn.kwonlyargs)
                    }
            seen["src name"] |= names(node)
            if isinstance(node, ast.arg):
                seen["src parameter"].add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                seen["src string"].add(node.value)
            elif in_net and isinstance(node, (ast.Name, ast.Attribute)):
                seen["net name"].add(getattr(node, "id", None) or node.attr)
    seen["readme"] = set(re.findall(r"\w+", (root / "README.md").read_text()))
    scripts = [*(root / "examples").glob("*.py"), *(root / "benchmarks").glob("*.py")]
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text())):
            seen["script name"] |= names(node)
    for path in (root / "benchmarks").glob("bench_*.py"):
        seen["bench def"] |= {
            node.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)
        }
    back = {
        (name, place)
        for name, (places, _) in RETIRED.items()
        for place in places
        if name in seen[place]
        or (place == "src string" and any(s.startswith(name) for s in seen[place]))
    }
    assert back == set()


def test_a_request_carries_only_what_changes_its_answer():
    """``deadline_s`` / ``hedging`` are too generic to retire as bare
    names (``hedging`` is also a module): the field list pins them."""
    from dataclasses import fields

    from repro.online.types import SearchRequest

    assert [field.name for field in fields(SearchRequest)] == [
        "queries", "top_k", "index_name", "ef",
    ]


def test_the_index_reaches_its_scorer_through_public_names():
    """``from_arrays`` used to write four private fields of ``Scorer``;
    loading goes through ``Scorer.adopt_rows`` and nothing in
    ``hnsw/index.py`` reads or writes a ``_``-prefixed scorer attribute."""
    path = default_repo_root() / "src" / "repro" / "hnsw" / "index.py"
    private = [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and "scorer" in ast.unparse(node.value).rsplit(".", 1)[-1]
    ]
    assert private == []


def test_every_config_field_is_read():
    """A ``HnswParams`` / ``LannsConfig`` field that nothing reads outside
    the class's own validation and (de)serialization is a dead knob."""
    from dataclasses import fields

    from repro.core.config import LannsConfig
    from repro.hnsw.params import HnswParams

    configs = {"HnswParams": HnswParams, "LannsConfig": LannsConfig}
    plumbing = {"to_dict", "from_dict", "__post_init__"}
    read = set()

    def collect(node, owner=None):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif (
            isinstance(node, ast.FunctionDef)
            and owner in configs
            and node.name in plumbing
        ):
            return
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            collect(child, owner)

    for path in (default_repo_root() / "src" / "repro").rglob("*.py"):
        collect(ast.parse(path.read_text()))
    dead = {
        f"{name}.{field.name}"
        for name, cls in configs.items()
        for field in fields(cls)
        if field.name not in read
    }
    assert dead == set()


class TestServingKnobSurface:
    """A serving knob is one field of ``ServerOptions`` / ``BrokerPolicy``
    (ROADMAP 5(c), constructor keywords): everything downstream is a
    loop over the fields, so none is dead and none is spelled twice."""

    root = default_repo_root()
    src = root / "src" / "repro"
    #: Leaf components that take single fields under their own names --
    #: and two parameters that only share a name with a knob.
    LEAVES = {
        "online/replicas.py:__init__": {"breaker_threshold", "breaker_cooldown_s"},
        "online/microbatch.py:__init__": {"max_batch", "max_wait_ms"},
        "online/admission.py:__init__": {"max_batch", "max_wait_ms"},
        "online/fanout.py:__init__": {"partial_policy"},
        "online/fanout.py:assemble": {"partial_policy", "collect_cost"},
        "online/failover.py:degrades": {"partial_policy"},
        # The hint an OVERLOADED error carries, not the server's setting.
        "errors.py:__init__": {"retry_after_s"},
    }
    @staticmethod
    def knobs() -> dict:
        from dataclasses import fields

        from repro.net.server import ServerOptions
        from repro.online.broker import BrokerPolicy

        return {
            cls.__name__: {field.name for field in fields(cls)}
            for cls in (ServerOptions, BrokerPolicy)
        }

    def functions(self):
        """``(where, parameter names, owning class)`` of every def."""

        def walk(node, where, owner):
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, ast.ClassDef) else owner
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    spec = child.args
                    names = {
                        arg.arg
                        for arg in (*spec.posonlyargs, *spec.args, *spec.kwonlyargs)
                    }
                    yield f"{where}:{child.name}", names, owner
                yield from walk(child, where, inner)

        for path in self.src.rglob("*.py"):
            where = path.relative_to(self.src).as_posix()
            yield from walk(ast.parse(path.read_text()), where, None)

    def test_every_field_is_read_outside_its_dataclass(self):
        knobs = self.knobs()
        read = set()

        def collect(node):
            if isinstance(node, ast.ClassDef) and node.name in knobs:
                return
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            for child in ast.iter_child_nodes(node):
                collect(child)

        for path in self.src.rglob("*.py"):
            collect(ast.parse(path.read_text()))
        dead = {
            f"{cls}.{name}"
            for cls, names in knobs.items()
            for name in names
            if name not in read
        }
        assert dead == set()

    def test_no_function_respells_a_field_as_a_parameter(self):
        """Fails at b863b1d with the six spellings: ``SearcherServer``,
        ``launch_searcher``, ``launch_fleet``, ``Broker`` and
        ``OnlineService`` each listed the knobs as keywords."""
        knobs = self.knobs()
        every = set().union(*knobs.values())
        respelled = {
            where: names & every
            for where, names, owner in self.functions()
            if owner not in knobs and names & every
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
        assert spelled.findall((self.src / "cli.py").read_text()) == []
        assert spelled.findall((self.src / "net" / "fleet.py").read_text()) == ["chaos"]

    def test_readme_knob_table_names_every_field(self):
        readme = (self.root / "README.md").read_text()
        table = readme.split("Useful knobs", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"`(?:--)?([\w-]+)`", table))
        named |= {name.replace("-", "_") for name in named}
        missing = set().union(*self.knobs().values()) - named
        assert missing == set()


class TestIndexKnobSurface:
    """The index-side twin: a ``LannsConfig`` / ``HnswParams`` /
    ``BrokerPolicy`` knob a user can type is written once, on its field
    (``repro.utils.flags.knob``), and ``cli.py`` generates the rest."""

    src = default_repo_root() / "src" / "repro"
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
        tree = ast.parse((self.src / "cli.py").read_text())
        literals = {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        read_off_args = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        assert len(flags) == 18 and literals & set(flags) == set()
        assert read_off_args & {spec.name for spec in flags.values()} == set()
        for constructor in ("LannsConfig", "HnswParams", "BrokerPolicy"):
            handed = [
                node
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == constructor
            ]
            assert handed == [], constructor

    def test_readme_knob_table_names_every_flagged_field(self):
        """The serving-side README check's twin (that one, in
        ``TestServingKnobSurface``, stays as PR 28 wrote it): a row per
        field a user can type, naming its flag and each value it may
        take -- read off the field, as argparse and ``__post_init__`` do."""
        from repro.core.config import LannsConfig

        readme = (default_repo_root() / "README.md").read_text()
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
        for path in sorted(self.src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and all(
                    isinstance(item, ast.Constant) for item in node.elts
                ):
                    literal = frozenset(item.value for item in node.elts)
                    for name, values in members.items():
                        if literal == values:
                            typed[name].append(path.relative_to(self.src).as_posix())
        assert typed == {name: [home] for name, home in self.CHOICES.items()}


def test_every_module_has_a_caller_besides_its_own_tests():
    """A ``src/repro`` module is imported by another ``src`` module, a
    benchmark or an example -- through its own name or through a name
    its package re-exports -- not only by its test file: at 4d7059d
    ``storage/records.py`` (an Avro-like container nothing wrote) was,
    and ``sparklite/dataset.py`` hung off one method nothing called."""
    root = default_repo_root()
    src = root / "src"
    kept = {
        "repro.cli": "the entry point: `python -m repro.cli`, fleet children",
        "repro.analysis.sanitizer": "tests/conftest.py installs it under "
        "REPRO_SANITIZE=1 (CI's sanitized tier-1 run)",
        "repro.core.contextual": "the paper's Section 8 extension (context-"
        "scoped indices), end to end; a library feature with no CLI",
        "repro.segmenters.kmeans_segmenter": "registers segmenter kind 'kmeans' "
        "on import (the paper's 'built to be extensible' demonstration); "
        "reached by kind through segmenter_from_dict, not by an import",
    }

    def module_name(path):
        parts = path.relative_to(src).with_suffix("").parts
        return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

    def imported(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from ((alias.name, None) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative: resolve against the package
                    package = module_name(path).split(".")
                    package = package if path.name == "__init__.py" else package[:-1]
                    package = package[: len(package) - node.level + 1]
                    base = ".".join([*package, base] if base else package)
                yield from ((base, alias.name) for alias in node.names)

    files = {module_name(path): path for path in (src / "repro").rglob("*.py")}
    reexports = {
        name: {alias: module for module, alias in imported(path) if alias}
        for name, path in files.items()
        if path.name == "__init__.py"
    }
    callers = [*files.values(), *(root / "examples").glob("*.py")]
    callers += [
        path
        for path in (root / "benchmarks").rglob("*.py")
        if not path.name.startswith(("test_", "conftest"))
    ]
    reached = set()
    for path in callers:
        me = module_name(path) if src in path.parents else None
        for module, alias in imported(path):
            targets = {module, f"{module}.{alias}", reexports.get(module, {}).get(alias)}
            if me is not None and path.name == "__init__.py":
                # A package re-exporting its own modules is not a caller.
                targets = {t for t in targets if t and not t.startswith(me + ".")}
            reached |= targets - {me}
    modules = {
        name
        for name, path in files.items()
        if path.name not in ("__init__.py", "__main__.py")
    }
    assert len(modules) > 70
    assert modules - reached == set(kept)


def fresh_process(code: str) -> list[str]:
    """What ``code`` prints in a fresh interpreter on this checkout, split."""
    src = str(default_repo_root() / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
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
    src = default_repo_root() / "src" / "repro"
    bumps = [
        f"{path.relative_to(src)}:{node.lineno}"
        for package in ("online", "net")
        for path in sorted((src / package).glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "inc"
    ]
    assert bumps == []


def test_the_readme_metrics_table_names_every_registered_series():
    """README's Metrics table lists exactly the series a serving process
    registers (``{a,b}`` in a row expands; ``x`` / ``y`` is two)."""
    readme = (default_repo_root() / "README.md").read_text()
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
    from dataclasses import fields

    from repro.net.protocol import FRAME_FIELDS, ShardCall, ShardReply

    written = {field.name for field in fields(ShardCall)}
    written |= {field.name for field in fields(ShardReply)}
    read = set()
    for name in ("net/client", "net/server", "net/protocol", "online/searcher"):
        path = default_repo_root() / "src" / "repro" / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.keyword):
                written.add(node.arg)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    declared = {
        field.rstrip("?")
        for versions in FRAME_FIELDS.values()
        for fields in versions.values()
        for field in fields
    }
    assert declared - (written & read) == set()


def test_the_shard_call_is_the_search_message():
    """``ShardCall`` / ``ShardReply`` are the newest SEARCH / RESULT
    table entries as values -- payload arrays aside, ``deadline`` for
    ``deadline_ms``, RESULT's echo of ``index`` dropped -- and the far
    side reads every field: the searcher off the call, the fan-out off
    the reply."""
    from dataclasses import fields

    from repro.net.protocol import FRAME_FIELDS, ShardCall, ShardReply

    def newest(message):
        versions = FRAME_FIELDS[message]
        return {field.rstrip("?") for field in versions[max(versions)]}

    call = {field.name for field in fields(ShardCall)}
    reply = {field.name for field in fields(ShardReply)}
    assert call - {"queries", "deadline"} == newest("SEARCH") - {"deadline_ms"}
    assert {"queries", "deadline"} <= call
    assert reply - {"ids", "dists"} == newest("RESULT") - {"index"}

    src = default_repo_root() / "src" / "repro"

    def attributes_read(*paths):
        return {
            node.attr
            for path in paths
            for node in ast.walk(ast.parse((src / path).read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }

    assert call - attributes_read("net/server.py", "online/searcher.py") == set()
    assert reply - attributes_read("online/fanout.py") == set()


def test_the_shard_call_field_list_is_spelled_once():
    """No out-parameter and no re-spelled keyword list: nothing under
    ``src/`` takes ``info_out``, and nothing on the wire side of the
    broker (``net/``, ``online/searcher.py``) takes the two extras the
    call carries (``collect_cost`` stays the ``Broker`` /
    ``OnlineService`` policy keyword)."""
    src = default_repo_root() / "src" / "repro"
    wire_side = {*(src / "net").glob("*.py"), src / "online" / "searcher.py"}
    offenders = []
    for path in src.rglob("*.py"):
        banned = {"info_out"}
        if path in wire_side:
            banned |= {"trace_ctx", "collect_cost"}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                spec = node.args
                names = {
                    arg.arg
                    for arg in (*spec.posonlyargs, *spec.args, *spec.kwonlyargs)
                }
                offenders += [
                    f"{path.name}:{node.name}({name})" for name in names & banned
                ]
    assert offenders == []
    # One abstract search per transport, taking just the call.
    from repro.net.transport import SearcherTransport

    assert SearcherTransport.__abstractmethods__ == {"search", "stats"}


class TestServingTierShape:
    """The broker stays a pipeline over four modules and one clock."""

    src = default_repo_root() / "src" / "repro"
    seams = ("admission", "fanout", "failover", "hedging")

    def test_no_online_module_over_700_lines(self):
        sizes = {
            path.name: len(path.read_text().splitlines())
            for path in (self.src / "online").glob("*.py")
        }
        assert {name: n for name, n in sizes.items() if n > 700} == {}

    def test_seams_never_import_the_broker(self):
        for seam in self.seams:
            tree = ast.parse((self.src / "online" / f"{seam}.py").read_text())
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    imported.add(node.module)
                    imported.update(
                        f"{node.module}.{alias.name}" for alias in node.names
                    )
            assert "repro.online.broker" not in imported, seam

    def test_headers_are_only_read_through_the_schema(self):
        """``FRAME_FIELDS`` names the header fields; no net module
        subscripts or ``.get``s a raw header with a string key."""
        raw_read = re.compile(r"""\b(result_)?header(\.get\(|\[)["']""")
        for name in ("client", "server", "transport"):
            source = (self.src / "net" / f"{name}.py").read_text()
            assert raw_read.search(source) is None, name

    def test_the_wire_runs_on_one_frame_reader(self):
        """Exactly one function besides ``decode_frame`` (the sans-IO
        reader's ``feed``) parses a frame off a buffer (the asyncio-streams
        code it replaced is in ``RETIRED``)."""
        parsers = set()
        for path in (self.src / "net").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    calls = {
                        getattr(call.func, "id", None)
                        for call in ast.walk(node)
                        if isinstance(call, ast.Call)
                    }
                    if calls & {"parse_prefix", "decode_body"}:
                        parsers.add(node.name)
        assert parsers == {"decode_frame", "feed"}

    def test_one_clock(self):
        """No second stage recorder anywhere, and nothing under
        ``online/`` reads ``perf_counter`` behind the obs clock's back."""
        for path in self.src.rglob("*.py"):
            assert "StageLatencyRecorder" not in path.read_text(), path
        for path in (self.src / "online").glob("*.py"):
            assert "perf_counter" not in path.read_text(), path


class TestBenchSurface:
    """Docs and CI never claim a gate that does not run, and the bench
    scripts have no knob nobody turns (ROADMAP 1(d) + 5(c))."""

    root = default_repo_root()
    #: Bench files no ``ci.yml`` step runs -- say so here, on purpose.
    NOT_IN_CI: set = set()
    #: "in CI" / "bench-smoke", but not "not in CI" / "never in CI".
    CLAIM = re.compile(r"(?<!not )(?<!never )in CI\b|bench-smoke")

    def ci(self) -> str:
        return (self.root / ".github" / "workflows" / "ci.yml").read_text()

    def benches_ci_runs(self) -> set:
        return {
            path.name
            for pattern in re.findall(r"benchmarks/(bench_[\w*]+\.py)", self.ci())
            for path in (self.root / "benchmarks").glob(pattern)
        }

    def test_every_bench_is_in_ci_or_listed_as_not(self):
        benches = {path.name for path in (self.root / "benchmarks").glob("bench_*.py")}
        assert len(benches) >= 18  # 7 scripts + 11 table / figure / ablation files
        assert benches - self.benches_ci_runs() == self.NOT_IN_CI

    def test_every_bench_a_doc_calls_in_ci_is_in_ci(self):
        """A paragraph of README / ROADMAP / a bench README, or one of
        the last five CHANGES.md entries, that says "in CI" or
        "bench-smoke" names only bench files a ``ci.yml`` step runs
        (PR 10's phantom ``bench_overload`` gate went four PRs unseen)."""
        docs = [self.root / "README.md", self.root / "ROADMAP.md"]
        docs += sorted((self.root / "benchmarks").rglob("README.md"))
        units = [para for doc in docs for para in doc.read_text().split("\n\n")]
        changes = (self.root / "CHANGES.md").read_text()
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
        docs = [*(self.root / "src").rglob("*.py"), self.root / "README.md"]
        docs += [*(self.root / "benchmarks").glob("*.py")]
        docs += [self.root / ".claude/skills/verify/SKILL.md"]
        dangling = set()
        for doc in docs:
            for stem, name in re.findall(
                r"tests/(\w+)\.py(?:::\s*(\w+))?", doc.read_text()
            ):
                test = self.root / "tests" / f"{stem}.py"
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
        declared = {
            arg.value
            for path in (self.root / "benchmarks").glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "add_argument"
            for arg in node.args
            if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
        }
        assert "--smoke" in declared  # the walk sees the harness's parser
        commands = self.ci() + (self.root / "README.md").read_text()
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
        ``TestServingKnobSurface`` holds to a reader."""
        declared = {
            arg.value
            for node in ast.walk(
                ast.parse((self.root / "src" / "repro" / "cli.py").read_text())
            )
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "add_argument"
            for arg in node.args
            if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
        }
        assert {"--root", "--shard-id"} <= declared
        assert "--max-in-flight" not in declared
        docs = self.ci() + (self.root / "README.md").read_text()
        docs += (self.root / ".claude/skills/verify/SKILL.md").read_text()
        driven = set(re.findall(r"--[a-z][\w-]*", docs))
        for path in (self.root / "tests").glob("*.py"):
            text = path.read_text()
            if "from repro.cli import" in text:
                driven |= set(re.findall(r'"(--[a-z][\w-]*)"', text))
        assert declared - driven == set()

    def test_bench_scripts_carry_no_scaffolding_of_their_own(self):
        """Corpus, export, fleet, timing, report and ``main`` exist once,
        in ``benchmarks/harness.py``: no script parses arguments, opens
        a temp dir, launches a fleet or defines a timer again: no import
        of those tools, and no def under a ``RETIRED`` bench name."""
        retired = {
            name for name, (places, _) in RETIRED.items() if "bench def" in places
        }
        for path in (self.root / "benchmarks").glob("bench_*.py"):
            tree = ast.parse(path.read_text())
            defined = {
                node.name
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
            }
            assert defined & retired == set(), path.name
            imported = {
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            }
            own = {"argparse", "tempfile", "launch_fleet", "launch_searcher"}
            own |= {"perf_counter", "timeit", "save_lanns_index"}
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
        _, errors = run_lint(default_repo_root())
        assert errors == []
