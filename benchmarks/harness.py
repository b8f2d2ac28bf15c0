"""The one bench harness: what every ``benchmarks/bench_*.py`` shares.

The seven serving / build scripts (``python benchmarks/bench_x.py``)
are a ``FULL`` / ``SMOKE`` size table, a gate table and check functions;
everything else they need is here, once:

* :func:`corpus` -- the synthetic vectors, queries and ``LannsConfig``
  a size row describes;
* :func:`exported` -- an index saved under a temporary ``LocalHdfs``
  that is removed on exit;
* :func:`fleet` -- searcher subprocesses over such an export, always
  shut down;
* :func:`interleaved` -- the one timing rule: the configurations under
  comparison take turns request by request, each request is scored by
  its minimum across passes; :func:`closed_loop` times concurrent
  clients, where turns cannot be taken;
* :func:`report` -- print a result table, write
  ``benchmarks/results/<name>.txt`` + ``.json``;
* :func:`main` -- ``--smoke``, ``--check <name>`` and, where a script
  has a load-test mode, ``--clients N``.  There are no other flags: a
  size is a named constant in the script's table.

The paper-table benches (pytest, ``benchmarks/conftest.py``) use
:func:`report`, :func:`interleaved` and the offline experiment flow at
the bottom of this file.  ``src/`` keeps no timer of its own: a
broker's requests are timed by its stage clock.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
from collections.abc import Callable, Mapping, Sequence
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from repro.core.config import LannsConfig
from repro.core.index import LannsIndex, ShardIndex
from repro.data.datasets import Dataset
from repro.data.synthetic import clustered_gaussians, make_queries
from repro.hnsw.params import HnswParams
from repro.net.fleet import (
    launch_replicated_fleet,
    replicated_fleet_addresses,
    shutdown_replicated_fleet,
)
from repro.obs.clock import quantile_summary
from repro.offline.indexing import build_index_job
from repro.offline.querying import QueryJobResult, query_index_job
from repro.offline.recall import recall_curve
from repro.segmenters.base import Segmenter
from repro.sparklite.cluster import LocalCluster
from repro.sparklite.metrics import StageMetrics
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import (
    IndexManifest,
    load_lanns_index,
    save_lanns_index,
)

RESULTS_DIR = Path(__file__).parent / "results"
#: Where :func:`exported` saves its index, and the name benches deploy it under.
INDEX_PATH = "bench/idx"
INDEX_NAME = "default"
#: Every bench corpus, graph and segmenter is generated from this seed.
SEED = 0


# -- corpus / export / fleet ------------------------------------------------------


def corpus(sizes, **config) -> tuple[np.ndarray, np.ndarray, LannsConfig]:
    """``(vectors, queries, config)`` for a size row.

    Clustered Gaussians, in-distribution queries, and an RH-segmented
    ``LannsConfig`` over M=12 / ef_construction=56 graphs -- read off
    ``sizes.num_base`` / ``num_queries`` / ``dim`` / ``shards`` /
    ``segments`` / ``ef``.  ``config`` keywords replace ``LannsConfig``
    fields (``sharding="segment"`` for the routed bench).
    """
    vectors = clustered_gaussians(sizes.num_base, sizes.dim, seed=SEED)
    queries = make_queries(vectors, sizes.num_queries, seed=SEED + 1)
    fields = dict(
        num_shards=sizes.shards,
        num_segments=sizes.segments,
        segmenter="rh",
        hnsw=HnswParams(
            M=12, ef_construction=56, ef_search=sizes.ef, seed=SEED
        ),
        segmenter_sample_size=min(2000, sizes.num_base),
        seed=SEED,
    )
    return vectors, queries, LannsConfig(**{**fields, **config})


@contextmanager
def scratch_fs():
    """A ``LocalHdfs`` over a temporary directory, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="lanns-bench-") as root:
        yield LocalHdfs(root)


@contextmanager
def exported(index: LannsIndex):
    """``index`` saved at :data:`INDEX_PATH` of a :func:`scratch_fs`."""
    with scratch_fs() as fs:
        save_lanns_index(index, fs, INDEX_PATH)
        yield fs


@contextmanager
def fleet(fs: LocalHdfs, num_shards: int, *, replicas: int = 1, **launch):
    """Searcher subprocesses over ``fs``, shut down on exit whatever happens.

    Yields ``(groups, addresses)``: the ``SearcherProcess`` replicas of
    each shard, and the matching fleet spec ``OnlineService(searchers=)``
    takes.  ``launch`` keywords are ``launch_replicated_fleet``'s:
    ``chaos_shard`` and the ``ServerOptions`` fields (admission and
    fault injection), for any replica count.
    """
    groups = launch_replicated_fleet(
        num_shards, replicas, root=str(fs.root), **launch
    )
    try:
        yield groups, replicated_fleet_addresses(groups)
    finally:
        shutdown_replicated_fleet(groups)


# -- timing -----------------------------------------------------------------------


def interleaved(
    requests: Mapping[str, Sequence[Callable[[], object]]], passes: int
) -> dict[str, np.ndarray]:
    """Seconds per request for each configuration, by the ledger's rule.

    ``requests`` maps a configuration's name to its request stream (one
    zero-argument callable per request).  Every pass replays every
    stream and a request is scored by its *minimum* over the passes
    (what this box adds to a few-ms request is one-sided, see
    ``benchmarks/ledger/README.md``).  Within a pass the streams advance
    together, request by request -- a request's turn is the fraction of
    its stream served, so 256 singles and 4 batches of 64 still cover
    the same stretch of wall-clock -- and who goes first rotates.  The
    box's speed wanders by +/-15 % over seconds: taking turns by whole
    passes left a 0.97x gate reading 0.85x-1.25x, taking turns by request
    reads it 0.97x-1.00x (``benchmarks/results/pairs/PR27.md``).
    Compare configurations by the ratio of their summed scores
    (:func:`speedup`); percentiles are taken over the scores
    (:func:`summary`).
    """
    scores = {
        name: np.full(len(stream), np.inf) for name, stream in requests.items()
    }
    for turn in range(passes):
        schedule = sorted(
            ((row + 0.5) / len(stream), (place + row + turn) % len(requests), name, row)
            for place, (name, stream) in enumerate(requests.items())
            for row in range(len(stream))
        )
        for _, _, name, row in schedule:
            tick = perf_counter()
            requests[name][row]()
            took = perf_counter() - tick
            if took < scores[name][row]:
                scores[name][row] = took
    return scores


def closed_loop(
    call: Callable[[object], object], items: Sequence, clients: int
) -> tuple[list, dict]:
    """Serve ``items`` from ``clients`` closed-loop threads.

    Each client owns a strided slice of ``items`` and calls ``call`` on
    them one at a time (a new request only after the previous answer),
    modelling independent callers rather than an open-loop flood.  All
    clients start together behind a barrier.  Returns the per-item
    results in item order and a :func:`summary`-style dict whose ``qps``
    is items over the barrier-to-last-finish wall time (``wall_s``);
    the quantiles pool every per-call sample.
    """
    if clients <= 0:
        raise ValueError(f"clients must be positive, got {clients}")
    clients = min(clients, max(len(items), 1))
    results: list = [None] * len(items)
    latencies = np.zeros(len(items))
    barrier = threading.Barrier(clients + 1)
    errors: list[BaseException] = []

    def client(worker: int) -> None:
        try:
            barrier.wait()
            for row in range(worker, len(items), clients):
                tick = perf_counter()
                results[row] = call(items[row])
                latencies[row] = perf_counter() - tick
        except BaseException as exc:  # raised on the caller's thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(worker,)) for worker in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    begin = perf_counter()
    for thread in threads:
        thread.join()
    wall = perf_counter() - begin
    if errors:
        raise errors[0]
    return results, {
        "qps": len(items) / wall,
        "wall_s": wall,
        "clients": clients,
        **quantile_summary(latencies),
    }


def speedup(scores: Mapping[str, np.ndarray], name: str, over: str) -> float:
    """How many times faster ``name`` served its stream than ``over`` did
    (both streams carry the same work)."""
    return float(scores[over].sum() / scores[name].sum())


def summary(scores: np.ndarray, ops: int | None = None) -> dict:
    """``qps`` (``ops`` operations, default one per request, over the
    summed scores) and the p50 / p90 / p99 / max block in milliseconds."""
    ops = scores.size if ops is None else ops
    return {"qps": ops / float(scores.sum()), **quantile_summary(scores)}


# -- report -----------------------------------------------------------------------


def _render_cell(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.4f}".rstrip("0").rstrip(".") or "0"
    if value is None:
        return "-"
    return str(value)


def format_table(rows: Sequence[Mapping], *, title: str | None = None) -> str:
    """Render dict rows (columns: the first row's keys) as an aligned,
    boxless text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    columns = list(rows[0].keys())
    rendered = [
        [_render_cell(row.get(column)) for column in columns] for row in rows
    ]
    widths = [
        max(len(str(column)), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(
        str(column).ljust(widths[i]) for i, column in enumerate(columns)
    )
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for line in rendered:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line))
        )
    return "\n".join(lines)


def report(
    name: str,
    rows: Sequence[Mapping],
    *,
    title: str | None = None,
    notes: str | None = None,
    payload: Mapping | None = None,
) -> str:
    """Print one result table and persist it as ``<name>.txt`` + ``.json``
    (the rows plus whatever else ``payload`` carries) under
    ``benchmarks/results/``.  Returns the rendered text."""
    text = format_table(rows, title=title)
    if notes:
        text = text + "\n\n" + notes.strip() + "\n"
    print("\n" + text + "\n")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
    document = {
        "name": name,
        "title": title,
        "rows": [dict(row) for row in rows],
        **(payload or {}),
    }
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(document, indent=2, default=str), encoding="utf-8"
    )
    return text


# -- main -------------------------------------------------------------------------


def require(ok, message: str) -> None:
    """A structural assertion: always on, at every size, under ``-O``."""
    if not ok:
        raise AssertionError(message)


@dataclass(frozen=True)
class Gate:
    """One row of a script's gate table: a wall-clock ratio it holds.

    ``full`` and ``smoke`` are the floor at each size -- the measured
    value must be ``>=`` it (``>`` when ``strict``) -- and ``None`` says
    the gate is not held at that size: the value is still measured and
    printed, and the run names the gate among those it did not hold.
    """

    full: float
    smoke: float | None
    strict: bool = False


class Run(SimpleNamespace):
    """One invocation of a script: the constants of the size row in use
    as attributes, ``smoke``, ``clients``, and the gates so far."""

    def __init__(self, sizes: Mapping, gates: Mapping[str, Gate], **modes):
        super().__init__(**sizes, **modes)
        self.gates = gates
        self.held: list[str] = []
        self.skipped: list[str] = []
        self.failed: list[str] = []

    def gate(self, name: str, value: float) -> None:
        """Hold the gate ``name`` against the measured ``value``."""
        gate = self.gates[name]
        floor = gate.smoke if self.smoke else gate.full
        if floor is None:
            self.skipped.append(name)
            print(f"gate {name}: {value:.3f}x (not held at smoke size)")
            return
        bound = f"{'>' if gate.strict else '>='} {floor:g}x"
        if value > floor or (value == floor and not gate.strict):
            self.held.append(name)
            print(f"gate {name}: {value:.3f}x {bound} ✓")
        else:
            self.failed.append(name)
            print(f"FAIL gate {name}: {value:.3f}x, needs {bound}")


def main(
    checks: Sequence[Callable],
    sizes: Mapping[str, Mapping],
    gates: Mapping[str, Gate],
    *,
    setup: Callable = nullcontext,
    clients: Callable | None = None,
    argv: Sequence[str] | None = None,
) -> int:
    """Run a bench script; returns its exit status.

    ``sizes`` is ``{"full": row, "smoke": row}`` and ``--smoke`` picks
    the smoke row -- that is all it does: every structural assertion
    (:func:`require`) runs at either size, and each wall-clock gate says
    in its own :class:`Gate` row what it is held to at smoke size.
    ``setup(run)`` is a context manager whose value every check
    receives as ``check(run, env)``; ``--check`` names one check
    (``check_`` prefix dropped).  A script with a load-test mode passes
    it as ``clients``: ``--clients N`` runs that check alone with
    ``run.clients == N``.
    """
    by_name = {check.__name__.removeprefix("check_"): check for check in checks}
    parser = argparse.ArgumentParser(
        description=sys.modules[checks[0].__module__].__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run at the SMOKE size row (what CI runs)",
    )
    parser.add_argument(
        "--check", choices=sorted(by_name), help="run this one check only"
    )
    if clients is not None:
        parser.add_argument(
            "--clients",
            type=int,
            default=0,
            help=f"run {clients.__name__} alone with this many client threads",
        )
    args = parser.parse_args(argv)
    run = Run(
        sizes["smoke" if args.smoke else "full"],
        gates,
        smoke=args.smoke,
        clients=getattr(args, "clients", 0),
    )
    if run.clients:
        selected = [clients]
    else:
        selected = [by_name[args.check]] if args.check else list(checks)
    broken = []
    with setup(run) as env:
        for check in selected:
            try:
                check(run, env)
            except AssertionError as exc:
                broken.append(check.__name__)
                print(f"FAIL {check.__name__}: {exc}")
    if run.skipped:
        print("gates not held at smoke size: " + ", ".join(run.skipped))
    if broken or run.failed:
        print("FAILED: " + ", ".join(broken + run.failed))
        return 1
    print(
        f"OK: {', '.join(check.__name__ for check in selected)}"
        + (f"; gates held: {', '.join(run.held)}" if run.held else "")
    )
    return 0


# -- the offline experiment flow of the paper-table benches -----------------------


@dataclass
class SegmentedExperiment:
    """A built-and-persisted index plus everything needed to query it."""

    dataset: Dataset
    config: LannsConfig
    fs: LocalHdfs
    cluster: LocalCluster
    index_path: str
    manifest: IndexManifest
    build_metrics: StageMetrics

    def load_index(self) -> LannsIndex:
        """Materialise the persisted index in memory."""
        return load_lanns_index(self.fs, self.index_path)

    def query(self, top_k: int, *, ef: int | None = None) -> QueryJobResult:
        """Run the offline query pipeline over the dataset's query set."""
        return query_index_job(
            self.cluster,
            self.fs,
            self.index_path,
            self.dataset.queries,
            top_k,
            ef=ef,
            checkpoint=False,
        )


def build_partitioned(
    dataset: Dataset, config: LannsConfig, fs: LocalHdfs, cluster: LocalCluster
) -> SegmentedExperiment:
    """Build one configuration through the offline pipeline."""
    index_path = (
        f"indices/{dataset.name}/{config.segmenter}"
        f"-s{config.num_shards}x{config.num_segments}"
        f"-{config.spill_mode}-a{config.alpha}"
    )
    manifest, build_metrics = build_index_job(
        cluster, fs, dataset.base, config, index_path
    )
    return SegmentedExperiment(
        dataset=dataset,
        config=config,
        fs=fs,
        cluster=cluster,
        index_path=index_path,
        manifest=manifest,
        build_metrics=build_metrics,
    )


def evaluate_recall(
    dataset: Dataset, result_ids: np.ndarray, ks: list[int]
) -> dict[int, float]:
    """Recall of ``result_ids`` against the dataset's exact ground truth."""
    truth = dataset.ground_truth(max(ks))
    return recall_curve(result_ids, truth, ks)


def swap_segmenter(index: LannsIndex, segmenter: Segmenter) -> LannsIndex:
    """Rebind a built index to a segmenter with different spill boundaries.

    Under *virtual* spill, data placement depends only on the split medians
    -- not on the spill boundaries -- so indices built once can be queried
    under several ``alpha`` values by swapping the segmenter.  This is how
    the Table 7 spill sweep reuses builds.

    The new segmenter must have the same segment count; both the new and
    existing configuration must use virtual spill.
    """
    if index.config.spill_mode != "virtual":
        raise ValueError("swap_segmenter requires a virtual-spill index")
    if segmenter.num_segments != index.config.num_segments:
        raise ValueError(
            f"segmenter has {segmenter.num_segments} segments, index has "
            f"{index.config.num_segments}"
        )
    shards = [
        ShardIndex(shard.shard_id, shard.segments, segmenter)
        for shard in index.shards
    ]
    return LannsIndex(index.config, shards, segmenter)
